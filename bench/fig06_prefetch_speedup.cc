/**
 * @file
 * Figure 6: performance gains of each HW prefetching scheme relative
 * to no prefetching, WITHOUT the selective-L2-install optimization —
 * (i) single core, (ii) 4-way CMP. L2 data pollution caps these
 * gains (compare with Figure 8).
 */

#include "bench/bench_common.hh"

using namespace ipref;

namespace
{

void
speedupTable(const BenchContext &ctx, const char *title, bool cmp,
             bool include_mix, bool bypass)
{
    const auto sets = figureWorkloads(include_mix);

    // One batch: baselines first, then the scheme grid (row-major).
    const auto schemes = ctx.schemeSelections(kPaperSchemes);
    std::vector<RunSpec> specs;
    for (const auto &ws : sets)
        specs.push_back(
            ctx.spec().cmp(cmp).workloads(ws.kinds).build());
    for (const SchemeSelection &scheme : schemes) {
        for (const auto &ws : sets)
            specs.push_back(ctx.spec()
                                .cmp(cmp)
                                .workloads(ws.kinds)
                                .scheme(scheme)
                                .bypassL2(bypass)
                                .build());
    }
    std::vector<SimResults> results = ctx.run(specs);

    Table t(title);
    std::vector<std::string> header = {"Scheme"};
    for (const auto &ws : sets)
        header.push_back(ws.label);
    t.header(header);

    std::size_t next = sets.size();
    for (const SchemeSelection &scheme : schemes) {
        std::vector<std::string> row = {schemeLabel(scheme)};
        for (std::size_t wi = 0; wi < sets.size(); ++wi) {
            row.push_back(
                Table::num(speedup(results[wi], results[next++]), 3) +
                "X");
        }
        t.row(row);
    }
    ctx.emit(t);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchContext ctx(argc, argv, 0.8);
    speedupTable(ctx,
                 "Figure 6(i): prefetcher speedups, no L2 bypass "
                 "(single core)",
                 false, false, false);
    speedupTable(ctx,
                 "Figure 6(ii): prefetcher speedups, no L2 bypass "
                 "(4-way CMP)",
                 true, true, false);
    return ctx.exitCode();
}
