/**
 * @file
 * Figure 8: performance gains of each HW prefetching scheme WITH the
 * selective-L2-install (bypass) optimization of Section 7 —
 * prefetches enter the L2 only after proving useful, eliminating the
 * pollution that capped Figure 6's gains.
 * (i) single core, (ii) 4-way CMP.
 */

#include "bench/bench_common.hh"

using namespace ipref;

namespace
{

void
bypassTable(const BenchContext &ctx, const char *title, bool cmp,
            bool include_mix)
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
                                .bypassL2()
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
    bypassTable(ctx,
                "Figure 8(i): prefetcher speedups with L2-bypass "
                "prefetches (single core)",
                false, false);
    bypassTable(ctx,
                "Figure 8(ii): prefetcher speedups with L2-bypass "
                "prefetches (4-way CMP)",
                true, true);
    return ctx.exitCode();
}
