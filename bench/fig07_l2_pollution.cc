/**
 * @file
 * Figure 7: L2 cache DATA miss rate under each instruction
 * prefetcher, normalized to no prefetching — the pollution effect of
 * speculative instruction lines displacing data from the shared L2.
 * (i) single core, (ii) 4-way CMP.
 */

#include "bench/bench_common.hh"

using namespace ipref;

namespace
{

void
pollutionTable(const BenchContext &ctx, const char *title, bool cmp,
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
            const SimResults &r = results[next++];
            double base = results[wi].l2dMissPerInstr();
            row.push_back(Table::num(
                base > 0 ? r.l2dMissPerInstr() / base : 0.0, 3));
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
    pollutionTable(ctx,
                   "Figure 7(i): L2 data miss rate, normalized to no "
                   "prefetch (single core)",
                   false, false);
    pollutionTable(ctx,
                   "Figure 7(ii): L2 data miss rate, normalized to no "
                   "prefetch (4-way CMP)",
                   true, true);
    return ctx.exitCode();
}
