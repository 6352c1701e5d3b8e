/**
 * @file
 * Figure 5: instruction miss rates under each HW prefetching scheme,
 * normalized to no prefetching — (i) the instruction cache,
 * (ii) the L2 (single core), (iii) the L2 (4-way CMP).
 *
 * Miss-rate-only study: runs in the fast functional mode (zero
 * latencies, no pipeline) — prefetch timeliness does not matter for
 * these ratios, only which lines get covered.
 */

#include "bench/bench_common.hh"

using namespace ipref;

namespace
{

void
missTable(const BenchContext &ctx, const char *title, bool cmp,
          bool l2, bool include_mix)
{
    const auto sets = figureWorkloads(include_mix);

    // One batch: baselines first, then the scheme grid (row-major).
    const auto schemes = ctx.schemeSelections(kPaperSchemes);
    std::vector<RunSpec> specs;
    for (const auto &ws : sets)
        specs.push_back(ctx.spec()
                            .cmp(cmp)
                            .workloads(ws.kinds)
                            .functional()
                            .build());
    for (const SchemeSelection &scheme : schemes) {
        for (const auto &ws : sets)
            specs.push_back(ctx.spec()
                                .cmp(cmp)
                                .workloads(ws.kinds)
                                .scheme(scheme)
                                .functional()
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
            double rate = l2 ? r.l2iMissPerInstr()
                             : r.l1iMissPerInstr();
            double base = l2 ? results[wi].l2iMissPerInstr()
                             : results[wi].l1iMissPerInstr();
            row.push_back(
                Table::num(base > 0 ? rate / base : 0.0, 3));
        }
        t.row(row);
    }
    ctx.emit(t);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchContext ctx(argc, argv, 0.3);
    missTable(ctx,
              "Figure 5(i): L1I miss rate, normalized to no prefetch "
              "(single core)",
              false, false, false);
    missTable(ctx,
              "Figure 5(ii): L2 instruction miss rate, normalized "
              "(single core)",
              false, true, false);
    missTable(ctx,
              "Figure 5(iii): L2 instruction miss rate, normalized "
              "(4-way CMP)",
              true, true, true);
    return ctx.exitCode();
}
