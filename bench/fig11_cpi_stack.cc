/**
 * @file
 * Figure 11 (companion): CPI stacks per prefetching scheme. Every
 * timing-mode cycle is charged to exactly one bucket by the per-core
 * cycle ledger (sim/cycle_ledger.hh), so each row decomposes a
 * scheme's CPI into busy work and the stalls it still suffers. The
 * interesting movement mirrors the paper's speedup story: prefetching
 * converts fetch_mem stall cycles into busy cycles, with the
 * not-quite-timely remainder surfacing as prefetch_partial.
 *
 * Single-core runs keep the stacks directly comparable (CPI =
 * cycles / instructions with no per-core weighting). Rows are the
 * no-prefetch baseline plus the --scheme set (default: the paper's
 * Figure 5-9 schemes — next-line variants and the discontinuity
 * predictor, which combines the discontinuity table with next-N-line
 * prefetching).
 */

#include "bench/bench_common.hh"
#include "sim/cycle_ledger.hh"

using namespace ipref;

namespace
{

void
stackTable(const BenchContext &ctx, const WorkloadSet &ws)
{
    const auto schemes = ctx.schemeSelections(kPaperSchemes);

    std::vector<RunSpec> specs;
    specs.push_back(
        ctx.spec().cmp(false).workloads(ws.kinds).build());
    for (const SchemeSelection &scheme : schemes)
        specs.push_back(ctx.spec()
                            .cmp(false)
                            .workloads(ws.kinds)
                            .scheme(scheme)
                            .build());
    std::vector<SimResults> results = ctx.run(specs);

    Table t("Figure 11 (" + ws.label +
            "): CPI stack by scheme (cycles per instruction)");
    std::vector<std::string> header = {"Scheme"};
    for (std::size_t b = 0; b < kNumCycleBuckets; ++b)
        header.push_back(
            cycleBucketName(static_cast<CycleBucket>(b)));
    header.push_back("CPI");
    t.header(header);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        const SimResults &r = results[i];
        std::vector<std::string> row = {
            i == 0 ? "none" : schemeLabel(schemes[i - 1])};
        for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
            double v = r.instructions
                           ? static_cast<double>(r.cpiStack[b]) /
                                 static_cast<double>(r.instructions)
                           : 0.0;
            row.push_back(Table::num(v, 3));
        }
        double cpi = r.instructions
                         ? static_cast<double>(r.cycles) /
                               static_cast<double>(r.instructions)
                         : 0.0;
        row.push_back(Table::num(cpi, 3));
        t.row(row);
    }
    ctx.emit(t);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchContext ctx(argc, argv, 0.5);
    for (const WorkloadSet &ws : figureWorkloads(false))
        stackTable(ctx, ws);
    return ctx.exitCode();
}
