/**
 * @file
 * Ablation: related-work baselines beyond the paper's main four —
 * the lookahead-N scheme of [4] (prefetch only line L+N) and the
 * classic multi-target history ("target") prefetcher of [1,5] with
 * varying ways — compared against next-N-line and the discontinuity
 * prefetcher.
 */

#include "bench/bench_common.hh"

using namespace ipref;

int
main(int argc, char **argv)
{
    BenchContext ctx(argc, argv, 0.4);
    const std::vector<WorkloadKind> kinds = {WorkloadKind::DB,
                                             WorkloadKind::JAPP};

    struct Variant
    {
        std::string label;
        std::string scheme;
        unsigned degree;
        unsigned ways;
    };
    const std::vector<Variant> variants = {
        {"next-4-lines (tagged)", "n4l", 4, 2},
        {"lookahead-4", "lookahead", 4, 2},
        {"target (1 way)", "target", 1, 1},
        {"target (2 ways)", "target", 1, 2},
        {"target (4 ways)", "target", 1, 4},
        {"wrong-path", "wrong-path", 2, 2},
        {"call-graph [8]", "call-graph", 2, 2},
        {"discontinuity", "discontinuity", 4, 2},
    };

    // One batch: baselines first, then the variant grid (row-major).
    std::vector<RunSpec> specs;
    for (WorkloadKind k : kinds)
        specs.push_back(ctx.spec().cmp(true).workload(k).build());
    for (const auto &v : variants) {
        for (WorkloadKind k : kinds)
            specs.push_back(ctx.spec()
                                .cmp(true)
                                .workload(k)
                                .scheme(v.scheme)
                                .degree(v.degree)
                                .targetWays(v.ways)
                                .bypassL2()
                                .build());
    }
    std::vector<SimResults> results = ctx.run(specs);

    Table t("Ablation: related-work baselines (4-way CMP, with "
            "bypass)");
    std::vector<std::string> header = {"Scheme"};
    for (WorkloadKind k : kinds)
        for (const char *m : {"miss(norm)", "acc", "speedup"})
            header.push_back(std::string(workloadName(k)) + " " + m);
    t.header(header);

    std::size_t next = kinds.size();
    for (const auto &v : variants) {
        std::vector<std::string> row = {v.label};
        for (std::size_t wi = 0; wi < kinds.size(); ++wi) {
            const SimResults &r = results[next++];
            double base = results[wi].l1iMissPerInstr();
            row.push_back(Table::num(
                base > 0 ? r.l1iMissPerInstr() / base : 0.0, 3));
            row.push_back(Table::pct(r.pfAccuracy(), 1));
            row.push_back(
                Table::num(speedup(results[wi], r), 3) + "X");
        }
        t.row(row);
    }
    ctx.emit(t);
    return ctx.exitCode();
}
