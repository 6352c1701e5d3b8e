/**
 * @file
 * Ablation: prefetch-ahead distance N for the discontinuity
 * prefetcher. The paper settles on N=4 as the balance between
 * timeliness and accuracy (Section 4), with N=2 ("2NL") as the
 * bandwidth-friendly alternative (Figure 9). This sweep regenerates
 * that trade-off curve.
 */

#include "bench/bench_common.hh"

using namespace ipref;

int
main(int argc, char **argv)
{
    BenchContext ctx(argc, argv, 0.4);
    const std::vector<WorkloadKind> kinds = {WorkloadKind::DB,
                                             WorkloadKind::JAPP};
    const std::vector<unsigned> degrees = {1, 2, 3, 4, 6, 8};

    // One batch: baselines first, then the degree grid (row-major).
    std::vector<RunSpec> specs;
    for (WorkloadKind k : kinds)
        specs.push_back(ctx.spec().cmp(true).workload(k).build());
    for (unsigned n : degrees) {
        for (WorkloadKind k : kinds)
            specs.push_back(ctx.spec()
                                .cmp(true)
                                .workload(k)
                                .scheme("discontinuity")
                                .degree(n)
                                .bypassL2()
                                .build());
    }
    std::vector<SimResults> results = ctx.run(specs);

    Table t("Ablation: discontinuity prefetch-ahead distance N "
            "(4-way CMP, with bypass)");
    std::vector<std::string> header = {"N"};
    for (WorkloadKind k : kinds)
        for (const char *m : {"cov", "acc", "speedup"})
            header.push_back(std::string(workloadName(k)) + " " + m);
    t.header(header);

    std::size_t next = kinds.size();
    for (unsigned n : degrees) {
        std::vector<std::string> row = {std::to_string(n)};
        for (std::size_t wi = 0; wi < kinds.size(); ++wi) {
            const SimResults &r = results[next++];
            row.push_back(Table::pct(r.l1iCoverage(), 1));
            row.push_back(Table::pct(r.pfAccuracy(), 1));
            row.push_back(
                Table::num(speedup(results[wi], r), 3) + "X");
        }
        t.row(row);
    }
    ctx.emit(t);
    return ctx.exitCode();
}
