/**
 * @file
 * Ablation: tag-probe filtering vs the confidence filter of [15].
 *
 * The paper (Section 2.4) describes the confidence alternative as a
 * way to avoid duplicating the I-cache tags entirely; this bench
 * compares tag-port pressure, accuracy and performance of the two
 * approaches on the discontinuity prefetcher.
 */

#include "bench/bench_common.hh"

using namespace ipref;

int
main(int argc, char **argv)
{
    BenchContext ctx(argc, argv, 0.4);

    const std::vector<WorkloadKind> kinds = {WorkloadKind::DB,
                                             WorkloadKind::JAPP};

    // One batch: per workload, the no-prefetch baseline then the
    // tag-probe and confidence variants.
    std::vector<RunSpec> specs;
    for (WorkloadKind k : kinds) {
        RunSpec base_spec =
            ctx.spec().cmp(true).workload(k).build();
        specs.push_back(base_spec);
        for (bool confidence : {false, true})
            specs.push_back(RunSpec::Builder(base_spec)
                                .scheme("discontinuity")
                                .bypassL2()
                                .confidenceFilter(confidence)
                                .build());
    }
    std::vector<SimResults> results = ctx.run(specs);

    Table t("Ablation: tag probing vs confidence filter "
            "(discontinuity + bypass, 4-way CMP)");
    t.header({"Workload", "mode", "tag probes/1k", "suppressed/1k",
              "issued/1k", "coverage", "accuracy", "speedup"});

    std::size_t next = 0;
    for (WorkloadKind k : kinds) {
        const SimResults &base = results[next++];
        for (bool confidence : {false, true}) {
            const SimResults &r = results[next++];
            double per_k =
                1000.0 / static_cast<double>(r.instructions);
            std::uint64_t suppressed =
                r.pfCandidates - r.pfFiltered - r.pfIssued;
            t.row({workloadName(k),
                   confidence ? "confidence [15]" : "tag probe",
                   Table::num(static_cast<double>(r.pfTagProbes) *
                                  per_k,
                              2),
                   Table::num(static_cast<double>(suppressed) *
                                  per_k,
                              2),
                   Table::num(static_cast<double>(r.pfIssued) *
                                  per_k,
                              2),
                   Table::pct(r.l1iCoverage(), 1),
                   Table::pct(r.pfAccuracy(), 1),
                   Table::num(speedup(base, r), 3) + "X"});
        }
    }
    ctx.emit(t);
    return ctx.exitCode();
}
