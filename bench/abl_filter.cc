/**
 * @file
 * Ablation: the Section 4.1 filtering machinery — recent-demand-fetch
 * history depth and prefetch queue capacity. The paper argues that
 * filtering removes most useless tag probes ("up to 90% of prefetch
 * tag accesses issue") with minor performance impact; this sweep
 * regenerates that claim.
 */

#include "bench/bench_common.hh"

using namespace ipref;

int
main(int argc, char **argv)
{
    BenchContext ctx(argc, argv, 0.4);

    struct Cfg
    {
        int history;
        int queue;
    };
    const std::vector<Cfg> cfgs = {{0, 32},  {8, 32},  {32, 32},
                                   {128, 32}, {32, 8},  {32, 64},
                                   {32, 128}};

    // One batch: the no-prefetch baseline plus every filter config.
    std::vector<RunSpec> specs;
    RunSpec base_spec =
        ctx.spec().cmp(true).workload(WorkloadKind::DB).build();
    specs.push_back(base_spec);
    for (Cfg c : cfgs)
        specs.push_back(RunSpec::Builder(base_spec)
                            .scheme("discontinuity")
                            .bypassL2()
                            .historySize(c.history)
                            .queueSize(c.queue)
                            .build());
    std::vector<SimResults> results = ctx.run(specs);
    const SimResults &base = results[0];

    Table t("Ablation: filter history depth / queue capacity "
            "(DB, 4-way CMP, discontinuity + bypass)");
    t.header({"history", "queue", "tag probes/1k instr",
              "probe hit rate", "filtered/1k", "accuracy",
              "speedup"});

    std::size_t next = 1;
    for (Cfg c : cfgs) {
        const SimResults &r = results[next++];
        double per_k =
            1000.0 / static_cast<double>(r.instructions);
        t.row({std::to_string(c.history), std::to_string(c.queue),
               Table::num(static_cast<double>(r.pfTagProbes) * per_k,
                          2),
               Table::pct(r.pfTagProbes
                              ? static_cast<double>(
                                    r.pfTagProbeHits) /
                                    static_cast<double>(
                                        r.pfTagProbes)
                              : 0.0,
                          1),
               Table::num(static_cast<double>(r.pfFiltered) * per_k,
                          2),
               Table::pct(r.pfAccuracy(), 1),
               Table::num(speedup(base, r), 3) + "X"});
    }
    ctx.emit(t);
    return ctx.exitCode();
}
