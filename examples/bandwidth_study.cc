/**
 * @file
 * Domain example: off-chip bandwidth sensitivity.
 *
 * Section 5 of the paper fixes 20 GB/s for the 4-way CMP and notes
 * the contemporary range (IBM POWER5 ~25 GB/s, HP Itanium ~4 GB/s).
 * Aggressive prefetching trades bandwidth for latency, so the win of
 * the discontinuity prefetcher — and the appeal of the more accurate
 * 2NL variant — depends on how constrained the channel is. This
 * example sweeps the channel bandwidth and reports the trade-off.
 *
 * Usage:
 *   bandwidth_study [--workload db] [--scale X] [--jobs N]
 */

#include <iostream>

#include "sim/experiment.hh"
#include "util/options.hh"
#include "util/table.hh"

using namespace ipref;

int
main(int argc, char **argv)
try {
    Options opts(argc, argv);
    WorkloadKind kind =
        parseWorkloadKind(opts.getString("workload", "db"));
    double scale = opts.getDouble("scale", 0.5);
    unsigned jobs = static_cast<unsigned>(opts.getUint("jobs", 0));

    std::cout << "Off-chip bandwidth sensitivity ("
              << workloadName(kind)
              << ", 4-way CMP, discontinuity + bypass)\n\n";

    const std::vector<double> channels = {4.0, 10.0, 20.0, 25.0,
                                          40.0};
    struct Variant
    {
        std::string scheme;
        unsigned degree;
    };
    const std::vector<Variant> variants = {
        {"none", 4},
        {"discontinuity", 4},
        {"discontinuity", 2},
    };

    // One batch: bandwidth-major, {base, disc-4, disc-2} per point.
    std::vector<RunSpec> specs;
    for (double gbps : channels) {
        for (const auto &v : variants)
            specs.push_back(
                RunSpec::builder()
                    .cmp(true)
                    .workload(kind)
                    .scheme(v.scheme)
                    .degree(v.degree)
                    .bypassL2(v.scheme != "none")
                    .instrScale(scale)
                    .memGbPerSec(gbps)
                    .build());
    }
    BatchOptions batch;
    batch.jobs = jobs;
    batch.maxAttempts = 1;
    std::vector<SimResults> results;
    for (const RunOutcome &o : runBatch(specs, batch)) {
        if (!o.ok())
            throw SimError(o.errorKind, o.error);
        results.push_back(o.results);
    }

    Table t("speedup and prefetch behaviour vs channel bandwidth");
    t.header({"GB/s", "base IPC", "disc speedup", "2NL speedup",
              "disc late pf", "disc queue delay/read"});

    std::size_t next = 0;
    for (double gbps : channels) {
        const SimResults &base = results[next++];
        const SimResults &d4 = results[next++];
        const SimResults &d2 = results[next++];
        double late_frac =
            d4.pfUseful ? static_cast<double>(d4.pfLate) /
                              static_cast<double>(d4.pfUseful)
                        : 0.0;
        t.row({Table::num(gbps, 0), Table::num(base.ipc, 3),
               Table::num(base.ipc > 0 ? d4.ipc / base.ipc : 0, 3) +
                   "X",
               Table::num(base.ipc > 0 ? d2.ipc / base.ipc : 0, 3) +
                   "X",
               Table::pct(late_frac, 1),
               Table::num(d4.memReads
                              ? static_cast<double>(
                                    d4.memQueueDelayCycles) /
                                    static_cast<double>(d4.memReads)
                              : 0.0,
                          1)});
    }
    t.print(std::cout);
    std::cout << "\nLower bandwidth exposes prefetch queueing: the "
                 "more accurate 2NL variant closes on (or passes) "
                 "the 4-line configuration as GB/s falls.\n";
    return 0;
} catch (const SimError &e) {
    std::cerr << "error (" << errorKindName(e.kind())
              << "): " << e.what() << "\n";
    return 1;
}
