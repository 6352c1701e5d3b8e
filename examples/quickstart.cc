/**
 * @file
 * Quickstart: build a paper-default system, run it, print results.
 *
 * Usage:
 *   quickstart [--workload db|tpcw|japp|web|mixed] [--cores 1|4]
 *              [--scheme none|nl-miss|nl-tagged|n4l|discontinuity]
 *              [--bypass] [--functional] [--scale X] [--stats]
 *              [--stats-json FILE] [--stats-interval N]
 *              [--trace-events N] [--trace-out FILE]
 *              [--profile-sites K]
 *              [--metrics-interval-ms N] [--metrics-out FILE]
 */

#include <fstream>
#include <iostream>

#include "prefetch/fetch_profiler.hh"
#include "sim/experiment.hh"
#include "util/metrics.hh"
#include "util/options.hh"
#include "util/trace_event.hh"

using namespace ipref;

int
main(int argc, char **argv)
try {
    Options opts(argc, argv);

    ObservabilityOptions obs;
    obs.jsonPath = opts.getString("stats-json");
    obs.intervalInstrs = opts.getUint("stats-interval", 0);
    obs.traceCapacity = opts.getUint("trace-events", 0);
    obs.tracePath = opts.getString("trace-out", "trace_events.jsonl");
    obs.profileSites = opts.getUint("profile-sites", 0);
    setObservability(obs);

    metrics::MetricsOptions mopts;
    mopts.intervalMs = opts.getUint("metrics-interval-ms", 0);
    mopts.jsonlPath = opts.getString("metrics-out");
    metrics::configureMetrics(mopts);

    RunSpec::Builder builder =
        RunSpec::builder()
            .cmp(opts.getInt("cores", 4) == 4)
            .trace(TraceSpec::workloadPreset(
                opts.getString("workload", "db")))
            .scheme(opts.getString("scheme", "none"))
            .bypassL2(opts.getBool("bypass"))
            .functional(opts.getBool("functional"))
            .instrScale(opts.getDouble("scale", 1.0));
    // Only explicit flags override --scheme knobs (a bare default
    // here would clobber e.g. --scheme isb:degree=6).
    if (opts.has("degree"))
        builder.degree(
            static_cast<unsigned>(opts.getInt("degree", 4)));
    if (opts.has("table"))
        builder.tableEntries(
            static_cast<unsigned>(opts.getInt("table", 8192)));
    RunSpec spec = builder.build();

    System system(makeConfig(spec));
    SimResults r = system.run();

    std::cout << "workload: " << system.config().workloadSetName()
              << "  cores: " << system.config().numCores
              << "  scheme: "
              << schemeDisplayName(system.config().prefetch)
              << (spec.bypassL2 ? " +bypass" : "") << "\n";
    std::cout << "instructions: " << r.instructions
              << "  cycles: " << r.cycles << "  IPC: " << r.ipc
              << "\n";
    std::cout << "L1I miss/instr: " << r.l1iMissPerInstr() * 100
              << "%  L2I miss/instr: " << r.l2iMissPerInstr() * 100
              << "%  L2D miss/instr: " << r.l2dMissPerInstr() * 100
              << "%\n";
    std::cout << "prefetch: issued " << r.pfIssued << " useful "
              << r.pfUseful << " accuracy " << r.pfAccuracy() * 100
              << "%  L1I coverage " << r.l1iCoverage() * 100
              << "%\n";
    for (std::size_t i = 0; i < r.pfIssuedByOrigin.size(); ++i) {
        if (r.pfIssuedByOrigin[i] == 0)
            continue;
        std::cout << "  "
                  << originName(static_cast<PrefetchOrigin>(i))
                  << ": issued " << r.pfIssuedByOrigin[i]
                  << " useful " << r.pfUsefulByOrigin[i] << "\n";
    }
    TimelinessSummary t = system.timeliness();
    if (t.count > 0) {
        std::cout << "timeliness (issue-to-use cycles): mean "
                  << t.meanCycles << "  p50 " << t.p50Cycles
                  << "  p90 " << t.p90Cycles << "  max "
                  << t.maxCycles << "\n";
    }
    std::cout << "branch MPKI: "
              << (r.instructions
                      ? 1000.0 * static_cast<double>(
                                     r.branchMispredicts) /
                            static_cast<double>(r.instructions)
                      : 0.0)
              << "\n";
    std::cout << "miss breakdown (L1I): ";
    std::uint64_t total = 0;
    for (auto v : r.l1iMissByTransition)
        total += v;
    for (std::size_t i = 0; i < r.l1iMissByTransition.size(); ++i) {
        if (r.l1iMissByTransition[i] == 0)
            continue;
        std::cout << transitionName(static_cast<FetchTransition>(i))
                  << "="
                  << 100.0 * static_cast<double>(
                                 r.l1iMissByTransition[i]) /
                         static_cast<double>(total ? total : 1)
                  << "% ";
    }
    std::cout << "\n";

    const PhaseProfile &prof = system.profile();
    std::cout << "sim speed: " << prof.measureInstrsPerSec() / 1e6
              << " Minstr/s (warm-up " << prof.warmupSeconds
              << "s, measure " << prof.measureSeconds << "s)\n";
    if (system.config().statsIntervalInstrs > 0)
        std::cout << "interval samples: " << system.samples().size()
                  << " (every "
                  << system.config().statsIntervalInstrs
                  << " instrs)\n";

    if (const FetchProfiler *fp = system.profiler()) {
        std::cout << "hot fetch sites:";
        for (const auto &e : fp->sites().top(4))
            std::cout << " 0x" << std::hex << e.key << std::dec << " ("
                      << e.aux.misses << "m/" << e.aux.pfIssued
                      << "pf)";
        std::cout << "\n";
    }

    if (opts.getBool("stats"))
        system.dumpStats(std::cout);

    if (!obs.jsonPath.empty()) {
        commitSystemReport(system);
        flushObservability();
        std::cout << "JSON report written to " << obs.jsonPath
                  << "\n";
    }
    if (const TraceSink *sink = system.traceSink();
        sink && !obs.tracePath.empty()) {
        std::ofstream lines(obs.tracePath);
        sink->writeJsonLines(lines);
        std::cout << "trace events written to " << obs.tracePath
                  << " (" << sink->size() << " of "
                  << sink->recorded() << " recorded)\n";
    }
    return 0;
} catch (const SimError &e) {
    std::cerr << "error (" << errorKindName(e.kind())
              << "): " << e.what() << "\n";
    return 1;
}
