/**
 * @file
 * Offline trace analyzer: consume a simulator JSON-lines event trace
 * (--trace-events / --trace-out) and report what the front end was
 * doing — hot miss sites, mispredicting discontinuity edges, the
 * miss-class breakdown, per-origin prefetch accuracy and timeliness —
 * plus optional exports: an interval timeline CSV and a
 * Chrome-trace-format file loadable in Perfetto (ui.perfetto.dev).
 *
 * With --stats, the event-derived lifecycle is cross-checked against
 * the simulator's own counters (--stats-json report); any mismatch is
 * reported and the exit status is non-zero, which makes the tool a
 * consistency check for CI as well as an analysis aid.
 *
 * Usage:
 *   ipref_analyze --trace trace_events.jsonl [--stats report.json]
 *                 [--run N] [--top N] [--csv intervals.csv]
 *                 [--buckets N] [--chrome chrome_trace.json]
 *
 * A malformed flag value (`--top abc`) ends the program with exit
 * status 1 and an `error (<kind>): <what>` line naming the flag.
 */

#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "analysis/analyzer.hh"
#include "util/error.hh"
#include "util/logging.hh"
#include "util/options.hh"

using namespace ipref;

namespace
{

void
printSummary(const TraceAnalysis &a, std::size_t topN)
{
    std::cout << "events: " << a.events << "  cycles: ["
              << a.firstCycle << ", " << a.lastCycle << "]\n";
    std::cout << "L1I: " << a.l1iHits << " hits, " << a.l1iMisses
              << " misses (" << a.l2iMisses << " reached memory)\n";

    std::uint64_t classified = 0;
    for (auto v : a.l1iMissByTransition)
        classified += v;
    if (classified > 0) {
        std::cout << "\nmiss-class breakdown (of " << classified
                  << " classified L1I misses):\n";
        for (std::size_t i = 0; i < a.l1iMissByTransition.size();
             ++i) {
            if (a.l1iMissByTransition[i] == 0)
                continue;
            std::cout << "  " << std::setw(14) << std::left
                      << transitionName(
                             static_cast<FetchTransition>(i))
                      << std::right << std::setw(10)
                      << a.l1iMissByTransition[i] << "  ("
                      << std::fixed << std::setprecision(1)
                      << 100.0 *
                             static_cast<double>(
                                 a.l1iMissByTransition[i]) /
                             static_cast<double>(classified)
                      << "%)\n";
        }
    }

    if (!a.hotMissSites.empty()) {
        std::cout << "\nhot miss sites (top " << topN << " of "
                  << a.hotMissSites.size() << "):\n";
        for (std::size_t i = 0;
             i < std::min(topN, a.hotMissSites.size()); ++i) {
            const TraceAnalysis::Site &s = a.hotMissSites[i];
            std::cout << "  0x" << std::hex << s.line << std::dec
                      << "  " << s.misses << " misses\n";
        }
        std::vector<std::uint64_t> counts;
        counts.reserve(a.hotMissSites.size());
        for (const auto &s : a.hotMissSites)
            counts.push_back(s.misses);
        Concentration c =
            lineConcentration(std::move(counts), {0.5, 0.9, 0.99});
        std::cout << "miss concentration: " << c.total
                  << " misses over " << c.uniqueLines
                  << " unique lines\n";
        for (const auto &p : c.points)
            std::cout << "  " << p.quantile * 100 << "% of misses from "
                      << p.lines << " lines\n";
    }

    if (!a.hotEdges.empty()) {
        std::cout << "\nhot discontinuity edges (top " << topN
                  << " of " << a.hotEdges.size()
                  << ", by useless prefetches):\n";
        for (std::size_t i = 0; i < std::min(topN, a.hotEdges.size());
             ++i) {
            const TraceAnalysis::Edge &e = a.hotEdges[i];
            std::cout << "  0x" << std::hex << e.src << " -> 0x"
                      << e.dst << std::dec << "  issued "
                      << e.tally.issued << "  useful "
                      << e.tally.useful << "  useless "
                      << e.tally.useless << "\n";
        }
    }

    if (std::uint64_t stallTotal = a.stallCycleTotal()) {
        std::cout << "\nfetch-stall breakdown (event-derived, "
                  << stallTotal << " stall cycles):\n";
        for (std::size_t b = 1; b < kNumCycleBuckets; ++b) {
            if (a.stallCycles[b] == 0)
                continue;
            std::cout << "  " << std::setw(16) << std::left
                      << cycleBucketName(static_cast<CycleBucket>(b))
                      << std::right << std::setw(10)
                      << a.stallCycles[b] << " cycles in "
                      << std::setw(8) << a.stallEpisodes[b]
                      << " episodes  (" << std::fixed
                      << std::setprecision(1)
                      << 100.0 *
                             static_cast<double>(a.stallCycles[b]) /
                             static_cast<double>(stallTotal)
                      << "%)\n";
        }
    }

    if (a.total.issued > 0) {
        std::cout << "\nprefetch lifecycles (event-derived):\n";
        auto row = [](const std::string &name,
                      const LifecycleTally &t) {
            std::cout << "  " << std::setw(14) << std::left << name
                      << std::right << "issued " << std::setw(8)
                      << t.issued << "  useful " << std::setw(8)
                      << t.useful << "  useless " << std::setw(8)
                      << t.useless << "  replaced " << std::setw(6)
                      << t.replaced << "  in-flight " << std::setw(6)
                      << t.inFlight() << "  accuracy " << std::fixed
                      << std::setprecision(3) << t.accuracy() << "\n";
        };
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(PrefetchOrigin::NumOrigins);
             ++i) {
            if (a.byOrigin[i].issued == 0)
                continue;
            row(originName(static_cast<PrefetchOrigin>(i)),
                a.byOrigin[i]);
        }
        row("total", a.total);
        if (!a.issueToUseCycles.empty()) {
            std::cout << "timeliness (issue-to-use cycles, "
                      << a.issueToUseCycles.size()
                      << " samples): p50 "
                      << a.issueToUseQuantile(0.5) << "  p90 "
                      << a.issueToUseQuantile(0.9) << "  p99 "
                      << a.issueToUseQuantile(0.99) << "  max "
                      << a.issueToUseCycles.back() << "\n";
        }
    }
}

} // namespace

int
main(int argc, char **argv)
try {
    Options opts(argc, argv);
    std::string tracePath =
        opts.getString("trace", "trace_events.jsonl");
    std::size_t topN = opts.getUint("top", 10);

    std::vector<ParsedEvent> events;
    try {
        events = loadTrace(tracePath);
    } catch (const std::exception &e) {
        ipref_fatal("%s", e.what());
    }
    TraceAnalysis a = analyze(events);
    std::cout << "trace: " << tracePath << "\n";
    printSummary(a, topN);

    if (opts.has("csv")) {
        std::string path = opts.getString("csv");
        std::ofstream out(path);
        if (!out)
            ipref_fatal("cannot write CSV to '%s'", path.c_str());
        writeIntervalCsv(events, out, opts.getUint("buckets", 50));
        std::cout << "\ninterval timeline written to " << path << "\n";
    }

    if (opts.has("chrome")) {
        std::string path = opts.getString("chrome");
        std::ofstream out(path);
        if (!out)
            ipref_fatal("cannot write Chrome trace to '%s'",
                        path.c_str());
        writeChromeTrace(events, out);
        std::cout << "Chrome trace written to " << path
                  << " (load at ui.perfetto.dev)\n";
    }

    int rc = 0;
    if (opts.has("stats")) {
        std::string path = opts.getString("stats");
        std::ifstream in(path);
        if (!in)
            ipref_fatal("cannot read stats report '%s'", path.c_str());
        std::ostringstream buf;
        buf << in.rdbuf();
        JsonValue doc;
        try {
            doc = parseJson(buf.str());
        } catch (const std::exception &e) {
            ipref_fatal("stats report '%s': %s", path.c_str(),
                        e.what());
        }
        // --stats-json files are arrays of per-run reports plus an
        // optional trailing campaign-summary document (no "results"
        // section); --run selects one report (default: the last
        // per-run report, matching the trace tail).
        const JsonValue *report = &doc;
        if (doc.kind == JsonValue::Array) {
            if (doc.items.empty())
                ipref_fatal("stats report '%s' is empty",
                            path.c_str());
            std::size_t lastRun = doc.items.size();
            for (std::size_t i = doc.items.size(); i-- > 0;) {
                if (doc.items[i].has("results")) {
                    lastRun = i;
                    break;
                }
            }
            if (lastRun == doc.items.size())
                ipref_fatal("stats report '%s' has no per-run "
                            "reports", path.c_str());
            std::size_t idx = opts.getUint("run", lastRun);
            if (idx >= doc.items.size())
                ipref_fatal("--run %zu out of range (%zu reports)",
                            idx, doc.items.size());
            report = &doc.items[idx];
        }
        // Identify the run by its registry scheme token (the stable
        // machine name; the display name may change), plus any knobs.
        if (report->has("config")) {
            const JsonValue &c = report->at("config");
            if (c.has("scheme_token")) {
                std::cout << "\nreport scheme: "
                          << c.at("scheme_token").str;
                if (!c.stringOr("scheme_knobs", "").empty())
                    std::cout << ":" << c.at("scheme_knobs").str;
                if (c.has("workload"))
                    std::cout << "  workload: "
                              << c.at("workload").str;
                std::cout << "\n";
            }
        }
        CrossCheck cc = crossCheck(a, *report);
        std::cout << "\ncross-check vs " << path << ": "
                  << (cc.ok ? "OK (event-derived lifecycle matches "
                              "simulator counters)"
                            : "MISMATCH")
                  << "\n";
        for (const std::string &m : cc.mismatches)
            std::cout << "  " << m << "\n";
        if (!cc.ok)
            rc = 1;
    }
    return rc;
} catch (const SimError &e) {
    std::cerr << "error (" << errorKindName(e.kind()) << "): " << e.what()
              << "\n";
    return 1;
}
