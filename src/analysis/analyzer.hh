/**
 * @file
 * Offline trace analysis: parse the simulator's JSON-lines event
 * trace (util/trace_event.hh writers) and reconstruct what happened —
 * hot miss sites, mispredicting discontinuity edges, the Fig.-3 style
 * miss-class breakdown, per-origin prefetch lifecycles (accuracy,
 * coverage, timeliness) — entirely from events, so results can be
 * cross-checked against the simulator's own lifecycle counters.
 *
 * Consumed by tools/ipref_analyze.cc, the examples and the tests.
 * Everything here is cold-path code: it never runs inside a
 * simulation loop.
 */

#ifndef IPREF_ANALYSIS_ANALYZER_HH
#define IPREF_ANALYSIS_ANALYZER_HH

#include <array>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "prefetch/prefetcher.hh"
#include "sim/cycle_ledger.hh"
#include "trace/record.hh"
#include "util/json.hh"
#include "util/types.hh"

namespace ipref
{

/** One trace event parsed back from a JSON line. */
struct ParsedEvent
{
    std::uint64_t cycle = 0;
    std::string type;
    bool hasCore = false;      //!< false when the line carried null
    std::uint16_t core = 0;
    Addr addr = 0;
    Addr pc = 0;               //!< triggering site (0 = not recorded)
    std::uint64_t arg = 0;
    std::uint8_t detail = 0;
};

/**
 * Parse a JSON-lines event stream (one object per line; blank lines
 * ignored). Throws std::runtime_error on malformed input.
 */
std::vector<ParsedEvent> readTraceJsonLines(std::istream &is);

/** readTraceJsonLines() over a file; throws if unreadable. */
std::vector<ParsedEvent> loadTrace(const std::string &path);

/** Issue/resolution tally of one prefetch population. */
struct LifecycleTally
{
    std::uint64_t issued = 0;
    std::uint64_t useful = 0;
    std::uint64_t useless = 0;
    std::uint64_t replaced = 0; //!< superseded by a re-issue

    /** Issues never seen resolving inside the trace window. */
    std::uint64_t
    inFlight() const
    {
        std::uint64_t done = useful + useless + replaced;
        return issued > done ? issued - done : 0;
    }

    double
    accuracy() const
    {
        return issued ? static_cast<double>(useful) /
                            static_cast<double>(issued)
                      : 0.0;
    }
};

/** Everything analyze() reconstructs from one event stream. */
struct TraceAnalysis
{
    std::uint64_t events = 0;
    std::uint64_t firstCycle = 0;
    std::uint64_t lastCycle = 0;

    /** Demand L1I misses by CTI transition class (Fig. 3 axis). */
    std::array<std::uint64_t,
               static_cast<std::size_t>(FetchTransition::NumTransitions)>
        l1iMissByTransition{};
    std::uint64_t l1iMisses = 0;
    std::uint64_t l1iHits = 0;
    std::uint64_t l2iMisses = 0;

    /** A fetch line ranked by demand misses observed there. */
    struct Site
    {
        Addr line = 0;
        std::uint64_t misses = 0;
        std::array<std::uint64_t,
                   static_cast<std::size_t>(
                       FetchTransition::NumTransitions)>
            byTransition{};
    };
    std::vector<Site> hotMissSites; //!< sorted by misses, descending

    /** A discontinuity edge ranked by wasted (useless) prefetches. */
    struct Edge
    {
        Addr src = 0;
        Addr dst = 0;
        LifecycleTally tally;
    };
    std::vector<Edge> hotEdges; //!< sorted by useless, descending

    /** Per-origin lifecycles (index = PrefetchOrigin), plus total. */
    std::array<LifecycleTally,
               static_cast<std::size_t>(PrefetchOrigin::NumOrigins)>
        byOrigin{};
    LifecycleTally total;

    /**
     * CPI-stack reconstruction from fetch_stall episode events:
     * cycles and episode counts per CycleBucket. Busy cycles are
     * never traced (only stall episodes are), so index 0 stays zero
     * here — busy is derived as cycles * cores minus all stalls when
     * cross-checking against a simulator report.
     */
    std::array<std::uint64_t, kNumCycleBuckets> stallCycles{};
    std::array<std::uint64_t, kNumCycleBuckets> stallEpisodes{};

    /** Sum of every traced stall bucket (everything but busy). */
    std::uint64_t
    stallCycleTotal() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t v : stallCycles)
            sum += v;
        return sum;
    }

    /** Issue-to-useful latencies of resolved prefetches (cycles). */
    std::vector<std::uint64_t> issueToUseCycles; //!< sorted ascending

    std::uint64_t
    issueToUseQuantile(double q) const
    {
        if (issueToUseCycles.empty())
            return 0;
        double idx = q * static_cast<double>(issueToUseCycles.size() -
                                             1);
        return issueToUseCycles[static_cast<std::size_t>(idx)];
    }
};

/** Reconstruct a TraceAnalysis from parsed events. */
TraceAnalysis analyze(const std::vector<ParsedEvent> &events);

/**
 * Working-set concentration: given per-line counts (any order), how
 * many lines cover each quantile of the total. Shared by the
 * trace_tools example and the analyzer report.
 */
struct Concentration
{
    std::uint64_t total = 0;   //!< sum of all counts
    std::size_t uniqueLines = 0;
    struct Point
    {
        double quantile = 0.0;
        std::size_t lines = 0; //!< hottest lines covering it
    };
    std::vector<Point> points;
};

Concentration lineConcentration(std::vector<std::uint64_t> counts,
                                const std::vector<double> &quantiles);

/**
 * Interval timeline CSV: bucket the event stream into @p buckets
 * equal cycle windows and emit one row per window (cycle_start,
 * l1i_misses, pf_issued, pf_useful, pf_useless).
 */
void writeIntervalCsv(const std::vector<ParsedEvent> &events,
                      std::ostream &os, std::size_t buckets = 50);

/**
 * Chrome-trace-format (Perfetto-loadable) export: prefetch
 * lifecycles become complete ("X") slices from issue to resolution
 * (pid = core, tid = origin), demand L1I misses become instant ("i")
 * events. One JSON object with a "traceEvents" array.
 */
void writeChromeTrace(const std::vector<ParsedEvent> &events,
                      std::ostream &os);

/** Event-derived vs simulator-reported counter comparison. */
struct CrossCheck
{
    bool ok = true;
    std::vector<std::string> mismatches; //!< human-readable diffs
};

/**
 * Compare the lifecycle totals, per-origin issued/useful and (timing
 * runs) the CPI stack of @p analysis against one simulator JSON
 * report (an element of the --stats-json array: its "results"
 * counters and "prefetch" engine state). A counter the report lacks
 * is a mismatch. Exact agreement is expected when the trace ring did
 * not wrap and the report covers the same window as the trace.
 */
CrossCheck crossCheck(const TraceAnalysis &analysis,
                      const JsonValue &report);

} // namespace ipref

#endif // IPREF_ANALYSIS_ANALYZER_HH
