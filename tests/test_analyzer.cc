/**
 * @file
 * Analysis-toolchain tests: the Space-Saving heavy-hitter sketch
 * backing the fetch profiler, the offline trace analyzer, and the
 * golden end-to-end check that event-derived prefetch lifecycles
 * agree exactly with the simulator's own counters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analyzer.hh"
#include "prefetch/fetch_profiler.hh"
#include "sim/experiment.hh"
#include "util/json.hh"
#include "util/topk.hh"
#include "util/trace_event.hh"

using namespace ipref;

// --- Space-Saving sketch ---------------------------------------------

TEST(SpaceSaving, ExactBelowCapacity)
{
    SpaceSaving<int, std::uint64_t> sk(4);
    *sk.touch(1) += 10;
    *sk.touch(2) += 20;
    *sk.touch(1) += 5;
    EXPECT_EQ(sk.size(), 2u);
    EXPECT_EQ(sk.capacity(), 4u);
    EXPECT_EQ(sk.touches(), 3u);
    EXPECT_EQ(sk.replacements(), 0u);

    ASSERT_NE(sk.find(1), nullptr);
    EXPECT_EQ(*sk.find(1), 15u);
    EXPECT_EQ(sk.find(3), nullptr);

    auto top = sk.top();
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].key, 1);
    EXPECT_EQ(top[0].count, 2u);
    EXPECT_EQ(top[0].error, 0u); // exact while below capacity
    EXPECT_EQ(top[1].key, 2);
    EXPECT_EQ(top[1].count, 1u);
}

TEST(SpaceSaving, ReplacementEvictsMinAndInheritsError)
{
    SpaceSaving<int, std::uint64_t> sk(2);
    for (int i = 0; i < 5; ++i)
        sk.touch(1);
    for (int i = 0; i < 3; ++i)
        sk.touch(2);
    *sk.touch(2, 0) = 99; // set payload without counting

    // Table full: an untracked key replaces the minimum (key 2,
    // count 3), inheriting its count as the overestimation error.
    sk.touch(3);
    EXPECT_EQ(sk.size(), 2u);
    EXPECT_EQ(sk.replacements(), 1u);
    EXPECT_EQ(sk.find(2), nullptr);

    auto top = sk.top();
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].key, 1);
    EXPECT_EQ(top[0].count, 5u);
    EXPECT_EQ(top[1].key, 3);
    EXPECT_EQ(top[1].count, 4u); // 3 inherited + 1
    EXPECT_EQ(top[1].error, 3u);
    EXPECT_EQ(top[1].aux, 0u); // payload reset on recycle

    // 5 + 3 + 0 (weight-0 touch) + 1 touches over capacity 2.
    EXPECT_EQ(sk.touches(), 9u);
    EXPECT_EQ(sk.guaranteedFloor(), 4u);

    sk.clear();
    EXPECT_EQ(sk.size(), 0u);
    EXPECT_EQ(sk.touches(), 0u);
    EXPECT_EQ(sk.replacements(), 0u);
}

// --- concentration helper --------------------------------------------

TEST(Concentration, CountsLinesCoveringEachQuantile)
{
    Concentration c =
        lineConcentration({50, 30, 20}, {0.5, 0.8, 1.0});
    EXPECT_EQ(c.total, 100u);
    EXPECT_EQ(c.uniqueLines, 3u);
    ASSERT_EQ(c.points.size(), 3u);
    EXPECT_EQ(c.points[0].lines, 1u); // 50 covers 50%
    EXPECT_EQ(c.points[1].lines, 2u); // 50+30 covers 80%
    EXPECT_EQ(c.points[2].lines, 3u);

    // Order of the input counts must not matter.
    Concentration skew = lineConcentration({1, 97, 1, 1}, {0.9});
    ASSERT_EQ(skew.points.size(), 1u);
    EXPECT_EQ(skew.points[0].lines, 1u);
}

// --- trace parsing ----------------------------------------------------

TEST(TraceParse, EmptyAndBlankLines)
{
    std::istringstream is("\n   \n");
    EXPECT_TRUE(readTraceJsonLines(is).empty());
    TraceAnalysis a = analyze({});
    EXPECT_EQ(a.events, 0u);
    EXPECT_EQ(a.total.issued, 0u);
    EXPECT_EQ(a.issueToUseQuantile(0.5), 0u);
}

TEST(TraceParse, MalformedLineThrowsWithLineNumber)
{
    std::istringstream is(
        "{\"cycle\":1,\"type\":\"cache_miss\"}\nnot json\n");
    try {
        readTraceJsonLines(is);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
    }
}

// --- analyzer on a hand-built trace ----------------------------------

namespace
{

ParsedEvent
mkEvent(std::uint64_t cycle, const std::string &type, Addr addr,
        std::uint64_t arg = 0, std::uint8_t detail = 0, Addr pc = 0)
{
    ParsedEvent ev;
    ev.cycle = cycle;
    ev.type = type;
    ev.hasCore = true;
    ev.core = 0;
    ev.addr = addr;
    ev.arg = arg;
    ev.detail = detail;
    ev.pc = pc;
    return ev;
}

constexpr std::uint8_t kDisc =
    static_cast<std::uint8_t>(PrefetchOrigin::Discontinuity);

/** One miss, one useful discontinuity prefetch, one in-flight. */
std::vector<ParsedEvent>
syntheticTrace()
{
    return {
        mkEvent(50, "cache_miss", 0x3000, 0,
                traceDetailPack(traceLevelL1I, 0)),
        mkEvent(100, "prefetch_issue", 0x1000, 7, kDisc, 0x2000),
        mkEvent(250, "prefetch_useful", 0x1000, 7, kDisc),
        mkEvent(300, "prefetch_issue", 0x5000, 8, kDisc, 0x2000),
    };
}

} // namespace

TEST(TraceAnalyze, ReconstructsLifecyclesSitesAndEdges)
{
    TraceAnalysis a = analyze(syntheticTrace());
    EXPECT_EQ(a.events, 4u);
    EXPECT_EQ(a.firstCycle, 50u);
    EXPECT_EQ(a.lastCycle, 300u);

    EXPECT_EQ(a.l1iMisses, 1u);
    EXPECT_EQ(a.l1iMissByTransition[0], 1u);
    ASSERT_EQ(a.hotMissSites.size(), 1u);
    EXPECT_EQ(a.hotMissSites[0].line, 0x3000u);
    EXPECT_EQ(a.hotMissSites[0].misses, 1u);

    EXPECT_EQ(a.total.issued, 2u);
    EXPECT_EQ(a.total.useful, 1u);
    EXPECT_EQ(a.total.inFlight(), 1u);
    EXPECT_DOUBLE_EQ(a.total.accuracy(), 0.5);
    EXPECT_EQ(a.byOrigin[kDisc].issued, 2u);
    EXPECT_EQ(a.byOrigin[kDisc].useful, 1u);

    // Both issues share the trigger site 0x2000 → one edge per
    // (src, dst); the resolved one carries the useful credit.
    ASSERT_EQ(a.hotEdges.size(), 2u);
    for (const auto &e : a.hotEdges) {
        EXPECT_EQ(e.src, 0x2000u);
        EXPECT_EQ(e.tally.issued, 1u);
    }

    ASSERT_EQ(a.issueToUseCycles.size(), 1u);
    EXPECT_EQ(a.issueToUseCycles[0], 150u);
    EXPECT_EQ(a.issueToUseQuantile(0.5), 150u);
}

TEST(TraceAnalyze, IntervalCsvBucketsEvents)
{
    std::ostringstream os;
    writeIntervalCsv(syntheticTrace(), os, 4);
    std::istringstream lines(os.str());
    std::string header;
    ASSERT_TRUE(std::getline(lines, header));
    EXPECT_EQ(header,
              "cycle_start,cycle_end,l1i_misses,l1i_hits,pf_issued,"
              "pf_useful,pf_useless");
    std::string row;
    std::size_t rows = 0;
    while (std::getline(lines, row))
        ++rows;
    EXPECT_GE(rows, 2u);
    // All four events land somewhere: count issue markers.
    EXPECT_NE(os.str().find(",1,"), std::string::npos);
}

TEST(TraceAnalyze, ChromeTraceIsValidJson)
{
    std::ostringstream os;
    writeChromeTrace(syntheticTrace(), os);
    JsonValue v = parseJson(os.str());

    EXPECT_EQ(v.at("displayTimeUnit").str, "ns");
    const JsonValue &evs = v.at("traceEvents");
    ASSERT_EQ(evs.kind, JsonValue::Array);
    ASSERT_FALSE(evs.items.empty());

    bool sawComplete = false, sawInstant = false, sawMeta = false;
    bool sawInFlight = false;
    for (const JsonValue &ev : evs.items) {
        const std::string &ph = ev.at("ph").str;
        if (ph == "X") {
            EXPECT_TRUE(ev.has("ts"));
            EXPECT_TRUE(ev.has("dur"));
            EXPECT_TRUE(ev.has("pid"));
            EXPECT_TRUE(ev.has("tid"));
            if (ev.at("name").str == "useful") {
                sawComplete = true;
                EXPECT_EQ(ev.at("ts").number, 100);
                EXPECT_EQ(ev.at("dur").number, 150);
                EXPECT_EQ(ev.at("args").at("trigger").str, "0x2000");
            }
            if (ev.at("name").str == "in-flight")
                sawInFlight = true;
        } else if (ph == "i") {
            sawInstant = true;
            EXPECT_EQ(ev.at("ts").number, 50);
        } else if (ph == "M") {
            sawMeta = true;
        }
    }
    EXPECT_TRUE(sawComplete);
    EXPECT_TRUE(sawInstant);
    EXPECT_TRUE(sawMeta);
    EXPECT_TRUE(sawInFlight); // the unresolved issue still shows
}

// --- golden end-to-end ------------------------------------------------

namespace
{

/** RAII: tests must not leak the global trace sink's state. */
struct SinkGuard
{
    ~SinkGuard() { TraceSink::global().disable(); }
};

} // namespace

TEST(Golden, EventDerivedLifecycleMatchesSimulatorCounters)
{
    SinkGuard guard;

    RunSpec spec;
    spec.cmp = false;
    spec.workloads = {WorkloadKind::WEB};
    spec.schemeToken = "discontinuity";
    spec.instrScale = 0.1;
    SystemConfig cfg = makeConfig(spec);
    // Fresh-system window: no warm-up, so the lifecycle identity
    // issued == useful + useless + in_flight + dropped is exact and
    // the trace covers every issue the counters saw.
    cfg.warmupInstrs = 0;
    cfg.profileSites = 64;

    TraceSink::global().enable(1u << 20);
    System system(cfg);
    SimResults r = system.run();
    ASSERT_GT(r.pfIssued, 0u);
    ASSERT_EQ(TraceSink::global().dropped(), 0u)
        << "trace ring wrapped; exact cross-check impossible";

    std::ostringstream trace;
    TraceSink::global().writeJsonLines(trace);
    std::istringstream is(trace.str());
    TraceAnalysis a = analyze(readTraceJsonLines(is));

    // Event-derived totals vs the engines' lifecycle counters.
    std::uint64_t issued = 0, inFlight = 0, dropped = 0;
    for (unsigned c = 0; c < system.config().numCores; ++c) {
        PrefetchEngine::Lifecycle lc = system.engine(c).lifecycle();
        issued += lc.issued;
        inFlight += lc.inFlight;
        dropped += lc.dropped;
    }
    EXPECT_EQ(a.total.issued, issued);
    EXPECT_EQ(a.total.issued, r.pfIssued);
    EXPECT_EQ(a.total.replaced, dropped);
    EXPECT_EQ(a.total.inFlight(), inFlight);

    // Per-origin issue attribution must agree exactly.
    for (std::size_t i = 0; i < a.byOrigin.size(); ++i)
        EXPECT_EQ(a.byOrigin[i].issued, r.pfIssuedByOrigin[i])
            << originName(static_cast<PrefetchOrigin>(i));
    EXPECT_GT(a.byOrigin[static_cast<std::size_t>(
                  PrefetchOrigin::Discontinuity)].issued,
              0u);

    // The canonical cross-check against the full JSON report — the
    // same comparison tools/ipref_analyze.cc --stats performs.
    std::ostringstream rep;
    system.dumpJson(rep);
    JsonValue report = parseJson(rep.str());
    CrossCheck cc = crossCheck(a, report);
    EXPECT_TRUE(cc.ok);
    for (const std::string &m : cc.mismatches)
        ADD_FAILURE() << "cross-check mismatch: " << m;

    // It cannot pass vacuously: a counter off by one, or a report
    // without its counters, is a mismatch.
    JsonValue offByOne = report;
    offByOne.fields["results"].fields["pf_issued"].str =
        jsonHex(r.pfIssued + 1);
    CrossCheck off = crossCheck(a, offByOne);
    EXPECT_FALSE(off.ok);
    ASSERT_EQ(off.mismatches.size(), 1u);
    EXPECT_EQ(off.mismatches[0].rfind("issued: ", 0), 0u)
        << off.mismatches[0];
    JsonValue noResults = report;
    noResults.fields.erase("results");
    CrossCheck none = crossCheck(a, noResults);
    EXPECT_FALSE(none.ok);
    ASSERT_EQ(none.mismatches.size(), 1u);
    EXPECT_EQ(none.mismatches[0], "results: missing from the report");

    // Fig.-3 style breakdown: every L1I miss carries a transition.
    EXPECT_GT(a.l1iMisses, 0u);
    std::uint64_t byTransition = 0;
    for (auto v : a.l1iMissByTransition)
        byTransition += v;
    EXPECT_EQ(byTransition, a.l1iMisses);
    EXPECT_FALSE(a.hotMissSites.empty());

    // Timeliness distribution is populated and ordered.
    ASSERT_FALSE(a.issueToUseCycles.empty());
    EXPECT_TRUE(std::is_sorted(a.issueToUseCycles.begin(),
                               a.issueToUseCycles.end()));
    EXPECT_LE(a.issueToUseQuantile(0.5), a.issueToUseQuantile(0.99));

    // The in-simulator profiler saw the same run.
    const FetchProfiler *fp = system.profiler();
    ASSERT_NE(fp, nullptr);
    EXPECT_GT(fp->missesAttributed.value(), 0u);
    EXPECT_EQ(fp->issuesAttributed.value(), r.pfIssued);
    EXPECT_FALSE(fp->sites().top(1).empty());
    EXPECT_GT(fp->sites().top(1)[0].count, 0u);

    // The Chrome export of a real run parses as one JSON object.
    std::istringstream is2(trace.str());
    std::vector<ParsedEvent> evs = readTraceJsonLines(is2);
    std::ostringstream chrome;
    writeChromeTrace(evs, chrome);
    JsonValue cv = parseJson(chrome.str());
    EXPECT_FALSE(cv.at("traceEvents").items.empty());
}
