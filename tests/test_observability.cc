/**
 * @file
 * Observability-layer tests: trace-event ring semantics, JSON
 * round-trips (stats tree and full system report), prefetch
 * lifecycle reconciliation and interval sampling.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "scheme_params.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "util/json.hh"
#include "util/stats.hh"
#include "util/trace_event.hh"

using namespace ipref;

namespace
{

/** RAII reset so tests don't leak trace/observability state. */
struct ObservabilityGuard
{
    ~ObservabilityGuard() { setObservability(ObservabilityOptions{}); }
};

} // namespace

// --- trace sink ------------------------------------------------------

TEST(TraceSink, DisabledRecordsNothing)
{
    TraceSink sink;
    sink.record(TraceEventType::CacheMiss, 0, 0x1000, 0, 0, 5);
    EXPECT_EQ(sink.recorded(), 0u);
    EXPECT_EQ(sink.size(), 0u);
}

TEST(TraceSink, RecordsInOrder)
{
    TraceSink sink;
    sink.enable(16);
    for (std::uint64_t i = 0; i < 5; ++i)
        sink.record(TraceEventType::CacheMiss, 0, 0x1000 + i * 64, i,
                    0, i);
    ASSERT_EQ(sink.size(), 5u);
    auto events = sink.snapshot();
    ASSERT_EQ(events.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(events[i].cycle, i);
        EXPECT_EQ(events[i].addr, 0x1000 + i * 64);
    }
}

TEST(TraceSink, RingWraparoundKeepsNewestOldestFirst)
{
    TraceSink sink;
    sink.enable(4);
    for (std::uint64_t i = 0; i < 10; ++i)
        sink.record(TraceEventType::PrefetchIssue, 0, i, i, 0, i);
    EXPECT_EQ(sink.recorded(), 10u);
    EXPECT_EQ(sink.dropped(), 6u);
    auto events = sink.snapshot();
    ASSERT_EQ(events.size(), 4u);
    // The ring retains the newest 4 events, oldest first.
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(events[i].cycle, 6 + i);
}

TEST(TraceSink, CountsByType)
{
    TraceSink sink;
    sink.enable(8);
    sink.record(TraceEventType::CacheHit, 0, 1, 0, 0, 0);
    sink.record(TraceEventType::CacheHit, 0, 2, 0, 0, 1);
    sink.record(TraceEventType::DiscAlloc, 0, 3, 0, 0, 2);
    auto counts = sink.countsByType();
    EXPECT_EQ(
        counts[static_cast<std::size_t>(TraceEventType::CacheHit)],
        2u);
    EXPECT_EQ(
        counts[static_cast<std::size_t>(TraceEventType::DiscAlloc)],
        1u);
}

TEST(TraceSink, JsonLinesRoundTrip)
{
    TraceSink sink;
    sink.enable(8);
    sink.record(TraceEventType::PrefetchIssue, 2, 0xdeadbeef, 17, 1,
                1234, 0x4000);
    sink.record(TraceEventType::CacheEvict, traceNoCore, 0x40, 3, 3,
                1235);
    std::ostringstream os;
    sink.writeJsonLines(os);

    std::istringstream lines(os.str());
    std::string line;
    std::vector<JsonValue> parsed;
    while (std::getline(lines, line))
        parsed.push_back(parseJson(line));
    ASSERT_EQ(parsed.size(), 2u);

    EXPECT_EQ(parsed[0].at("type").str, "prefetch_issue");
    EXPECT_EQ(parsed[0].at("cycle").number, 1234);
    EXPECT_EQ(parsed[0].at("addr").str, "0xdeadbeef");
    EXPECT_EQ(parsed[0].at("arg").number, 17);
    EXPECT_EQ(parsed[0].at("core").number, 2);
    EXPECT_EQ(parsed[0].at("detail").number, 1);
    EXPECT_EQ(parsed[0].at("pc").asUint(), 0x4000u);
    EXPECT_EQ(parsed[1].at("type").str, "cache_evict");

    // Events without a core context carry an explicit null (uniform
    // schema — consumers never see the 0xffff sentinel).
    ASSERT_TRUE(parsed[1].has("core"));
    EXPECT_TRUE(parsed[1].at("core").isNull());
    // pc is omitted when not recorded.
    EXPECT_FALSE(parsed[1].has("pc"));
}

TEST(TraceEventDetail, PackRoundTrips)
{
    for (std::uint8_t level :
         {traceLevelL1I, traceLevelL1D, traceLevelL2}) {
        for (std::uint8_t t = 0;
             t < static_cast<std::uint8_t>(
                     FetchTransition::NumTransitions);
             ++t) {
            std::uint8_t d = traceDetailPack(level, t);
            EXPECT_EQ(traceDetailLevel(d), level);
            EXPECT_EQ(traceDetailTransition(d), static_cast<int>(t));
        }
        // Bare levels (data-side events) carry no transition.
        EXPECT_EQ(traceDetailLevel(level), level);
        EXPECT_EQ(traceDetailTransition(level), -1);
    }
}

// --- stats JSON ------------------------------------------------------

TEST(StatsJson, TreeRoundTrips)
{
    Counter hits, misses;
    hits += 90;
    misses += 10;
    Log2Histogram lat;
    lat.add(100);
    lat.add(200);

    StatGroup root("system"), child("l1i");
    child.addCounter("hits", &hits, "demand hits");
    child.addCounter("misses", &misses);
    child.addFormula("miss_rate", [&] {
        return static_cast<double>(misses.value()) /
               static_cast<double>(hits.value() + misses.value());
    });
    child.addHistogram("latency", &lat);
    root.addChild(&child);

    std::ostringstream os;
    root.dumpJson(os);
    JsonValue v = parseJson(os.str());

    const JsonValue &l1i = v.at("children").at("l1i");
    EXPECT_EQ(l1i.at("stats").at("hits").number, 90);
    EXPECT_EQ(l1i.at("stats").at("misses").number, 10);
    EXPECT_NEAR(l1i.at("stats").at("miss_rate").number, 0.1, 1e-9);
    const JsonValue &hist = l1i.at("stats").at("latency");
    EXPECT_EQ(hist.at("count").number, 2);
    EXPECT_EQ(hist.at("sum").number, 300);
    EXPECT_EQ(hist.at("max").number, 200);
}

// --- full-system report ---------------------------------------------

namespace
{

/** Small discontinuity-prefetch config for observability tests. */
SystemConfig
observedConfig(std::uint64_t interval, std::uint64_t warmup = 0)
{
    RunSpec spec;
    spec.cmp = true;
    spec.workloads = {WorkloadKind::WEB};
    spec.schemeToken = "discontinuity";
    spec.instrScale = 0.1;
    SystemConfig cfg = makeConfig(spec);
    cfg.warmupInstrs = warmup;
    cfg.statsIntervalInstrs = interval;
    return cfg;
}

} // namespace

TEST(SystemReport, JsonParsesWithLifecycleAndIntervals)
{
    ObservabilityGuard guard;
    System system(observedConfig(40'000));
    system.run();

    std::ostringstream os;
    system.dumpJson(os);
    JsonValue v = parseJson(os.str());

    EXPECT_EQ(v.at("config").at("scheme").str, "discontinuity");
    // The results section is the campaign's counter form, verbatim.
    const JsonValue &res = v.at("results");
    EXPECT_GT(res.at("instructions").asUint(), 0u);
    EXPECT_GT(res.at("pf_issued").asUint(), 0u);
    Expected<SimResults> back = resultsFromJson(res);
    ASSERT_TRUE(back.ok()) << back.error().what();
    EXPECT_EQ(resultsToJson(back.value()), resultsToJson(system.results()));
    const JsonValue &byOrigin = res.at("pf_issued_by_origin");
    ASSERT_EQ(byOrigin.items.size(), kNumOrigins);
    EXPECT_GT(byOrigin.items[static_cast<std::size_t>(
                                 PrefetchOrigin::Discontinuity)]
                  .asUint(),
              0u);

    // Only engine state SimResults lacks stays in "prefetch".
    const JsonValue &pf = v.at("prefetch");
    EXPECT_EQ(pf.fields.size(), 4u);
    EXPECT_NO_THROW(pf.at("uncredited_useful").asUint());
    EXPECT_NO_THROW(pf.at("in_flight").asUint());
    EXPECT_NO_THROW(pf.at("dropped").asUint());
    EXPECT_TRUE(pf.at("timeliness").has("p90_cycles"));
    EXPECT_FALSE(v.has("cpi_stack"));

    // The acceptance bar: at least two interval samples, each a full
    // counter delta, together covering the measurement window.
    const JsonValue &intervals = v.at("intervals");
    ASSERT_EQ(intervals.kind, JsonValue::Array);
    EXPECT_GE(intervals.items.size(), 2u);
    std::uint64_t instrs = 0, issued = 0;
    for (const JsonValue &iv : intervals.items) {
        Expected<SimResults> d = resultsFromJson(iv.at("results"));
        ASSERT_TRUE(d.ok()) << d.error().what();
        instrs += d.value().instructions;
        issued += d.value().pfIssued;
    }
    EXPECT_EQ(instrs, res.at("instructions").asUint());
    EXPECT_EQ(issued, res.at("pf_issued").asUint());
    EXPECT_EQ(intervals.items.back().at("end_instructions").asUint(),
              instrs);

    EXPECT_TRUE(v.at("stats").at("children").has("hierarchy"));
    EXPECT_TRUE(v.at("stats").at("children").has("prefetch.0"));
    EXPECT_GT(v.at("profile").at("measure_seconds").number, 0);
}

TEST(SystemReport, IntervalDeltasSumToTotals)
{
    ObservabilityGuard guard;
    System system(observedConfig(30'000));
    SimResults r = system.run();

    ASSERT_GE(system.samples().size(), 2u);
    std::uint64_t instrs = 0, cycles = 0, misses = 0, issued = 0;
    for (const auto &s : system.samples()) {
        instrs += s.delta.instructions;
        cycles += s.delta.cycles;
        misses += s.delta.l1iMisses;
        issued += s.delta.pfIssued;
    }
    EXPECT_EQ(instrs, r.instructions);
    EXPECT_EQ(cycles, r.cycles);
    EXPECT_EQ(misses, r.l1iMisses);
    EXPECT_EQ(issued, r.pfIssued);
    // Samples end at the final instruction count, monotonically.
    EXPECT_EQ(system.samples().back().endInstructions,
              r.instructions);
    for (std::size_t i = 1; i < system.samples().size(); ++i)
        EXPECT_GT(system.samples()[i].endInstructions,
                  system.samples()[i - 1].endInstructions);
}

// --- lifecycle reconciliation ----------------------------------------

/** (scheme token, functional?, cores) */
using LifecycleParam = std::tuple<std::string, bool, unsigned>;

class Lifecycle : public ::testing::TestWithParam<LifecycleParam>
{};

TEST_P(Lifecycle, IssuedEqualsUsefulPlusUselessPlusInFlightPlusDropped)
{
    ObservabilityGuard guard;
    const auto &[scheme, functional, cores] = GetParam();
    RunSpec spec;
    spec.cmp = cores > 1;
    spec.workloads = {WorkloadKind::DB};
    spec.schemeToken = scheme;
    spec.functional = functional;
    spec.instrScale = 0.05;
    SystemConfig cfg = makeConfig(spec);
    ASSERT_EQ(cfg.numCores, cores);
    // No warm-up: a mid-run stats reset would orphan in-flight
    // lifecycle entries and the identity below would not hold.
    cfg.warmupInstrs = 0;
    System system(cfg);
    SimResults r = system.run();
    if (scheme != "none") {
        ASSERT_GT(r.pfIssued, 0u);
    }

    std::uint64_t issued = 0, accounted = 0;
    for (unsigned c = 0; c < system.config().numCores; ++c) {
        PrefetchEngine::Lifecycle lc = system.engine(c).lifecycle();
        EXPECT_TRUE(lc.reconciles())
            << "core " << c << ": issued " << lc.issued << " != "
            << lc.useful << " + " << lc.useless << " + "
            << lc.inFlight << " + " << lc.dropped;
        issued += lc.issued;
        accounted +=
            lc.useful + lc.useless + lc.inFlight + lc.dropped;
    }
    EXPECT_EQ(issued, accounted);
    EXPECT_EQ(issued, r.pfIssued);
}

INSTANTIATE_TEST_SUITE_P(
    EveryScheme, Lifecycle,
    ::testing::Combine(::testing::ValuesIn(test::allSchemeTokens()),
                       ::testing::Bool(), ::testing::Values(1u, 4u)),
    [](const auto &p) {
        std::string n = test::schemeTestName(std::get<0>(p.param));
        n += std::get<1>(p.param) ? "_Functional" : "_Timing";
        n += "_" + std::to_string(std::get<2>(p.param)) + "Core";
        return n;
    });

TEST(LifecycleOrigin, PerOriginAttributionSumsToTotals)
{
    ObservabilityGuard guard;
    System system(observedConfig(0, 0));
    SimResults r = system.run();

    std::uint64_t issuedByOrigin = 0;
    for (auto v : r.pfIssuedByOrigin)
        issuedByOrigin += v;
    EXPECT_EQ(issuedByOrigin, r.pfIssued);

    // Discontinuity runs must attribute issues to both the sequential
    // and the discontinuity origin.
    EXPECT_GT(r.pfIssuedByOrigin[static_cast<std::size_t>(
                  PrefetchOrigin::Sequential)],
              0u);
    EXPECT_GT(r.pfIssuedByOrigin[static_cast<std::size_t>(
                  PrefetchOrigin::Discontinuity)],
              0u);
}

// --- tracing end-to-end ----------------------------------------------

TEST(TraceSink, SystemRunEmitsLifecycleEvents)
{
    ObservabilityGuard guard;
    TraceSink &sink = TraceSink::global();
    sink.enable(1u << 16);
    System system(observedConfig(0, 0));
    system.run();

    auto counts = sink.countsByType();
    EXPECT_GT(counts[static_cast<std::size_t>(
                  TraceEventType::CacheMiss)],
              0u);
    EXPECT_GT(counts[static_cast<std::size_t>(
                  TraceEventType::PrefetchIssue)],
              0u);
    EXPECT_GT(counts[static_cast<std::size_t>(
                  TraceEventType::PrefetchFill)],
              0u);
    EXPECT_GT(counts[static_cast<std::size_t>(
                  TraceEventType::DiscAlloc)],
              0u);
    sink.disable();
}
