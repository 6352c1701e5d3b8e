/**
 * @file
 * Cycle-accounting CPI stack: conservation fuzz across schemes and
 * workloads (every timing cycle lands in exactly one bucket), the
 * trace-event reconstruction, interval-delta additivity, the JSON
 * report section and the campaign manifest round trip.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/analyzer.hh"
#include "sim/campaign.hh"
#include "scheme_params.hh"
#include "sim/experiment.hh"
#include "util/trace_event.hh"

using namespace ipref;

namespace
{

std::size_t
busyIdx()
{
    return static_cast<std::size_t>(CycleBucket::Busy);
}

} // namespace

// Every timing-mode cycle is charged to exactly one bucket, on every
// core, for every registered scheme, workload and core count. System::run
// itself raises InvariantError on a per-core mismatch, so merely
// completing each run is half the assertion.
TEST(CpiStack, ConservationFuzzAcrossSchemesAndWorkloads)
{
    const WorkloadKind workloads[] = {WorkloadKind::DB,
                                      WorkloadKind::WEB};
    for (bool cmp : {false, true}) {
        for (const std::string &scheme : test::allSchemeTokens()) {
            for (WorkloadKind w : workloads) {
                RunSpec spec;
                spec.cmp = cmp;
                spec.workloads = {w};
                spec.schemeToken = scheme;
                spec.instrScale = 0.02;
                SimResults r = runSpec(spec);
                std::uint64_t cores = cmp ? 4 : 1;
                EXPECT_EQ(r.cpiStackTotal(), r.cycles * cores)
                    << "scheme " << scheme << " cmp " << cmp;
                EXPECT_GT(r.cpiStack[busyIdx()], 0u);
            }
        }
    }
}

// Functional mode has no cycle accounting: the stack stays all-zero
// (and the JSON report flags it so consumers skip the cross-check).
TEST(CpiStack, FunctionalModeReportsZeroStack)
{
    RunSpec spec;
    spec.cmp = false;
    spec.workloads = {WorkloadKind::WEB};
    spec.functional = true;
    spec.instrScale = 0.05;
    SimResults r = runSpec(spec);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_EQ(r.cpiStackTotal(), 0u);
}

// The fetch_stall episode events re-sum exactly to the ledger: every
// stall bucket matches, and busy is derivable as the remainder.
TEST(CpiStack, TraceEventsResumToLedger)
{
    RunSpec spec;
    spec.cmp = true;
    spec.workloads = {WorkloadKind::DB};
    spec.schemeToken = "discontinuity";
    spec.instrScale = 0.05;
    SystemConfig cfg = makeConfig(spec);
    cfg.traceCapacity = 1u << 22; // ample: the ring must not wrap
    System system(cfg);
    SimResults r = system.run();

    ASSERT_NE(system.traceSink(), nullptr);
    ASSERT_EQ(system.traceSink()->dropped(), 0u);
    std::ostringstream os;
    system.traceSink()->writeJsonLines(os);
    std::istringstream is(os.str());
    TraceAnalysis a = analyze(readTraceJsonLines(is));

    std::uint64_t stallSum = 0;
    for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
        if (b == busyIdx()) {
            EXPECT_EQ(a.stallCycles[b], 0u); // busy is never traced
            continue;
        }
        EXPECT_EQ(a.stallCycles[b], r.cpiStack[b])
            << cycleBucketName(static_cast<CycleBucket>(b));
        stallSum += a.stallCycles[b];
    }
    EXPECT_EQ(r.cycles * cfg.numCores - stallSum,
              r.cpiStack[busyIdx()]);

    // The report's cpi_stack section cross-checks the same way the
    // ipref_analyze CI gate does: exact agreement.
    std::ostringstream report;
    system.dumpJson(report);
    CrossCheck cc = crossCheck(a, parseJson(report.str()));
    EXPECT_TRUE(cc.ok);
    for (const std::string &m : cc.mismatches)
        ADD_FAILURE() << m;
}

// Per-interval stack deltas partition the measurement window: each
// interval's buckets sum to its cycles * cores, and bucket-wise they
// sum to the whole run's stack.
TEST(CpiStack, IntervalDeltasSumToTotal)
{
    RunSpec spec;
    spec.cmp = true;
    spec.workloads = {WorkloadKind::WEB};
    spec.schemeToken = "nl-tagged";
    spec.instrScale = 0.1;
    SystemConfig cfg = makeConfig(spec);
    cfg.statsIntervalInstrs = 30'000;
    System system(cfg);
    SimResults r = system.run();

    ASSERT_GE(system.samples().size(), 2u);
    std::array<std::uint64_t, kNumCycleBuckets> sum{};
    for (const auto &s : system.samples()) {
        std::uint64_t intervalTotal = 0;
        for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
            sum[b] += s.delta.cpiStack[b];
            intervalTotal += s.delta.cpiStack[b];
        }
        EXPECT_EQ(intervalTotal, s.delta.cycles * cfg.numCores);
    }
    for (std::size_t b = 0; b < kNumCycleBuckets; ++b)
        EXPECT_EQ(sum[b], r.cpiStack[b])
            << cycleBucketName(static_cast<CycleBucket>(b));
}

// The JSON report carries the stack with the conservation identity
// intact.
TEST(CpiStack, JsonReportSection)
{
    RunSpec spec;
    spec.cmp = false;
    spec.workloads = {WorkloadKind::JAPP};
    spec.schemeToken = "nl-miss";
    spec.instrScale = 0.05;
    SystemConfig cfg = makeConfig(spec);
    cfg.statsIntervalInstrs = cfg.measureInstrs / 3;
    System system(cfg);
    system.run();

    std::ostringstream os;
    system.dumpJson(os);
    JsonValue v = parseJson(os.str());

    EXPECT_FALSE(v.at("config").at("functional").boolean);
    std::uint64_t cores = v.at("config").at("cores").asUint();
    const JsonValue &res = v.at("results");
    std::uint64_t cycles = res.at("cycles").asUint();
    const JsonValue &stack = res.at("cpi_stack");
    ASSERT_EQ(stack.items.size(), kNumCycleBuckets);
    std::uint64_t sum = 0;
    for (const JsonValue &bucket : stack.items)
        sum += bucket.asUint();
    EXPECT_GT(cycles, 0u);
    EXPECT_EQ(sum, cycles * cores);

    // Interval lines carry a bucket-order stack array.
    const JsonValue &intervals = v.at("intervals");
    ASSERT_EQ(intervals.kind, JsonValue::Array);
    ASSERT_FALSE(intervals.items.empty());
    const JsonValue &arr = intervals.items[0].at("results").at("cpi_stack");
    ASSERT_EQ(arr.kind, JsonValue::Array);
    EXPECT_EQ(arr.items.size(), kNumCycleBuckets);
}

// Campaign manifests round-trip the stack exactly; results without a
// stack (an older manifest) are rejected, not read as all-zero.
TEST(CpiStack, ManifestRoundTripRequiresStack)
{
    RunSpec spec;
    spec.cmp = true;
    spec.workloads = {WorkloadKind::TPCW};
    spec.schemeToken = "n4l";
    spec.instrScale = 0.02;
    SimResults r = runSpec(spec);
    ASSERT_GT(r.cpiStackTotal(), 0u);

    Expected<SimResults> back =
        resultsFromJson(parseJson(resultsToJson(r)));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().cpiStack, r.cpiStack);
    EXPECT_EQ(resultsToJson(back.value()), resultsToJson(r));

    JsonValue noStack = parseJson(resultsToJson(r));
    noStack.fields.erase("cpi_stack");
    EXPECT_FALSE(resultsFromJson(noStack).ok());
}
