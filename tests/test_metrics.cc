/**
 * @file
 * Tests for the live telemetry layer: registry concurrency (the
 * serial sum must equal N threads' worth of relaxed-atomic updates),
 * sampler reconciliation (the stream's final record carries final
 * instrument totals), the JSON-lines round trip ipref_top depends
 * on, and end-to-end reconciliation between the live counters and a
 * run's reported results.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "sim/experiment.hh"
#include "util/error.hh"
#include "util/metrics.hh"

using namespace ipref;
using namespace ipref::metrics;

namespace
{

/** A fully populated snapshot with deterministic field values. */
Snapshot
sampleSnapshot()
{
    Snapshot s;
    s.seq = 7;
    s.unixMs = 1700000000123ULL;
    s.counters = {{"ipref_test_c", 3}, {"ipref_test_c2", 1ULL << 40}};
    s.gauges = {{"ipref_test_g", -2}};
    HistogramSample h;
    h.name = "ipref_test_h";
    h.bounds = {1, 5};
    h.counts = {2, 1, 4}; // per-bucket, +Inf last
    h.count = 7;
    h.sum = 42.5;
    s.histograms = {h};
    return s;
}

/** Change of a counter between two snapshots. */
std::uint64_t
counterDelta(const Snapshot &before, const Snapshot &after,
             const char *name)
{
    const std::uint64_t *b = before.counter(name);
    const std::uint64_t *a = after.counter(name);
    return (a ? *a : 0) - (b ? *b : 0);
}

/** A gauge's value in @p s (0 when not yet registered). */
std::int64_t
gaugeValue(const Snapshot &s, const char *name)
{
    const std::int64_t *v = s.gauge(name);
    return v ? *v : 0;
}

/** Prefetch lifecycle totals over every core of @p system. */
PrefetchEngine::Lifecycle
summedLifecycle(System &system)
{
    PrefetchEngine::Lifecycle sum;
    for (unsigned c = 0; c < system.config().numCores; ++c) {
        PrefetchEngine::Lifecycle lc = system.engine(c).lifecycle();
        sum.issued += lc.issued;
        sum.useful += lc.useful;
        sum.useless += lc.useless;
        sum.inFlight += lc.inFlight;
    }
    return sum;
}

/** 4-core prefetching config whose lifecycle stats cover the run. */
SystemConfig
prefetchingConfig()
{
    RunSpec spec;
    spec.cmp = true;
    spec.workloads = {WorkloadKind::DB};
    spec.schemeToken = "discontinuity";
    spec.instrScale = 0.02;
    SystemConfig cfg = makeConfig(spec);
    cfg.warmupInstrs = 0;
    return cfg;
}

} // namespace

// --- serialization (always compiled) ----------------------------------

TEST(MetricsSnapshot, JsonLineRoundTripIsExact)
{
    Snapshot s = sampleSnapshot();
    Snapshot back = parseSnapshotLine(snapshotToJsonLine(s));
    EXPECT_EQ(back, s);
}

TEST(MetricsSnapshot, ParseRejectsDamagedLines)
{
    std::string line = snapshotToJsonLine(sampleSnapshot());
    // A torn tail from racing the writer must throw, not misparse.
    EXPECT_ANY_THROW(
        parseSnapshotLine(line.substr(0, line.size() / 2)));
    EXPECT_ANY_THROW(parseSnapshotLine("not json at all"));
    EXPECT_ANY_THROW(parseSnapshotLine("[1, 2, 3]"));
}

// --- instruments ------------------------------------------------------

TEST(MetricsRegistry, SameNameReturnsSameInstrument)
{
    metrics::Counter &a = registry().counter("ipref_test_registry_c");
    metrics::Counter &b = registry().counter("ipref_test_registry_c");
    EXPECT_EQ(&a, &b);
    Gauge &g1 = registry().gauge("ipref_test_registry_g");
    Gauge &g2 = registry().gauge("ipref_test_registry_g");
    EXPECT_EQ(&g1, &g2);
}

TEST(MetricsRegistry, ConcurrentUpdatesSumExactly)
{
    metrics::Counter &c = registry().counter("ipref_test_conc_c");
    metrics::Gauge &g = registry().gauge("ipref_test_conc_g");
    LatencyHistogram &h = registry().histogram(
        "ipref_test_conc_h", {10, 100, 1000});
    c.reset();
    g.reset();
    h.reset();

    constexpr unsigned kThreads = 8;
    constexpr std::uint64_t kIters = 20000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::uint64_t i = 0; i < kIters; ++i) {
                c.add(1);
                g.add(3);
                g.sub(1);
                h.observe(static_cast<double>((i + t) % 150));
            }
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(c.value(), kThreads * kIters);
    EXPECT_EQ(g.value(),
              static_cast<std::int64_t>(2 * kThreads * kIters));

    HistogramSample hs = h.sample();
    EXPECT_EQ(hs.count, kThreads * kIters);
    std::uint64_t bucketSum = 0;
    for (std::uint64_t b : hs.counts)
        bucketSum += b;
    EXPECT_EQ(bucketSum, hs.count);

    // Integral observations below 2^53: the CAS-loop double sum is
    // exact regardless of addition order.
    double expectedSum = 0;
    for (unsigned t = 0; t < kThreads; ++t)
        for (std::uint64_t i = 0; i < kIters; ++i)
            expectedSum += static_cast<double>((i + t) % 150);
    EXPECT_EQ(hs.sum, expectedSum);
}

// --- sampler ----------------------------------------------------------

TEST(MetricsSampler, FinalSnapshotCarriesFinalTotals)
{
    metrics::Counter &c = registry().counter("ipref_test_sampler_c");
    c.reset();

    auto ring = std::make_shared<SnapshotRing>(1024);
    Sampler sampler(5);
    sampler.addExporter(ring);
    sampler.start();

    for (int i = 0; i < 50; ++i) {
        c.add(7);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::uint64_t final = c.value();
    sampler.stop();

    std::vector<Snapshot> snaps = ring->recent();
    ASSERT_FALSE(snaps.empty());

    // stop() exports one last snapshot after joining the thread, so
    // the stream's final record reflects final instrument totals —
    // interval deltas summed over the stream reconcile exactly.
    const std::uint64_t *last =
        snaps.back().counter("ipref_test_sampler_c");
    ASSERT_NE(last, nullptr);
    EXPECT_EQ(*last, final);

    // The counter is monotonic: the recorded series must be too.
    std::uint64_t prev = 0;
    for (const Snapshot &s : snaps) {
        const std::uint64_t *v = s.counter("ipref_test_sampler_c");
        ASSERT_NE(v, nullptr);
        EXPECT_GE(*v, prev);
        prev = *v;
    }

    // Sequence numbers strictly increase across the stream.
    for (std::size_t i = 1; i < snaps.size(); ++i)
        EXPECT_GT(snaps[i].seq, snaps[i - 1].seq);
}

// --- end-to-end reconciliation ---------------------------------------

TEST(MetricsReconciliation, MeasureCountersMatchRunResults)
{
    RunSpec spec;
    spec.cmp = true;
    spec.workloads = {WorkloadKind::DB};
    spec.schemeToken = "n4l";
    spec.instrScale = 0.02;

    Snapshot before = registry().snapshot();
    BatchOptions opt;
    opt.jobs = 1;
    RunOutcome outcome = runBatch({spec}, opt).at(0);
    ASSERT_TRUE(outcome.ok()) << outcome.error;
    const SimResults &r = outcome.results;
    Snapshot after = registry().snapshot();

    auto delta = [&](const char *name) {
        return counterDelta(before, after, name);
    };

    // The run loops flush the live instruction counters at the
    // warm-up/measure boundary and at run exit, so the measure-phase
    // counter delta equals the run's reported instruction count
    // exactly — the acceptance criterion for live-vs-final totals.
    EXPECT_EQ(delta("ipref_sim_measure_instructions_total"),
              r.instructions);

    // Phase attribution must partition the total exactly — in timing
    // mode the boundary resets the committed counters progress()
    // reads, so the warm-up remainder has to flush before the reset
    // (a stale cursor would wrap the warm-up counter back to zero).
    EXPECT_GT(delta("ipref_sim_warmup_instructions_total"), 0u);
    EXPECT_EQ(delta("ipref_sim_instructions_total"),
              delta("ipref_sim_warmup_instructions_total") +
                  delta("ipref_sim_measure_instructions_total"));
    EXPECT_EQ(delta("ipref_sim_runs_started_total"), 1u);
    EXPECT_EQ(delta("ipref_sim_runs_finished_total"), 1u);
    EXPECT_EQ(delta("ipref_sim_measure_begin_total"), 1u);
    EXPECT_EQ(delta("ipref_batch_runs_ok_total"), 1u);
    EXPECT_EQ(delta("ipref_batch_runs_completed_total"), 1u);

    // Prefetch telemetry spans warm-up + measurement; its exact check
    // is PrefetchCountersEqualEngineLifecycles below.

    // Gauges drain once the run is torn down.
    ASSERT_NE(after.gauge("ipref_sim_active_runs"), nullptr);
    EXPECT_EQ(gaugeValue(after, "ipref_sim_active_runs"),
              gaugeValue(before, "ipref_sim_active_runs"));
}

TEST(MetricsReconciliation, PrefetchCountersEqualEngineLifecycles)
{
    SystemConfig cfg = prefetchingConfig();
    ASSERT_EQ(cfg.numCores, 4u);

    Snapshot before = registry().snapshot();
    System system(cfg);
    system.run();
    Snapshot after = registry().snapshot();

    // With no warm-up the lifecycle counters are never reset, so the
    // published deltas must equal them exactly.
    PrefetchEngine::Lifecycle sum = summedLifecycle(system);
    ASSERT_GT(sum.issued, 0u);
    EXPECT_EQ(counterDelta(before, after, "ipref_prefetch_issued_total"),
              sum.issued);
    EXPECT_EQ(counterDelta(before, after, "ipref_prefetch_useful_total"),
              sum.useful);
    EXPECT_EQ(
        counterDelta(before, after, "ipref_prefetch_useless_total"),
        sum.useless);

    // The finished run takes its unresolved lifecycles back out of
    // the gauge while the System still holds them.
    EXPECT_EQ(gaugeValue(after, "ipref_prefetch_in_flight"),
              gaugeValue(before, "ipref_prefetch_in_flight"));
}

TEST(MetricsReconciliation, WarmupBoundaryKeepsPrefetchCountersExact)
{
    // A functional run steps one instruction per core per round
    // whatever the phase split, so warming up W then measuring M
    // simulates exactly what measuring W + M from cold does. The
    // counters published across the boundary reset must add up to
    // the cold run's lifecycle totals.
    SystemConfig warm = prefetchingConfig();
    warm.functional = true;
    warm.warmupInstrs = 20'000;
    warm.measureInstrs = 40'000;
    SystemConfig cold = warm;
    cold.warmupInstrs = 0;
    cold.measureInstrs = warm.warmupInstrs + warm.measureInstrs;

    System coldSystem(cold);
    coldSystem.run();
    PrefetchEngine::Lifecycle sum = summedLifecycle(coldSystem);
    ASSERT_GT(sum.useful, 0u);

    Snapshot before = registry().snapshot();
    System(warm).run();
    Snapshot after = registry().snapshot();
    EXPECT_EQ(counterDelta(before, after, "ipref_prefetch_issued_total"),
              sum.issued);
    EXPECT_EQ(counterDelta(before, after, "ipref_prefetch_useful_total"),
              sum.useful);
    EXPECT_EQ(
        counterDelta(before, after, "ipref_prefetch_useless_total"),
        sum.useless);
    EXPECT_EQ(gaugeValue(after, "ipref_prefetch_in_flight"),
              gaugeValue(before, "ipref_prefetch_in_flight"));
}

TEST(MetricsReconciliation, FailedRunDrainsItsGauges)
{
    SystemConfig cfg = prefetchingConfig();
    cfg.faultAtInstr = cfg.measureInstrs / 2;

    Snapshot before = registry().snapshot();
    System system(cfg);
    EXPECT_THROW(system.run(), SimError);
    Snapshot after = registry().snapshot();

    // The fault struck with prefetches still unresolved, and the run
    // published some of them before it stopped.
    EXPECT_GT(summedLifecycle(system).inFlight, 0u);
    EXPECT_GT(counterDelta(before, after, "ipref_prefetch_issued_total"),
              0u);

    EXPECT_EQ(gaugeValue(after, "ipref_prefetch_in_flight"),
              gaugeValue(before, "ipref_prefetch_in_flight"));
    EXPECT_EQ(gaugeValue(after, "ipref_sim_active_runs"),
              gaugeValue(before, "ipref_sim_active_runs"));
}
