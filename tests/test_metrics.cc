/**
 * @file
 * Tests for the live telemetry layer: registry concurrency (the
 * serial sum must equal N threads' worth of relaxed-atomic updates),
 * sampler reconciliation (the stream's final record carries final
 * instrument totals), the Prometheus text exposition golden format,
 * the JSON-lines round trip ipref_top depends on, and end-to-end
 * reconciliation between the live counters and a run's reported
 * results.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "sim/experiment.hh"
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

TEST(MetricsSnapshot, PrometheusGoldenFormat)
{
    Snapshot s = sampleSnapshot();
    const std::string expected =
        "# TYPE ipref_test_c counter\n"
        "ipref_test_c 3\n"
        "# TYPE ipref_test_c2 counter\n"
        "ipref_test_c2 1099511627776\n"
        "# TYPE ipref_test_g gauge\n"
        "ipref_test_g -2\n"
        "# TYPE ipref_test_h histogram\n"
        "ipref_test_h_bucket{le=\"1\"} 2\n"
        "ipref_test_h_bucket{le=\"5\"} 3\n"
        "ipref_test_h_bucket{le=\"+Inf\"} 7\n"
        "ipref_test_h_sum 42.5\n"
        "ipref_test_h_count 7\n";
    EXPECT_EQ(renderPrometheus(s), expected);
}

// --- localhost exposition endpoint (--metrics-port) -------------------

TEST(MetricsSnapshot, PrometheusTcpEndpointServesGoldenExposition)
{
    // The exporter binds a fixed localhost port (0 = endpoint off),
    // so probe a small candidate range; a machine with the whole
    // range occupied skips rather than fails.
    std::unique_ptr<PrometheusExporter> exporter;
    for (unsigned port = 18500; port <= 18530; ++port) {
        auto e = std::make_unique<PrometheusExporter>("", port);
        if (e->boundPort() != 0) {
            exporter = std::move(e);
            break;
        }
    }
    if (!exporter)
        GTEST_SKIP() << "no free port in 18500-18530";

    Snapshot s = sampleSnapshot();
    exporter->consume(s);

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port =
        htons(static_cast<std::uint16_t>(exporter->boundPort()));
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::send(fd, req.data(), req.size(), 0),
              static_cast<ssize_t>(req.size()));

    std::string resp;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        resp.append(buf, static_cast<std::size_t>(n));
    ::close(fd);

    // Status line, scrape-compatible content type, and a body that is
    // exactly the golden text exposition of the consumed snapshot.
    EXPECT_NE(resp.find("HTTP/1.0 200 OK\r\n"), std::string::npos);
    EXPECT_NE(resp.find("Content-Type: text/plain; version=0.0.4"),
              std::string::npos);
    std::size_t split = resp.find("\r\n\r\n");
    ASSERT_NE(split, std::string::npos);
    std::string body = resp.substr(split + 4);
    EXPECT_EQ(body, renderPrometheus(s));
    EXPECT_NE(resp.find("Content-Length: " +
                        std::to_string(body.size())),
              std::string::npos);

    // A second scrape sees the refreshed exposition, not a stale one.
    s.counters.push_back({"ipref_test_c3", 9});
    exporter->consume(s);
    int fd2 = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd2, 0);
    ASSERT_EQ(::connect(fd2, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_EQ(::send(fd2, req.data(), req.size(), 0),
              static_cast<ssize_t>(req.size()));
    std::string resp2;
    while ((n = ::recv(fd2, buf, sizeof(buf), 0)) > 0)
        resp2.append(buf, static_cast<std::size_t>(n));
    ::close(fd2);
    EXPECT_NE(resp2.find("ipref_test_c3 9\n"), std::string::npos);
}

TEST(MetricsSnapshot, PrometheusRoundTripRecoversSeries)
{
    Snapshot s = sampleSnapshot();
    // The exposition does not carry seq / timestamp.
    s.seq = 0;
    s.unixMs = 0;
    Snapshot back = parsePrometheus(renderPrometheus(s));
    EXPECT_EQ(back, s);
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
    if constexpr (!kCompiled)
        GTEST_SKIP() << "metrics compiled out";

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
    if constexpr (!kCompiled)
        GTEST_SKIP() << "metrics compiled out";

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
    if constexpr (!kCompiled)
        GTEST_SKIP() << "metrics compiled out";

    RunSpec spec;
    spec.cmp = true;
    spec.workloads = {WorkloadKind::DB};
    spec.schemeToken = "n4l";
    spec.instrScale = 0.02;

    Snapshot before = registry().snapshot();
    SimResults r = runSpecs({spec}, 1).at(0);
    Snapshot after = registry().snapshot();

    auto delta = [&](const char *name) -> std::uint64_t {
        const std::uint64_t *b = before.counter(name);
        const std::uint64_t *a = after.counter(name);
        return (a ? *a : 0) - (b ? *b : 0);
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

    // Prefetch issue telemetry covers warm-up + measurement, so it
    // can only exceed the measurement-window counter.
    EXPECT_GE(delta("ipref_prefetch_issued_total"), r.pfIssued);

    // Gauges drain once the run is torn down.
    const std::int64_t *active =
        after.gauge("ipref_sim_active_runs");
    ASSERT_NE(active, nullptr);
    const std::int64_t *activeBefore =
        before.gauge("ipref_sim_active_runs");
    EXPECT_EQ(*active, activeBefore ? *activeBefore : 0);
}
