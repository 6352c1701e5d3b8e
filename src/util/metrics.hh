/**
 * @file
 * Live telemetry: a process-wide registry of lock-free instruments
 * (Counter, Gauge, LatencyHistogram), a background sampler that
 * snapshots the registry on a wall-clock interval, and pluggable
 * exporters (JSON-lines time series, Prometheus text exposition with
 * an optional localhost TCP endpoint, an in-process snapshot ring).
 *
 * Unlike util/stats.hh — per-run StatGroup trees dumped after a run
 * completes — these instruments are process-wide and readable *while*
 * a campaign executes, so `ipref_top` can watch a `runBatch --jobs N`
 * sweep live. Instruments are updated with relaxed atomics (no locks
 * on the hot side). Simulation events are not counted here one by
 * one: System publishes deltas of the per-run StatGroup counters on a
 * coarse instruction stride (see System::publishProgressMetrics).
 *
 * Naming follows Prometheus conventions: `ipref_<subsystem>_<what>`
 * with a `_total` suffix on counters.
 */

#ifndef IPREF_UTIL_METRICS_HH
#define IPREF_UTIL_METRICS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ipref::metrics
{

/**
 * The instrument layer is always compiled in. This constant stays only
 * because the repository benchmark's harness prints it; it goes with
 * the next change to that harness.
 */
inline constexpr bool kCompiled = true;

// --- snapshots --------------------------------------------------------

/** Instrument taxonomy. */
enum class Kind : std::uint8_t { Counter, Gauge, Histogram };

/** One histogram's state at snapshot time. */
struct HistogramSample
{
    std::string name;
    std::vector<double> bounds;         //!< bucket upper bounds, ascending
    std::vector<std::uint64_t> counts;  //!< bounds.size() + 1 (+Inf last)
    std::uint64_t count = 0;            //!< total observations
    double sum = 0.0;                   //!< sum of observed values

    bool operator==(const HistogramSample &) const = default;
};

/**
 * A point-in-time view of every registered instrument, ordered by
 * name within each section (deterministic rendering).
 */
struct Snapshot
{
    std::uint64_t seq = 0;    //!< sampler sequence number
    std::uint64_t unixMs = 0; //!< wall-clock timestamp (ms since epoch)
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    std::vector<HistogramSample> histograms;

    /** Value of counter @p name, or nullptr when absent. */
    const std::uint64_t *counter(const std::string &name) const;

    /** Value of gauge @p name, or nullptr when absent. */
    const std::int64_t *gauge(const std::string &name) const;

    bool operator==(const Snapshot &) const = default;
};

/** Serialize @p s as one JSON-lines record (no trailing newline). */
std::string snapshotToJsonLine(const Snapshot &s);

/**
 * Parse one JSON-lines record produced by snapshotToJsonLine. Throws
 * std::runtime_error on malformed input. Exact round trip:
 * parseSnapshotLine(snapshotToJsonLine(s)) == s for integral values
 * within the double-exact range.
 */
Snapshot parseSnapshotLine(const std::string &line);

/** Render @p s in the Prometheus text exposition format. */
std::string renderPrometheus(const Snapshot &s);

/**
 * Parse a Prometheus text exposition produced by renderPrometheus
 * back into a Snapshot (counters/gauges only; histogram series are
 * reconstructed from their _bucket/_sum/_count samples). Used by
 * `ipref_top --prom` and the golden-format tests.
 */
Snapshot parsePrometheus(const std::string &text);

// --- instruments ------------------------------------------------------

/** Monotonic counter; relaxed atomic add, safe from any thread. */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    /** Own cache line: hot counters never false-share. */
    alignas(64) std::atomic<std::uint64_t> value_{0};
};

/** Up/down instantaneous value (queue depths, in-flight counts). */
class Gauge
{
  public:
    void
    add(std::int64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    void sub(std::int64_t n = 1) { add(-n); }
    void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }

    std::int64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { set(0); }

  private:
    alignas(64) std::atomic<std::int64_t> value_{0};
};

/**
 * Fixed-bucket latency histogram: bucket upper bounds are set at
 * registration and never change, so observation is a linear scan over
 * a handful of bounds plus two relaxed atomic adds. Cumulative
 * rendering (Prometheus `le` semantics) happens at snapshot time.
 */
class LatencyHistogram
{
  public:
    explicit LatencyHistogram(std::vector<double> bounds);

    /** Record one observation (any unit; pick one per instrument). */
    void observe(double v);

    const std::vector<double> &bounds() const { return bounds_; }

    /** Snapshot helper (per-bucket counts, non-cumulative). */
    HistogramSample sample() const;

    void reset();

  private:
    std::vector<double> bounds_;
    std::vector<std::atomic<std::uint64_t>> counts_; //!< bounds+1
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sumBits_{0}; //!< double, CAS-updated
};

/** Default wall-time bucket ladder in milliseconds (1ms .. 5min). */
std::vector<double> defaultMsBounds();

/**
 * The process-wide instrument registry. Registration deduplicates by
 * name — asking for the same name (with the same kind) returns the
 * same instrument, so call sites can hold `static` references without
 * coordinating. Returned references stay valid for the process
 * lifetime. All methods are thread-safe.
 */
class Registry
{
  public:
    /** The process-wide instance. */
    static Registry &instance();

    /** Register (or look up) a counter. */
    Counter &counter(const std::string &name,
                     const std::string &help = "");

    /** Register (or look up) a gauge. */
    Gauge &gauge(const std::string &name, const std::string &help = "");

    /**
     * Register (or look up) a histogram. @p bounds applies on first
     * registration only; later lookups ignore it.
     */
    LatencyHistogram &histogram(const std::string &name,
                                std::vector<double> bounds,
                                const std::string &help = "");

    /** Point-in-time view of every instrument (name-ordered). */
    Snapshot snapshot() const;

    /** Zero every instrument (tests; not atomic across instruments). */
    void resetAll();

  private:
    Registry() = default;

    struct Impl;
    Impl *impl() const;
};

/** Shorthand for Registry::instance(). */
Registry &registry();

// --- exporters --------------------------------------------------------

/** Where sampled snapshots go. Implementations must be thread-safe. */
class Exporter
{
  public:
    virtual ~Exporter() = default;

    /** Consume one snapshot (called from the sampler thread). */
    virtual void consume(const Snapshot &s) = 0;

    /** Push buffered output to its destination; idempotent. */
    virtual void flush() {}
};

/**
 * Appends one JSON-lines record per snapshot to @p path (truncated at
 * construction) and flushes after every record, so `ipref_top` and
 * `tail -f` see snapshots as they land.
 */
class JsonLinesExporter final : public Exporter
{
  public:
    explicit JsonLinesExporter(std::string path);
    ~JsonLinesExporter() override;

    void consume(const Snapshot &s) override;
    void flush() override;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Rewrites @p path atomically (temp + rename) with the latest
 * Prometheus text exposition on every snapshot, and — when @p port is
 * non-zero — serves the same text over a localhost TCP listener to
 * any client that connects (minimal HTTP/1.0 response, one exposition
 * per connection; `curl localhost:PORT/metrics` works). Either the
 * file (empty path = none) or the endpoint can be used alone.
 */
class PrometheusExporter final : public Exporter
{
  public:
    explicit PrometheusExporter(std::string path, unsigned port = 0);
    ~PrometheusExporter() override;

    void consume(const Snapshot &s) override;

    /** The port actually bound (0 = no endpoint; useful with port
     *  auto-assignment in tests). */
    unsigned boundPort() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** Keeps the most recent @p capacity snapshots in memory. */
class SnapshotRing final : public Exporter
{
  public:
    explicit SnapshotRing(std::size_t capacity);
    ~SnapshotRing() override;

    void consume(const Snapshot &s) override;

    /** Buffered snapshots, oldest first. */
    std::vector<Snapshot> recent() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

// --- sampler ----------------------------------------------------------

/**
 * Background thread snapshotting the registry every @p intervalMs and
 * fanning each snapshot out to the attached exporters. stop() (and
 * destruction) takes one final snapshot before joining, so the last
 * exported record always reflects final instrument totals — interval
 * deltas summed over the stream reconcile exactly with the registry.
 */
class Sampler
{
  public:
    explicit Sampler(std::uint64_t intervalMs);
    ~Sampler();

    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

    /** Attach an exporter (before start()). */
    void addExporter(std::shared_ptr<Exporter> exporter);

    /** Start the sampling thread (idempotent). */
    void start();

    /** Final snapshot, flush exporters, join (idempotent). */
    void stop();

    /** Snapshot + export immediately (any thread; also pre-start). */
    void sampleNow();

    std::uint64_t intervalMs() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

// --- process-wide wiring ---------------------------------------------

/** CLI-facing sampler configuration (see bench_common.hh flags). */
struct MetricsOptions
{
    /** Sampling period; 0 disables the sampler entirely. */
    std::uint64_t intervalMs = 0;

    /** JSON-lines time-series destination (empty = off). */
    std::string jsonlPath;

    /** Prometheus exposition file (empty = off). */
    std::string promPath;

    /** Localhost TCP port for the exposition endpoint (0 = off). */
    unsigned promPort = 0;

    /** In-process ring capacity (0 = no ring). */
    std::size_t ringCapacity = 0;

    bool
    anySink() const
    {
        return !jsonlPath.empty() || !promPath.empty() ||
               promPort != 0 || ringCapacity != 0;
    }
};

/**
 * Install the process-wide sampler described by @p opts, replacing
 * (and stopping) any previous one. With intervalMs == 0 or no sinks
 * the sampler is simply torn down. Registered atexit: the active
 * sampler is stopped — final snapshot included — at process exit.
 */
void configureMetrics(const MetricsOptions &opts);

/** The active process-wide sampler (nullptr when not configured). */
Sampler *globalSampler();

/** Stop and drop the process-wide sampler (final snapshot + flush). */
void shutdownMetrics();

} // namespace ipref::metrics

#endif // IPREF_UTIL_METRICS_HH
