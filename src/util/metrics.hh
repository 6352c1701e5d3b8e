/**
 * @file
 * Live telemetry: a process-wide registry of lock-free instruments
 * (Counter, Gauge) and one background sampler that appends a snapshot
 * of the registry to a JSON-lines file on a wall-clock interval.
 *
 * Unlike util/stats.hh — per-run StatGroup trees dumped after a run
 * completes — these instruments are process-wide and readable *while*
 * a campaign executes, so `ipref_top` can watch a `runBatch --jobs N`
 * sweep live. Instruments are updated with relaxed atomics (no locks
 * on the hot side). Simulation events are not counted here one by
 * one: System publishes deltas of the per-run StatGroup counters on a
 * coarse instruction stride (see System::publishProgressMetrics).
 *
 * Naming: `ipref_<subsystem>_<what>`, with a `_total` suffix on
 * counters.
 */

#ifndef IPREF_UTIL_METRICS_HH
#define IPREF_UTIL_METRICS_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
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

    /** Point-in-time view of every instrument (name-ordered). */
    Snapshot snapshot() const;

  private:
    Registry() = default;

    struct Impl;
    Impl *impl() const;
};

/** Shorthand for Registry::instance(). */
Registry &registry();

// --- sampler ----------------------------------------------------------

/** CLI-facing sampler configuration (see bench_common.hh flags). */
struct MetricsOptions
{
    /** Sampling period in ms; 0 means the 1000 ms default. */
    std::uint64_t intervalMs = 0;

    /** JSON-lines time-series destination; empty = no sampler. */
    std::string jsonlPath;
};

/**
 * Replace (and stop) any running sampler, then, when
 * opts.jsonlPath is set, start one that truncates that file and
 * appends one flushed JSON line per snapshot every opts.intervalMs.
 * Stopping it — shutdownMetrics(), the next configureMetrics() or
 * process exit (registered atexit) — joins its thread and appends one
 * final snapshot, so the file's last record carries final instrument
 * totals and interval deltas summed over the stream reconcile exactly.
 */
void configureMetrics(const MetricsOptions &opts);

/** Stop and drop the process-wide sampler (final snapshot included). */
void shutdownMetrics();

} // namespace ipref::metrics

#endif // IPREF_UTIL_METRICS_HH
