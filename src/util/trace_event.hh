/**
 * @file
 * Low-overhead structured event tracing for the simulator.
 *
 * A TraceSink is a fixed-capacity ring buffer of small POD events
 * (cache hits/misses/fills/evictions, prefetch issue/drop/fill, queue
 * hoist/invalidate, discontinuity-table traffic) with cycle
 * timestamps. Recording is a single branch plus a store when the sink
 * is enabled and exactly one predictable branch when it is not.
 *
 * Events are drained as JSON lines (one object per line) so external
 * tooling can consume them without a schema.
 */

#ifndef IPREF_UTIL_TRACE_EVENT_HH
#define IPREF_UTIL_TRACE_EVENT_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <vector>

#include "util/types.hh"

namespace ipref
{

/** Event taxonomy (schema reference: DESIGN.md "Observability"). */
enum class TraceEventType : std::uint8_t
{
    CacheHit,        //!< demand hit (detail = level [+transition])
    CacheMiss,       //!< demand miss (detail = level [+transition])
    CacheFill,       //!< demand fill installed (detail = level)
    CacheEvict,      //!< line evicted (arg bit0 = used, bit1 = prefetched)
    PrefetchIssue,   //!< fill started (arg = prefetch id, detail = origin)
    PrefetchDrop,    //!< candidate not issued (detail = DropReason)
    PrefetchFill,    //!< prefetch fill installed into an L1I
    PrefetchUseful,  //!< lifecycle resolved useful (arg = id, detail = origin)
    PrefetchUseless, //!< evicted unused (arg = id, detail = origin)
    PrefetchReplaced, //!< lifecycle superseded by a re-issue (arg = old id)
    QueueHoist,      //!< waiting duplicate hoisted to the queue head
    QueueInvalidate, //!< demand fetch invalidated a waiting prefetch
    DiscAlloc,       //!< discontinuity-table allocation (arg = target)
    DiscEvict,       //!< discontinuity-table replacement (arg = target)
    DiscHit,         //!< discontinuity-table probe hit (arg = target)
    FetchStall,      //!< fetch-stall episode ended (arg = cycles
                     //!< charged, detail = CycleBucket id)
    NumTypes
};

/** Stable lower-case name of @p type ("prefetch_issue", ...). */
const char *traceEventName(TraceEventType type);

/** Cache levels used in the `detail` field of cache events. */
enum : std::uint8_t
{
    traceLevelL1I = 1,
    traceLevelL1D = 2,
    traceLevelL2 = 3,
};

/** Drop reasons used in the `detail` field of PrefetchDrop. */
enum : std::uint8_t
{
    traceDropPresent = 0,    //!< line already resident (hierarchy)
    traceDropInFlight = 1,   //!< fill already in flight
    traceDropConfidence = 2, //!< suppressed by the confidence filter
    traceDropTagProbe = 3,   //!< tag-port probe found the line
};

/** Core id used when the emitting component has no core context. */
inline constexpr std::uint16_t traceNoCore = 0xffff;

/**
 * Cache-event `detail` packing: cache level in the low nibble, the
 * fetch transition *into* the line (when known, instruction side
 * only) as transition+1 in the high nibble — 0 means "no transition
 * attached" (data-side events).
 */
inline constexpr std::uint8_t
traceDetailPack(std::uint8_t level, std::uint8_t transition)
{
    return static_cast<std::uint8_t>((level & 0x0f) |
                                     ((transition + 1) << 4));
}

/** Cache level from a packed cache-event `detail`. */
inline constexpr std::uint8_t
traceDetailLevel(std::uint8_t detail)
{
    return detail & 0x0f;
}

/** Transition from a packed `detail`, or -1 when none is attached. */
inline constexpr int
traceDetailTransition(std::uint8_t detail)
{
    return (detail >> 4) == 0 ? -1 : (detail >> 4) - 1;
}

/** One structured simulator event (40 bytes). */
struct TraceEvent
{
    Cycle cycle = 0;
    Addr addr = 0;
    std::uint64_t arg = 0;
    Addr pc = 0; //!< triggering fetch PC / generating site (0 = none)
    std::uint16_t core = traceNoCore;
    TraceEventType type = TraceEventType::CacheHit;
    std::uint8_t detail = 0;
};

/**
 * Ring-buffered event sink. Disabled (capacity 0) by default.
 * Instrumented components write into current(): a thread-local
 * pointer that defaults to the process-wide global() sink and can be
 * redirected to a per-run sink (System installs its own sink for the
 * duration of run() when SystemConfig::traceCapacity > 0).
 *
 * Thread-ownership rule: a TraceSink is single-threaded state. Every
 * sink is owned by exactly one run (System) and is only ever recorded
 * into by the thread executing that run; concurrent runs each install
 * their own sink as current() on their own thread, so ring insertion
 * needs no locks. The global() sink is an explicit single-threaded
 * opt-in alias — enabling it while simulations run on multiple
 * threads is unsupported (those threads would race on one ring).
 */
class TraceSink
{
  public:
    TraceSink() = default;

    /** Start recording into a fresh ring of @p capacity events. */
    void enable(std::size_t capacity);

    /** Stop recording and release the ring (buffered events drop). */
    void disable();

    bool enabled() const { return enabled_; }

    /**
     * Record one event. When @p cycle is traceNowHint the sink's last
     * setNow() value is used (components without a cycle in scope).
     */
    void
    record(TraceEventType type, std::uint16_t core, Addr addr,
           std::uint64_t arg = 0, std::uint8_t detail = 0,
           Cycle cycle = traceNowHint, Addr pc = 0)
    {
        if (!enabled_)
            return;
        TraceEvent &e = ring_[head_];
        e.cycle = cycle == traceNowHint ? now_ : cycle;
        e.addr = addr;
        e.arg = arg;
        e.pc = pc;
        e.core = core;
        e.type = type;
        e.detail = detail;
        head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
        ++recorded_;
        ++countsByType_[static_cast<std::size_t>(type)];
    }

    /** Update the cycle used for events recorded without one. */
    void setNow(Cycle now) { now_ = now; }

    /** Total events recorded (including overwritten ones). */
    std::uint64_t recorded() const { return recorded_; }

    /** Events overwritten by ring wraparound. */
    std::uint64_t
    dropped() const
    {
        return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
    }

    /** Events currently buffered. */
    std::size_t
    size() const
    {
        return recorded_ < ring_.size()
                   ? static_cast<std::size_t>(recorded_)
                   : ring_.size();
    }

    std::size_t capacity() const { return ring_.size(); }

    /** Per-type totals (indexed by TraceEventType). */
    const std::array<std::uint64_t,
                     static_cast<std::size_t>(TraceEventType::NumTypes)> &
    countsByType() const
    {
        return countsByType_;
    }

    /** Buffered events, oldest first. */
    std::vector<TraceEvent> snapshot() const;

    /** Write buffered events as JSON lines, oldest first. */
    void writeJsonLines(std::ostream &os) const;

    /** Forget buffered events and totals; keep the ring. */
    void clear();

    /** The process-wide default sink (single-threaded use only). */
    static TraceSink &global() { return globalSink_; }

    /** The calling thread's active sink (global() by default). */
    static TraceSink &
    current()
    {
        TraceSink *sink = currentSink_;
        return sink ? *sink : globalSink_;
    }

    /**
     * Redirect the calling thread's instrumentation to @p sink
     * (nullptr = back to global()). @return the previous override.
     * Prefer the RAII TraceSinkScope.
     */
    static TraceSink *
    setCurrent(TraceSink *sink)
    {
        TraceSink *prev = currentSink_;
        currentSink_ = sink;
        return prev;
    }

    /** Sentinel cycle: "use the setNow() hint". */
    static constexpr Cycle traceNowHint = ~static_cast<Cycle>(0);

  private:
    static inline thread_local TraceSink *currentSink_ = nullptr;
    /** Constant-initialized so trace sites skip the function-local
     *  static guard a Meyers singleton would cost on every event. */
    static TraceSink globalSink_;

    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0;
    std::uint64_t recorded_ = 0;
    bool enabled_ = false;
    Cycle now_ = 0;
    std::array<std::uint64_t,
               static_cast<std::size_t>(TraceEventType::NumTypes)>
        countsByType_{};
};

inline constinit TraceSink TraceSink::globalSink_{};

/** RAII: install @p sink as the thread's current() for a scope. */
class TraceSinkScope
{
  public:
    /** @p sink may be nullptr: the scope is then a no-op. */
    explicit TraceSinkScope(TraceSink *sink)
        : installed_(sink != nullptr),
          prev_(installed_ ? TraceSink::setCurrent(sink) : nullptr)
    {}

    ~TraceSinkScope()
    {
        if (installed_)
            TraceSink::setCurrent(prev_);
    }

    TraceSinkScope(const TraceSinkScope &) = delete;
    TraceSinkScope &operator=(const TraceSinkScope &) = delete;

  private:
    bool installed_;
    TraceSink *prev_;
};

} // namespace ipref

/**
 * Event tracing is always compiled in. This macro stays only because
 * the repository benchmark's harness (perfbench/harness.cc) prints it
 * as a provenance field; it goes with that field in the next change
 * to that harness.
 */
#define IPREF_TRACE_EVENTS 1

/** Instrumentation entry point: a single enabled() branch. */
#define IPREF_TRACE(...)                                               \
    do {                                                               \
        ::ipref::TraceSink &ts_ = ::ipref::TraceSink::current();       \
        if (ts_.enabled())                                             \
            ts_.record(__VA_ARGS__);                                   \
    } while (0)
#define IPREF_TRACE_SETNOW(now)                                        \
    do {                                                               \
        ::ipref::TraceSink &ts_ = ::ipref::TraceSink::current();       \
        if (ts_.enabled())                                             \
            ts_.setNow(now);                                           \
    } while (0)

#endif // IPREF_UTIL_TRACE_EVENT_HH
