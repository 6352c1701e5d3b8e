/**
 * @file
 * System assembly and the simulation loops (timing and functional),
 * plus the observability surface: a persistent stats tree, warm-up /
 * measurement phase profiling, interval sampling and JSON reporting.
 */

#ifndef IPREF_SIM_SYSTEM_HH
#define IPREF_SIM_SYSTEM_HH

#include <array>
#include <memory>
#include <ostream>
#include <vector>

#include "sim/config.hh"
#include "util/stats.hh"

namespace ipref
{

class FetchProfiler;
class TraceSink;

/** Wall-clock / throughput profile of the most recent run(). */
struct PhaseProfile
{
    double warmupSeconds = 0.0;
    double measureSeconds = 0.0;
    std::uint64_t warmupInstructions = 0;
    std::uint64_t measureInstructions = 0;

    /** Simulation speed over the measurement phase (instrs/sec). */
    double
    measureInstrsPerSec() const
    {
        return measureSeconds > 0.0
                   ? static_cast<double>(measureInstructions) /
                         measureSeconds
                   : 0.0;
    }
};

/** One interval sample: counter deltas over the last N instructions. */
struct IntervalSample
{
    /** Committed instructions since the measurement started. */
    std::uint64_t endInstructions = 0;
    /** Deltas relative to the previous sample (or measure start). */
    SimResults delta;
};

/** Aggregate timeliness summary across all prefetch engines. */
struct TimelinessSummary
{
    std::uint64_t count = 0; //!< credited prefetches with a sample
    double meanCycles = 0.0;
    std::uint64_t p50Cycles = 0;
    std::uint64_t p90Cycles = 0;
    std::uint64_t maxCycles = 0;
};

/**
 * A complete simulated chip: workload walkers, hierarchy, prefetch
 * engines and cores, with warm-up/measure orchestration.
 */
class System
{
  public:
    explicit System(const SystemConfig &cfg);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Run warm-up then measurement; @return measurement deltas. */
    SimResults run();

    /** Results of the most recent run(). */
    const SimResults &results() const { return results_; }

    const SystemConfig &config() const { return cfg_; }

    CacheHierarchy &hierarchy() { return *hierarchy_; }
    PrefetchEngine &engine(CoreId core) { return *engines_[core]; }

    /** Per-site fetch profiler (nullptr when cfg.profileSites == 0). */
    FetchProfiler *profiler() { return profiler_.get(); }
    const FetchProfiler *profiler() const { return profiler_.get(); }

    /** Owned per-run sink (nullptr when cfg.traceCapacity == 0). */
    TraceSink *traceSink() { return traceSink_.get(); }
    const TraceSink *traceSink() const { return traceSink_.get(); }
    OoOCore &cpuCore(CoreId core) { return *cores_[core]; }

    /**
     * The walker of generator stream @p i (core i, or slice i of a
     * time-sliced core). A stream replayed from a StreamSpill has no
     * walker here: std::bad_cast.
     */
    Workload &
    workload(std::size_t i)
    {
        return dynamic_cast<Workload &>(*streams_[i]);
    }

    /** Generator streams (0 for trace replay). */
    std::size_t workloadCount() const { return streams_.size(); }

    /** Interval samples collected by the most recent run(). */
    const std::vector<IntervalSample> &samples() const { return samples_; }

    /** Wall-clock profile of the most recent run(). */
    const PhaseProfile &profile() const { return profile_; }

    /** Issue-to-first-use latency summary across all engines. */
    TimelinessSummary timeliness() const;

    /** Dump every component's statistics as text. */
    void dumpStats(std::ostream &os) const;

    /**
     * Machine-readable report, one JSON object: config, results (the
     * resultsToJson() counters), the prefetch engine state SimResults
     * lacks, interval samples (each a resultsToJson() delta), the
     * phase profile, profiler, trace summary and full stats tree.
     */
    void dumpJson(std::ostream &os) const;

  private:
    /** Snapshot all counters into a SimResults (measure-relative). */
    SimResults collect() const;

    /** The sink this run's events land in (owned or thread-current). */
    TraceSink &activeTraceSink() const;

    /** Reset registered stats at the warm-up/measure boundary. */
    void beginMeasurement();

    /** Emit due interval samples given current progress @p p. */
    void maybeSample(std::uint64_t p);

    /** Append the sample ending at @p cur (measure-relative). */
    void pushSample(const SimResults &cur);

    void runTiming(std::uint64_t targetInstrs);
    void runFunctional(std::uint64_t targetInstrs);

    /**
     * Fault-injection / cancellation poll, called from the run loops
     * at every threshold check. Throws SimError (Io/Invariant on an
     * injected fault, Interrupted once the RunControl latch is
     * raised, Timeout past its deadline).
     */
    void checkControl(std::uint64_t p) const;

    /**
     * The smallest progress value above @p p at which a run loop must
     * stop and check again: the target, the next interval sample,
     * metrics publish, injected fault, RunControl poll or time-slice
     * rotation.
     */
    std::uint64_t nextCheckAt(std::uint64_t p,
                              std::uint64_t targetInstrs) const;

    /** Total committed (timing) or emitted (functional). */
    std::uint64_t progress() const;

    /**
     * Publish the instruction, CPI-stack and prefetch-lifecycle deltas
     * since the last publish into the process-wide telemetry
     * instruments (instructions phase-attributed). Called on a coarse
     * stride from the run loops and at phase boundaries so the live
     * counters track progress without per-event atomics.
     */
    void publishProgressMetrics(std::uint64_t p);

    SystemConfig cfg_;
    std::unique_ptr<CacheHierarchy> hierarchy_;
    /** Generator input, one stream per core or slice: a walker, or a
     *  replay from cfg_.spill. */
    std::vector<std::unique_ptr<TraceSource>> streams_;
    /** Trace replay: per-core readers + looping wrappers (may be empty). */
    std::vector<std::unique_ptr<TraceSource>> traceReaders_;
    std::vector<std::unique_ptr<TraceSource>> traceSources_;
    std::vector<std::unique_ptr<PrefetchEngine>> engines_;
    std::vector<std::unique_ptr<OoOCore>> cores_;
    std::unique_ptr<FetchProfiler> profiler_;
    std::unique_ptr<TraceSink> traceSink_;

    /** Functional-mode per-core fetch state. Records are pulled from
     *  the source in blocks (one nextBatch() virtual call per block);
     *  block[pos..len) are emitted but not yet consumed. */
    struct FuncState
    {
        TraceSource *trace = nullptr;
        InstrRecord prev;
        bool havePrev = false;
        Addr curLine = invalidAddr;
        std::uint64_t emitted = 0;
        std::vector<InstrRecord> block;
        std::uint32_t pos = 0;
        std::uint32_t len = 0;
    };
    std::vector<FuncState> funcState_;

    /** Refill @p st 's record block; throws TraceError on a stream
     *  that ends before the run target. */
    void refillFuncBlock(FuncState &st);

    /** Emit one instruction on core @p c (the functional kernel). */
    void funcStep(unsigned c, FuncState &st, const InstrRecord &rec);

    /** Single-core time-sliced workload rotation. */
    std::size_t activeSlice_ = 0;
    std::uint64_t sliceStart_ = 0;

    Cycle now_ = 0;
    SimResults results_;

    // --- observability ------------------------------------------------
    /** Persistent stats tree over every component (built once). */
    std::unique_ptr<StatGroup> statsRoot_;
    std::vector<std::unique_ptr<StatGroup>> statGroups_;

    /** Progress/cycle bases of the measurement window. */
    std::uint64_t measureInstrBase_ = 0;
    Cycle measureCycleBase_ = 0;

    std::vector<IntervalSample> samples_;
    SimResults lastSample_;
    std::uint64_t nextSampleAt_ = 0;

    PhaseProfile profile_;

    /** Live-telemetry publishing state (see publishProgressMetrics). */
    std::uint64_t metricsLastProgress_ = 0;
    std::uint64_t metricsNextAt_ = 0;
    bool metricsInMeasure_ = false;
    /** Last CPI-stack totals published to the process-wide gauges. */
    std::array<std::uint64_t, kNumCycleBuckets> metricsLastStack_{};
    /** Last prefetch lifecycle totals (all engines) published. */
    PrefetchEngine::Lifecycle metricsLastPrefetch_;
};

} // namespace ipref

#endif // IPREF_SIM_SYSTEM_HH
