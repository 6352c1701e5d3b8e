/**
 * @file
 * Whole-system configuration and the results record every experiment
 * consumes.
 */

#ifndef IPREF_SIM_CONFIG_HH
#define IPREF_SIM_CONFIG_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "cpu/core.hh"
#include "prefetch/prefetcher.hh"
#include "sim/cycle_ledger.hh"
#include "trace/trace_spec.hh"
#include "workload/presets.hh"

namespace ipref
{

/**
 * Cooperative cancellation shared between a running System and the
 * batch runner's watchdog. The simulation loops poll stop and throw
 * SimError(Timeout/Interrupted) when it is raised, so a runaway or
 * cancelled run unwinds cleanly and frees its pool slot.
 */
struct RunControl
{
    static constexpr int stopNone = 0;
    static constexpr int stopTimeout = 1;
    static constexpr int stopInterrupt = 2;

    std::atomic<int> stop{stopNone};
};

/** Everything needed to build and run one simulation. */
struct SystemConfig
{
    /** Cores on the chip (1 = the paper's single-core comparison). */
    unsigned numCores = 4;

    HierarchyParams hierarchy;
    CoreParams core;
    PrefetchConfig prefetch;

    /**
     * Workloads to run. One entry: every core runs it (distinct walk
     * seeds / data segments). numCores entries: one per core (the
     * CMP "Mix"). Multiple entries on a single core: time-sliced.
     */
    std::vector<WorkloadKind> workloads{WorkloadKind::DB};

    std::uint64_t baseSeed = 1;

    /** Aggregate committed instructions of warm-up / measurement. */
    std::uint64_t warmupInstrs = 400'000;
    std::uint64_t measureInstrs = 1'200'000;

    /** Quantum for single-core time-sliced mixed runs. */
    std::uint64_t timeSliceInstrs = 50'000;

    /**
     * Functional mode: drive the hierarchy directly (1 instruction
     * per "cycle", zero latencies) — used for the pure miss-rate
     * studies (Figures 1-3). Timing mode runs the OoO cores.
     */
    bool functional = false;

    /**
     * Interval sampling: every N committed instructions of the
     * measurement window, snapshot a delta sample (0 = disabled).
     * Samples are retrievable via System::samples() and land in the
     * JSON report's "intervals" array.
     */
    std::uint64_t statsIntervalInstrs = 0;

    /**
     * Event tracing: when > 0 the System owns a private TraceSink
     * ring of this capacity and installs it as the thread's current
     * sink for the duration of run(), so concurrent runs never share
     * a ring (see trace_event.hh for the thread-ownership rule).
     * 0 = no owned sink; instrumentation falls through to whatever
     * sink the thread has current (the global one by default).
     */
    std::uint64_t traceCapacity = 0;

    /**
     * Per-site fetch profiling: track the K hottest miss sites and
     * discontinuity edges in a chip-wide heavy-hitter sketch
     * (0 = disabled; see prefetch/fetch_profiler.hh). Attribution
     * lands in the JSON report's "profiler" section.
     */
    unsigned profileSites = 0;

    /**
     * Trace-driven input: when trace.enabled(), every core replays
     * the named binary trace file (ChampSim-style ingestion) instead
     * of running a synthetic workload walker. Loop/tolerant/shared
     * behavior comes from the spec; see trace/trace_spec.hh.
     */
    TraceSpec trace;

    /** Same as `trace` (perfbench reads the input through this). */
    TraceSpec effectiveTrace() const { return trace; }

    /** Cancellation handle polled by the run loops (may be null). */
    std::shared_ptr<RunControl> control;

    /**
     * Fault-injection test hook: when > 0, throw a SimError once
     * aggregate progress reaches this instruction count (transient or
     * not per faultTransient). Exercises the batch runner's failure
     * domains; never set outside tests.
     */
    std::uint64_t faultAtInstr = 0;
    bool faultTransient = false;

    /** Display name of the workload set ("DB", ..., "Mixed"). */
    std::string workloadSetName() const;

    /** Convenience: is this the 4-way mixed configuration? */
    bool
    isMixed() const
    {
        return workloads.size() > 1;
    }
};

/** Counter deltas over the measurement window. */
struct SimResults
{
    std::uint64_t instructions = 0; //!< committed (aggregate)
    std::uint64_t cycles = 0;
    double ipc = 0.0;

    std::uint64_t fetchLineAccesses = 0;
    std::uint64_t l1iMisses = 0;
    std::uint64_t l1iEliminated = 0;
    std::uint64_t l1iFirstUseHits = 0;
    std::uint64_t l1iLateHits = 0;
    std::uint64_t l2iMisses = 0;
    std::uint64_t l1dAccesses = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2dMisses = 0;

    std::array<std::uint64_t,
               static_cast<std::size_t>(FetchTransition::NumTransitions)>
        l1iMissByTransition{};
    std::array<std::uint64_t,
               static_cast<std::size_t>(FetchTransition::NumTransitions)>
        l2iMissByTransition{};

    std::uint64_t pfCandidates = 0;
    std::uint64_t pfIssued = 0;
    std::uint64_t pfIssuedOffChip = 0;
    std::uint64_t pfUseful = 0;
    std::uint64_t pfLate = 0;
    std::uint64_t pfUseless = 0;
    std::uint64_t pfFiltered = 0;
    std::uint64_t pfTagProbes = 0;
    std::uint64_t pfTagProbeHits = 0;

    /** Per-origin lifecycle attribution (index = PrefetchOrigin). */
    std::array<std::uint64_t,
               static_cast<std::size_t>(PrefetchOrigin::NumOrigins)>
        pfIssuedByOrigin{};
    std::array<std::uint64_t,
               static_cast<std::size_t>(PrefetchOrigin::NumOrigins)>
        pfUsefulByOrigin{};

    /**
     * Prefetcher metadata storage accounting, summed across engines
     * (see MetadataCost). Entries/bytes are level gauges (delta()
     * keeps the end-of-window level); the off-chip access counts are
     * measurement-window counters like every other pf* field.
     */
    std::uint64_t pfMetaEntries = 0;
    std::uint64_t pfMetaBytes = 0;
    std::uint64_t pfMetaOffChipReads = 0;
    std::uint64_t pfMetaOffChipWrites = 0;

    std::uint64_t bypassInstalls = 0;
    std::uint64_t bypassDrops = 0;

    std::uint64_t memReads = 0;
    std::uint64_t memPrefetchReads = 0;
    std::uint64_t memWrites = 0;
    std::uint64_t memQueueDelayCycles = 0;

    std::uint64_t branchCtis = 0;
    std::uint64_t branchMispredicts = 0;

    /**
     * CPI stack: cycles charged to each bucket, summed over all
     * cores. In timing mode this partitions cycles exactly:
     * sum == cycles * numCores (every core ticks every cycle) — the
     * conservation invariant the System enforces at end of run.
     * All-zero in functional mode (no cycle accounting exists there).
     */
    std::array<std::uint64_t, kNumCycleBuckets> cpiStack{};

    /** Sum of every CPI-stack bucket. */
    std::uint64_t
    cpiStackTotal() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t v : cpiStack)
            sum += v;
        return sum;
    }

    // --- derived ------------------------------------------------------
    /** L1I demand misses per committed instruction. */
    double
    l1iMissPerInstr() const
    {
        return instructions ? static_cast<double>(l1iMisses) /
                                  static_cast<double>(instructions)
                            : 0.0;
    }

    /** L2 demand instruction misses per committed instruction. */
    double
    l2iMissPerInstr() const
    {
        return instructions ? static_cast<double>(l2iMisses) /
                                  static_cast<double>(instructions)
                            : 0.0;
    }

    /** L2 demand data misses per committed instruction. */
    double
    l2dMissPerInstr() const
    {
        return instructions ? static_cast<double>(l2dMisses) /
                                  static_cast<double>(instructions)
                            : 0.0;
    }

    /** Prefetch accuracy: useful / issued. */
    double
    pfAccuracy() const
    {
        return pfIssued ? static_cast<double>(pfUseful) /
                              static_cast<double>(pfIssued)
                        : 0.0;
    }

    /** Fraction of would-be L1I misses covered by prefetching. */
    double
    l1iCoverage() const
    {
        std::uint64_t covered = l1iFirstUseHits + l1iLateHits;
        std::uint64_t base = covered + l1iMisses;
        return base ? static_cast<double>(covered) /
                          static_cast<double>(base)
                    : 0.0;
    }

    /** a - b, field-wise (measurement-window delta). */
    static SimResults delta(const SimResults &end,
                            const SimResults &start);
};

} // namespace ipref

#endif // IPREF_SIM_CONFIG_HH
