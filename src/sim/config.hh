/**
 * @file
 * Whole-system configuration and the results record every experiment
 * consumes.
 */

#ifndef IPREF_SIM_CONFIG_HH
#define IPREF_SIM_CONFIG_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstddef>
#include <memory>
#include <numeric>
#include <span>
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

class StreamSpill;

/**
 * Cooperative cancellation of one run. The simulation loops poll it
 * at every threshold check and throw SimError(Interrupted) once the
 * interrupt latch is raised, or SimError(Timeout) past the deadline,
 * so a runaway or cancelled run unwinds cleanly and frees its pool
 * slot. No thread watches it: the poll itself reads the latch, and
 * the clock only when a deadline is set.
 */
struct RunControl
{
    /** The interrupt latch to poll (null = not interruptible). */
    const std::atomic<bool> *interrupt = nullptr;

    /** Stop the run past this instant (max() = no deadline). */
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
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

    /** Cancellation polled by the run loops (default: none). */
    RunControl control;

    /**
     * The batch's shared generator streams (null = none): a stream it
     * holds is replayed from the spill instead of walked. runBatch()
     * sets it; it must outlive the System. Not part of a spec's
     * identity, so neither fingerprinted nor reported.
     */
    StreamSpill *spill = nullptr;

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

constexpr std::size_t kNumTransitions =
    static_cast<std::size_t>(FetchTransition::NumTransitions);
constexpr std::size_t kNumOrigins =
    static_cast<std::size_t>(PrefetchOrigin::NumOrigins);

/**
 * Counter deltas over the measurement window. Every counter is listed
 * once more, in kResultsFields below, which drives delta(), the
 * campaign's JSON form and the per-run report.
 */
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

    std::array<std::uint64_t, kNumTransitions> l1iMissByTransition{};
    std::array<std::uint64_t, kNumTransitions> l2iMissByTransition{};

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
    std::array<std::uint64_t, kNumOrigins> pfIssuedByOrigin{};
    std::array<std::uint64_t, kNumOrigins> pfUsefulByOrigin{};

    /**
     * Prefetcher metadata storage accounting, summed across engines
     * (see MetadataCost). Entries/bytes are level gauges; the off-chip
     * access counts are counters like every other pf* field.
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

    // --- derived ------------------------------------------------------
    /** num / den, or 0 when den is 0. */
    static double
    ratio(std::uint64_t num, std::uint64_t den)
    {
        return den ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
    }

    /** Sum of every CPI-stack bucket. */
    std::uint64_t
    cpiStackTotal() const
    {
        return std::accumulate(cpiStack.begin(), cpiStack.end(),
                               std::uint64_t{0});
    }

    /** L1I / L2I / L2D demand misses per committed instruction. */
    double l1iMissPerInstr() const { return ratio(l1iMisses, instructions); }
    double l2iMissPerInstr() const { return ratio(l2iMisses, instructions); }
    double l2dMissPerInstr() const { return ratio(l2dMisses, instructions); }

    /** Prefetch accuracy: useful / issued. */
    double pfAccuracy() const { return ratio(pfUseful, pfIssued); }

    /** Fraction of would-be L1I misses covered by prefetching. */
    double
    l1iCoverage() const
    {
        std::uint64_t covered = l1iFirstUseHits + l1iLateHits;
        return ratio(covered, covered + l1iMisses);
    }

    /** ipc = instructions / cycles: the one place it is derived. */
    void deriveIpc() { ipc = ratio(instructions, cycles); }

    /**
     * end - start for every counter; a level gauge keeps its end
     * value. ipc is derived from the differences.
     */
    static SimResults delta(const SimResults &end,
                            const SimResults &start);
};

/**
 * One SimResults member as kResultsFields lists it: its JSON key, its
 * byte offset, its length (0 for a scalar, else the std::array's
 * size) and whether it is a level gauge rather than a counter.
 */
struct ResultsField
{
    const char *name;
    std::size_t offset;
    std::size_t arrayLen = 0;
    bool level = false;

    constexpr std::size_t
    count() const
    {
        return arrayLen ? arrayLen : 1;
    }

    std::span<std::uint64_t>
    in(SimResults &r) const
    {
        return {reinterpret_cast<std::uint64_t *>(
                    reinterpret_cast<char *>(&r) + offset),
                count()};
    }

    std::span<const std::uint64_t>
    in(const SimResults &r) const
    {
        return in(const_cast<SimResults &>(r));
    }
};

/** Every SimResults counter, in resultsToJson() order. */
inline constexpr ResultsField kResultsFields[] = {
    {"instructions", offsetof(SimResults, instructions)},
    {"cycles", offsetof(SimResults, cycles)},
    {"fetch_line_accesses", offsetof(SimResults, fetchLineAccesses)},
    {"l1i_misses", offsetof(SimResults, l1iMisses)},
    {"l1i_eliminated", offsetof(SimResults, l1iEliminated)},
    {"l1i_first_use_hits", offsetof(SimResults, l1iFirstUseHits)},
    {"l1i_late_hits", offsetof(SimResults, l1iLateHits)},
    {"l2i_misses", offsetof(SimResults, l2iMisses)},
    {"l1d_accesses", offsetof(SimResults, l1dAccesses)},
    {"l1d_misses", offsetof(SimResults, l1dMisses)},
    {"l2d_misses", offsetof(SimResults, l2dMisses)},
    {"pf_candidates", offsetof(SimResults, pfCandidates)},
    {"pf_issued", offsetof(SimResults, pfIssued)},
    {"pf_issued_off_chip", offsetof(SimResults, pfIssuedOffChip)},
    {"pf_useful", offsetof(SimResults, pfUseful)},
    {"pf_late", offsetof(SimResults, pfLate)},
    {"pf_useless", offsetof(SimResults, pfUseless)},
    {"pf_filtered", offsetof(SimResults, pfFiltered)},
    {"pf_tag_probes", offsetof(SimResults, pfTagProbes)},
    {"pf_tag_probe_hits", offsetof(SimResults, pfTagProbeHits)},
    {"bypass_installs", offsetof(SimResults, bypassInstalls)},
    {"bypass_drops", offsetof(SimResults, bypassDrops)},
    {"mem_reads", offsetof(SimResults, memReads)},
    {"mem_prefetch_reads", offsetof(SimResults, memPrefetchReads)},
    {"mem_writes", offsetof(SimResults, memWrites)},
    {"mem_queue_delay_cycles", offsetof(SimResults, memQueueDelayCycles)},
    {"branch_ctis", offsetof(SimResults, branchCtis)},
    {"branch_mispredicts", offsetof(SimResults, branchMispredicts)},
    {.name = "pf_meta_entries",
     .offset = offsetof(SimResults, pfMetaEntries),
     .level = true},
    {.name = "pf_meta_bytes",
     .offset = offsetof(SimResults, pfMetaBytes),
     .level = true},
    {"pf_meta_offchip_reads", offsetof(SimResults, pfMetaOffChipReads)},
    {"pf_meta_offchip_writes", offsetof(SimResults, pfMetaOffChipWrites)},
    {"l1i_miss_by_transition", offsetof(SimResults, l1iMissByTransition),
     kNumTransitions},
    {"l2i_miss_by_transition", offsetof(SimResults, l2iMissByTransition),
     kNumTransitions},
    {"pf_issued_by_origin", offsetof(SimResults, pfIssuedByOrigin),
     kNumOrigins},
    {"pf_useful_by_origin", offsetof(SimResults, pfUsefulByOrigin),
     kNumOrigins},
    {"cpi_stack", offsetof(SimResults, cpiStack), kNumCycleBuckets},
};

/**
 * True when the fields, with ipc, cover every byte of SimResults once:
 * a counter missing from the table fails to compile.
 */
constexpr bool
resultsFieldsCoverSimResults()
{
    constexpr std::size_t word = sizeof(std::uint64_t);
    constexpr std::size_t ipcAt = offsetof(SimResults, ipc);
    std::size_t bytes = sizeof(SimResults::ipc);
    for (const ResultsField &f : kResultsFields) {
        std::size_t end = f.offset + f.count() * word;
        if (end > sizeof(SimResults) ||
            (f.offset < ipcAt + sizeof(double) && ipcAt < end))
            return false;
        for (const ResultsField &g : kResultsFields)
            if (&f != &g && f.offset < g.offset + g.count() * word &&
                g.offset < end)
                return false;
        bytes += f.count() * word;
    }
    return bytes == sizeof(SimResults);
}
static_assert(resultsFieldsCoverSimResults(),
              "kResultsFields must list every SimResults counter once");

inline SimResults
SimResults::delta(const SimResults &end, const SimResults &start)
{
    SimResults d;
    for (const ResultsField &f : kResultsFields) {
        std::span<const std::uint64_t> e = f.in(end), s = f.in(start);
        std::span<std::uint64_t> out = f.in(d);
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = f.level ? e[i] : e[i] - s[i];
    }
    d.deriveIpc();
    return d;
}

} // namespace ipref

#endif // IPREF_SIM_CONFIG_HH
