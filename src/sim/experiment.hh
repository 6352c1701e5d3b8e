/**
 * @file
 * Experiment helpers shared by the benches and examples: canonical
 * paper configurations (Section 5) and one-call runners.
 */

#ifndef IPREF_SIM_EXPERIMENT_HH
#define IPREF_SIM_EXPERIMENT_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/campaign.hh"
#include "sim/system.hh"

namespace ipref
{

struct SchemeSelection;

/** Declarative description of one experimental run. */
struct RunSpec
{
    /** 4-way CMP (true) or the single-core comparison point. */
    bool cmp = true;
    /** Workloads (see SystemConfig::workloads semantics). */
    std::vector<WorkloadKind> workloads{WorkloadKind::DB};
    /** Single-core time-sliced mixed when !cmp and 4 workloads. */

    /**
     * Registry scheme selection: token (canonicalized by build(), so
     * aliases fingerprint like their canonical spelling) plus the
     * canonical "k=v,k2=v2" form of the explicitly-set scheme knobs.
     */
    std::string schemeToken = "none";
    std::string schemeKnobs;

    unsigned degree = 4;
    unsigned tableEntries = 8192;
    unsigned targetWays = 2;
    bool bypassL2 = false;

    /** Limit study (Figure 4): miss groups to eliminate. */
    std::array<bool, static_cast<std::size_t>(MissGroup::NumGroups)>
        idealEliminate{};

    /** Confidence filter [15] instead of the tag-port probe. */
    bool useConfidenceFilter = false;

    /** Recent-fetch filter / prefetch queue sizes (-1 = default;
     *  history 0 is a real value meaning "no filter", a queue needs
     *  at least one slot; build() rejects anything else). */
    int historySize = -1;
    int queueSize = -1;

    /** Off-chip bandwidth override in GB/s (0 = paper default). */
    double memGbPerSec = 0.0;

    /** Functional (miss-rate-only) instead of timing simulation. */
    bool functional = false;

    std::uint64_t l2Bytes = 2u << 20;
    std::uint64_t l1iBytes = 32u << 10;
    unsigned l1iAssoc = 4;
    unsigned lineBytes = 64;

    /** Scales the default warm-up/measure instruction budgets. */
    double instrScale = 1.0;

    std::uint64_t baseSeed = 1;

    /**
     * Instruction-stream input: a trace file to replay (with
     * loop/tolerant/shared knobs) or a workload preset name. When not
     * set, the workloads vector above applies directly. See
     * trace/trace_spec.hh.
     */
    TraceSpec trace;

    /**
     * Fault-injection test hooks (see SystemConfig::faultAtInstr):
     * throw a SimError once aggregate progress reaches faultAtInstr.
     * When faultAttempts > 0 the fault only fires on the first
     * faultAttempts attempts of this spec, so retries can succeed;
     * attempt numbering continues across --resume.
     */
    std::uint64_t faultAtInstr = 0;
    bool faultTransient = false;
    unsigned faultAttempts = 0;

    class Builder;

    /** Start a fluent, build()-validated spec (paper defaults). */
    static Builder builder();
};

/**
 * Fluent RunSpec constructor. Setters accumulate silently; build()
 * validates the whole spec at once and throws ConfigError naming the
 * offending field, so a bad bench loop fails before any simulation
 * time is spent. A default-built Builder yields the same spec as
 * `RunSpec{}`.
 */
class RunSpec::Builder
{
  public:
    Builder() = default;

    /** Start from an existing spec (sweeps mutating one knob). */
    explicit Builder(RunSpec base) : spec_(std::move(base)) {}

    Builder &cmp(bool v) { spec_.cmp = v; return *this; }

    Builder &
    workloads(std::vector<WorkloadKind> w)
    {
        spec_.workloads = std::move(w);
        return *this;
    }

    Builder &
    workload(WorkloadKind k)
    {
        spec_.workloads = {k};
        return *this;
    }

    /**
     * Parse a registry "token" / "token:knob=val,..." spec; throws
     * ConfigError on an unknown token or knob. Common knobs (degree,
     * queue_size, history_size, table_entries, target_ways) land in
     * the matching spec fields; the rest ride in schemeKnobs.
     */
    Builder &scheme(const std::string &token);

    /** Apply an already-parsed scheme selection (bench CLI path). */
    Builder &scheme(const SchemeSelection &sel);

    Builder &degree(unsigned v) { spec_.degree = v; return *this; }

    Builder &
    tableEntries(unsigned v)
    {
        spec_.tableEntries = v;
        return *this;
    }

    Builder &
    targetWays(unsigned v)
    {
        spec_.targetWays = v;
        return *this;
    }

    Builder &bypassL2(bool v = true) { spec_.bypassL2 = v; return *this; }

    Builder &
    eliminate(MissGroup g, bool on = true)
    {
        spec_.idealEliminate[static_cast<std::size_t>(g)] = on;
        return *this;
    }

    Builder &
    eliminate(const std::array<
              bool, static_cast<std::size_t>(MissGroup::NumGroups)> &e)
    {
        spec_.idealEliminate = e;
        return *this;
    }

    Builder &
    confidenceFilter(bool v = true)
    {
        spec_.useConfidenceFilter = v;
        return *this;
    }

    Builder &historySize(int v) { spec_.historySize = v; return *this; }
    Builder &queueSize(int v) { spec_.queueSize = v; return *this; }

    Builder &
    memGbPerSec(double v)
    {
        spec_.memGbPerSec = v;
        return *this;
    }

    Builder &
    functional(bool v = true)
    {
        spec_.functional = v;
        return *this;
    }

    Builder &l2Bytes(std::uint64_t v) { spec_.l2Bytes = v; return *this; }

    Builder &
    l1iBytes(std::uint64_t v)
    {
        spec_.l1iBytes = v;
        return *this;
    }

    Builder &l1iAssoc(unsigned v) { spec_.l1iAssoc = v; return *this; }
    Builder &lineBytes(unsigned v) { spec_.lineBytes = v; return *this; }

    Builder &
    instrScale(double v)
    {
        spec_.instrScale = v;
        return *this;
    }

    Builder &
    baseSeed(std::uint64_t v)
    {
        spec_.baseSeed = v;
        return *this;
    }

    Builder &
    trace(TraceSpec t)
    {
        spec_.trace = std::move(t);
        return *this;
    }

    /** Shorthand for trace(TraceSpec::file(path, tolerant)). */
    Builder &
    traceFile(std::string path, bool tolerant = false)
    {
        spec_.trace = TraceSpec::file(std::move(path), tolerant);
        return *this;
    }

    Builder &
    faultAt(std::uint64_t instr, bool transient = false,
            unsigned attempts = 0)
    {
        spec_.faultAtInstr = instr;
        spec_.faultTransient = transient;
        spec_.faultAttempts = attempts;
        return *this;
    }

    /** Validate everything and return the spec; throws ConfigError. */
    RunSpec build() const;

  private:
    RunSpec spec_;
};

inline RunSpec::Builder
RunSpec::builder()
{
    return Builder();
}

/** Expand a RunSpec into a full SystemConfig (paper defaults). */
SystemConfig makeConfig(const RunSpec &spec);

/** Build, run, and return measurement results for @p spec. */
SimResults runSpec(const RunSpec &spec);

/** Knobs for the fault-tolerant batch runner. */
struct BatchOptions
{
    /** Pool workers (0 = hardware_concurrency). */
    unsigned jobs = 0;

    /**
     * Attempts per spec per batch invocation. Only errors flagged
     * transient() are retried; retries back off exponentially from
     * retryBaseMs, capped at retryCapMs, with deterministic jitter
     * derived from the spec fingerprint and attempt number.
     */
    unsigned maxAttempts = 3;
    std::uint64_t retryBaseMs = 10;
    std::uint64_t retryCapMs = 1000;

    /**
     * Per-run deadline (0 = none), carried by the run's RunControl:
     * the simulation loops notice it, throw SimError(Timeout), and
     * the pool slot keeps draining. Timed-out runs are not retried.
     */
    std::uint64_t runTimeoutMs = 0;

    /**
     * Campaign manifest path (empty = no checkpointing). One line is
     * appended after each run completes. With resume, specs whose
     * fingerprint has an Ok entry are restored from the manifest
     * (bit-identical results, buffered JSON report and all) instead
     * of re-run; failed entries re-run with continued attempt counts.
     */
    std::string manifestPath;
    bool resume = false;
};

/**
 * Where driveBatch() runs one spec: given its index in the batch, its
 * fingerprint and the lifetime attempts it already consumed, return
 * its final outcome. Called on a pool thread, one call per spec.
 */
using SpecRunner = std::function<RunOutcome(
    std::size_t index, std::uint64_t fingerprint, unsigned priorAttempts)>;

/**
 * The one batch driver behind runBatch() and runCampaign(). It
 * fingerprints the specs, opens the CampaignLedger (restoring Ok
 * entries on resume), installs the signal frame (SIGINT and SIGTERM
 * raise the interrupt latch, SIGPIPE is ignored), runs every other
 * spec through @p run as one blocking task on a pool of @p threads,
 * records each outcome in the ledger as it becomes final, and
 * commits the reports in input order. Outcomes come back in input
 * order.
 */
std::vector<RunOutcome> driveBatch(const std::vector<RunSpec> &specs,
                                   const BatchOptions &opt,
                                   unsigned threads, const SpecRunner &run);

/**
 * Fault-tolerant batch runner: driveBatch() with each spec run
 * in-process on the --jobs pool, in its own failure domain, so a
 * corrupt trace, a thrown SimError or a runaway run produces a
 * RunOutcome instead of killing the batch. Successful runs are
 * bit-identical to a sequential runSpec() loop at any job count: each
 * run owns its System, stats tree, RNG streams and trace ring. SIGINT
 * or SIGTERM cancels in-flight runs cooperatively and returns with
 * the remaining outcomes marked Interrupted.
 */
std::vector<RunOutcome> runBatch(const std::vector<RunSpec> &specs,
                                 const BatchOptions &opt = {});

/**
 * One spec in its own failure domain, without batch machinery: no
 * signal handlers are installed, no manifest is touched and no
 * report is buffered — the caller owns the outcome
 * (including its buffered jsonReport). Retry/timeout semantics match
 * runBatch, with attempt numbering continuing from @p priorAttempts.
 * This is the campaign worker's entry point; the batch interrupt latch
 * is honoured but deliberately not reset.
 */
RunOutcome runIsolated(const RunSpec &spec, const BatchOptions &opt,
                       unsigned priorAttempts = 0);

/**
 * Raise the batch interrupt latch programmatically, as if the process
 * had received SIGINT: in-flight runs unwind with Interrupted and no
 * new attempts start. Used by the campaign worker to abort on a
 * coordinator request or a dead protocol pipe. driveBatch() clears
 * the latch when it starts a new batch; runIsolated() does not.
 */
void requestBatchInterrupt();

/** True once the batch interrupt latch is raised. */
bool batchInterrupted();

/**
 * Process-wide observability options, consulted by makeConfig() and
 * runSpec() so every bench and example honours the same CLI flags
 * without per-driver plumbing.
 */
struct ObservabilityOptions
{
    /**
     * Destination for the JSON report (empty = off). Each run
     * buffers one report; the complete JSON array is written once,
     * by flushObservability() — registered atexit() — rather than
     * being rewritten after every run.
     */
    std::string jsonPath;

    /** SystemConfig::statsIntervalInstrs for every run (0 = off). */
    std::uint64_t intervalInstrs = 0;

    /**
     * SystemConfig::traceCapacity for every run (0 = off): each
     * System owns a private ring of this capacity, and the captured
     * tail of the most recent run (input order under runBatch) is
     * written to tracePath (JSON lines). The ring is cleared at the
     * warm-up / measure boundary, so the retained events cover the
     * same measurement window as the counters.
     */
    std::uint64_t traceCapacity = 0;
    std::string tracePath = "trace_events.jsonl";

    /** SystemConfig::profileSites for every run (0 = off). */
    std::uint64_t profileSites = 0;

    /**
     * Buffer a JSON report for every run even when jsonPath is empty.
     * Campaign workers set this: the report rides the RunOutcome back
     * to the coordinator, which owns the output file.
     */
    bool forceReports = false;
};

/** Install process-wide observability options (resets JSON state). */
void setObservability(const ObservabilityOptions &opts);

/** The currently installed options. */
const ObservabilityOptions &observability();

/**
 * Write the buffered JSON reports to ObservabilityOptions::jsonPath
 * as one array. Called automatically at process exit; call earlier to
 * make the file available mid-process. Idempotent until another run
 * buffers a new report.
 */
void flushObservability();

/**
 * Buffer @p system's JSON report for flushObservability() — for
 * drivers that run a System directly instead of going through
 * runSpec()/runBatch() (e.g. the quickstart example).
 */
void commitSystemReport(const System &system);

/** A labelled workload set for figure loops ("DB".."Web", "Mixed"). */
struct WorkloadSet
{
    std::string label;
    std::vector<WorkloadKind> kinds;
};

/** The paper's x-axis: four applications, optionally plus Mixed. */
std::vector<WorkloadSet> figureWorkloads(bool includeMix);

/**
 * Benchmark scale factor: from the IPREF_SCALE environment variable
 * (default 1.0). Larger values run longer and smooth the curves.
 * Throws ConfigError when the variable is set but is not a finite
 * number > 0.
 */
double envScale();

} // namespace ipref

#endif // IPREF_SIM_EXPERIMENT_HH
