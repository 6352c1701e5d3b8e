#include "sim/experiment.hh"

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include <unistd.h>

#include "prefetch/scheme_registry.hh"
#include "sim/stream_spill.hh"
#include "trace/trace_cache.hh"
#include "util/fault_inject.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/parse.hh"
#include "util/thread_pool.hh"
#include "util/trace_event.hh"

namespace ipref
{

namespace
{

ObservabilityOptions g_observability;

/**
 * Report output, guarded by g_reportMutex: JSON report documents
 * accumulate in commit (input) order until flushObservability()
 * writes them to ObservabilityOptions::jsonPath as one array.
 */
std::mutex g_reportMutex;
std::vector<std::string> g_reports;
bool g_reportsDirty = false;
bool g_flushRegistered = false;

/** Buffer one JSON report document (a run's, or a failure object). */
void
recordReport(std::string json)
{
    std::lock_guard<std::mutex> lock(g_reportMutex);
    g_reports.push_back(std::move(json));
    g_reportsDirty = true;
}

/**
 * Overwrite the trace file with @p jsonl, so it holds the event tail
 * of the most recently committed run (the sequential behaviour).
 */
void
recordTrace(const std::string &jsonl)
{
    std::lock_guard<std::mutex> lock(g_reportMutex);
    std::ofstream trace(g_observability.tracePath);
    if (trace)
        trace << jsonl;
}

/** Everything one run emits besides its SimResults. */
struct RunOutput
{
    SimResults results;
    std::string jsonReport; //!< empty when JSON reporting is off
    std::optional<std::string> traceJsonl; //!< set when tracing is on
};

/**
 * Build and run one System; no shared state is touched but @p spill,
 * the batch's shared streams (null outside runBatch).
 */
RunOutput
produceRun(const RunSpec &spec, unsigned attempt = 1,
           const RunControl &control = {}, StreamSpill *spill = nullptr)
{
    SystemConfig cfg = makeConfig(spec);
    // Fault-injection gating: with faultAttempts set, the fault fires
    // only on the first faultAttempts attempts, so a retried (or
    // resumed) spec eventually succeeds.
    if (spec.faultAttempts > 0 && attempt > spec.faultAttempts)
        cfg.faultAtInstr = 0;
    cfg.control = control;
    cfg.spill = spill;
    System system(cfg);
    RunOutput out;
    out.results = system.run();
    if (!g_observability.jsonPath.empty() ||
        g_observability.forceReports) {
        std::ostringstream report;
        system.dumpJson(report);
        out.jsonReport = report.str();
    }
    if (system.traceSink() && !g_observability.tracePath.empty()) {
        std::ostringstream trace;
        system.traceSink()->writeJsonLines(trace);
        out.traceJsonl = trace.str();
    }
    return out;
}

} // namespace

void
commitSystemReport(const System &system)
{
    std::ostringstream report;
    system.dumpJson(report);
    recordReport(report.str());
}

void
flushObservability()
{
    std::lock_guard<std::mutex> lock(g_reportMutex);
    const std::string &path = g_observability.jsonPath;
    if (!g_reportsDirty || path.empty())
        return;
    std::ofstream out(path);
    if (!out) {
        // Runs from atexit(): aborting the whole process over a report
        // it was already exiting from helps nobody — warn and keep the
        // buffered reports for a later explicit flush.
        ipref_warn("cannot write JSON report to '%s'", path.c_str());
        return;
    }
    out << "[\n";
    for (std::size_t i = 0; i < g_reports.size(); ++i)
        out << (i ? ",\n" : "") << g_reports[i];
    // Trailing campaign-summary document: process-wide shared-decode
    // effectiveness for the whole report. Tooling distinguishes it
    // from per-run reports by the absence of a "results" section.
    if (!g_reports.empty()) {
        TraceCache::Stats tc = TraceCache::instance().stats();
        out << ",\n{\"campaign_summary\": {\"trace_cache\": "
            << "{\"decodes\": " << tc.decodes
            << ", \"hits\": " << tc.hits
            << ", \"evictions\": " << tc.evictions
            << ", \"stale_reloads\": " << tc.staleReloads << "}}}\n";
    }
    out << "]\n";
    g_reportsDirty = false;
}

void
setObservability(const ObservabilityOptions &opts)
{
    std::lock_guard<std::mutex> lock(g_reportMutex);
    g_observability = opts;
    // Reports buffered under the previous options are dropped.
    g_reports.clear();
    g_reportsDirty = false;
    if (!opts.jsonPath.empty() && !g_flushRegistered) {
        std::atexit(flushObservability);
        g_flushRegistered = true;
    }
}

const ObservabilityOptions &
observability()
{
    return g_observability;
}

namespace
{

/** Resolve a TraceSpec preset name to a workload list. */
std::vector<WorkloadKind>
presetWorkloads(const std::string &preset)
{
    if (preset == "mixed" || preset == "Mixed")
        return {WorkloadKind::DB, WorkloadKind::TPCW,
                WorkloadKind::JAPP, WorkloadKind::WEB};
    return {parseWorkloadKind(preset)};
}

} // namespace

RunSpec::Builder &
RunSpec::Builder::scheme(const std::string &token)
{
    return scheme(parseSchemeSpec(token));
}

RunSpec::Builder &
RunSpec::Builder::scheme(const SchemeSelection &sel)
{
    const SchemeDescriptor &d =
        SchemeRegistry::instance().at(sel.token);
    validateKnobs(d, sel.knobs);

    // Knobs with a RunSpec spelling land in the matching field; the
    // factories default those from the PrefetchConfig core, so both
    // paths agree. The residue rides in schemeKnobs.
    KnobValues residual;
    for (const auto &[name, value] : sel.knobs.values()) {
        // validateKnobs() bounded every common knob below 2^25.
        const auto v = static_cast<unsigned>(value.v);
        if (name == "degree")
            spec_.degree = v;
        else if (name == "queue_size")
            spec_.queueSize = static_cast<int>(v);
        else if (name == "history_size")
            spec_.historySize = static_cast<int>(v);
        else if (name == "table_entries")
            spec_.tableEntries = v;
        else if (name == "target_ways")
            spec_.targetWays = v;
        else
            residual.set(name, value);
    }

    spec_.schemeToken = d.token;
    spec_.schemeKnobs = std::move(residual);
    return *this;
}

RunSpec
RunSpec::Builder::build() const
{
    RunSpec s = spec_;
    const TraceSpec &trace = s.trace;

    // Specs can be aggregate-initialized without going through
    // Builder::scheme(), so the token and knob checks repeat here.
    // The token is canonicalized so aliases ("sisb") fingerprint
    // identically to their canonical spelling ("isb").
    const SchemeDescriptor &d =
        SchemeRegistry::instance().at(s.schemeToken);
    validateKnobs(d, s.schemeKnobs);
    s.schemeToken = d.token;

    if (!trace.enabled() && trace.preset.empty() &&
        s.workloads.empty())
        ipref_raise(ConfigError,
                    "RunSpec: no instruction stream (set workloads, "
                    "a trace file, or a workload preset)");
    if (trace.enabled() && !trace.preset.empty())
        ipref_raise(ConfigError,
                    "RunSpec: trace path and workload preset are "
                    "mutually exclusive");
    if (!trace.preset.empty())
        presetWorkloads(trace.preset); // throws on an unknown name
    if (s.schemeToken != "none" && s.degree == 0)
        ipref_raise(ConfigError,
                    "RunSpec: prefetch degree must be >= 1");
    if (s.queueSize == 0 || s.queueSize < -1)
        ipref_raise(ConfigError,
                    "RunSpec: queueSize must be >= 1, or -1 for the "
                    "default (got %d)",
                    s.queueSize);
    if (s.historySize < -1)
        ipref_raise(ConfigError,
                    "RunSpec: historySize must be >= 0, or -1 for the "
                    "default (got %d)",
                    s.historySize);
    // makeConfig() casts budget * instrScale to uint64_t; the largest
    // budget (3M functional measure instructions) must stay in range.
    if (!std::isfinite(s.instrScale) || s.instrScale <= 0.0 ||
        s.instrScale * 3'000'000 >= 0x1p64)
        ipref_raise(ConfigError,
                    "RunSpec: instrScale must be finite, > 0 and < "
                    "%g (got %g)",
                    0x1p64 / 3'000'000, s.instrScale);
    if (!std::isfinite(s.memGbPerSec) || s.memGbPerSec < 0.0)
        ipref_raise(ConfigError,
                    "RunSpec: memGbPerSec must be finite and >= 0 "
                    "(got %g)",
                    s.memGbPerSec);
    if (s.l1iBytes == 0 || s.l2Bytes == 0)
        ipref_raise(ConfigError,
                    "RunSpec: cache sizes must be non-zero");
    if (s.l1iAssoc == 0)
        ipref_raise(ConfigError, "RunSpec: l1iAssoc must be >= 1");
    if (s.lineBytes == 0 || (s.lineBytes & (s.lineBytes - 1)) != 0)
        ipref_raise(ConfigError,
                    "RunSpec: lineBytes must be a power of two (got "
                    "%u)",
                    s.lineBytes);
    if (s.l1iBytes % (static_cast<std::uint64_t>(s.lineBytes) *
                      s.l1iAssoc) != 0)
        ipref_raise(ConfigError,
                    "RunSpec: l1iBytes must be divisible by lineBytes "
                    "* l1iAssoc");
    return s;
}

SystemConfig
makeConfig(const RunSpec &spec)
{
    SystemConfig cfg;
    cfg.numCores = spec.cmp ? 4 : 1;
    cfg.workloads = spec.workloads;

    if (!spec.trace.preset.empty() && !spec.trace.enabled())
        cfg.workloads = presetWorkloads(spec.trace.preset);
    cfg.baseSeed = spec.baseSeed;
    cfg.functional = spec.functional;

    cfg.hierarchy.l1i.sizeBytes = spec.l1iBytes;
    cfg.hierarchy.l1i.assoc = spec.l1iAssoc;
    cfg.hierarchy.l1i.lineBytes = spec.lineBytes;
    cfg.hierarchy.l1d.lineBytes = spec.lineBytes;
    cfg.hierarchy.l2.sizeBytes = spec.l2Bytes;
    cfg.hierarchy.l2.lineBytes = spec.lineBytes;
    cfg.hierarchy.prefetchBypassL2 = spec.bypassL2;
    cfg.hierarchy.idealEliminate = spec.idealEliminate;

    // Off-chip bandwidth: 10 GB/s single core, 20 GB/s CMP (paper §5).
    cfg.hierarchy.memory.gbPerSec =
        spec.memGbPerSec > 0.0 ? spec.memGbPerSec
                               : (spec.cmp ? 20.0 : 10.0);
    cfg.hierarchy.memory.lineBytes = spec.lineBytes;

    cfg.prefetch.schemeToken = spec.schemeToken;
    cfg.prefetch.schemeKnobs = spec.schemeKnobs;
    cfg.prefetch.degree = spec.degree;
    cfg.prefetch.tableEntries = spec.tableEntries;
    cfg.prefetch.targetWays = spec.targetWays;
    cfg.prefetch.useConfidenceFilter = spec.useConfidenceFilter;
    if (spec.historySize >= 0)
        cfg.prefetch.historySize =
            static_cast<unsigned>(spec.historySize);
    if (spec.queueSize >= 0)
        cfg.prefetch.queueSize = static_cast<unsigned>(spec.queueSize);

    cfg.statsIntervalInstrs = g_observability.intervalInstrs;
    cfg.traceCapacity = g_observability.traceCapacity;
    cfg.profileSites =
        static_cast<unsigned>(g_observability.profileSites);

    cfg.trace = spec.trace;
    cfg.faultAtInstr = spec.faultAtInstr;
    cfg.faultTransient = spec.faultTransient;

    double scale = spec.instrScale;
    if (spec.functional) {
        cfg.warmupInstrs =
            static_cast<std::uint64_t>(1'000'000 * scale);
        cfg.measureInstrs =
            static_cast<std::uint64_t>(3'000'000 * scale);
    } else {
        cfg.warmupInstrs =
            static_cast<std::uint64_t>(600'000 * scale);
        cfg.measureInstrs =
            static_cast<std::uint64_t>(1'600'000 * scale);
    }
    return cfg;
}

SimResults
runSpec(const RunSpec &spec)
{
    RunOutput out = produceRun(spec);
    if (!out.jsonReport.empty())
        recordReport(std::move(out.jsonReport));
    if (out.traceJsonl)
        recordTrace(*out.traceJsonl);
    return out.results;
}

namespace
{

/**
 * The batch interrupt latch: raised by SIGINT/SIGTERM inside a
 * driveBatch() signal frame or by requestBatchInterrupt(), polled by
 * every run's RunControl and by the fleet's waits. A lock-free atomic,
 * so the signal handler may store to it.
 */
std::atomic<bool> g_interrupt{false};
static_assert(std::atomic<bool>::is_always_lock_free);

void
onInterruptSignal(int)
{
    g_interrupt.store(true, std::memory_order_relaxed);
}

/**
 * The batch's signal policy, installed for the batch's lifetime:
 * SIGINT and SIGTERM raise the interrupt latch (a drain, not a
 * death), SIGPIPE is ignored so a dead worker pipe is a write error.
 */
struct SignalFrame
{
    void (*prevInt)(int) = std::signal(SIGINT, onInterruptSignal);
    void (*prevTerm)(int) = std::signal(SIGTERM, onInterruptSignal);
    void (*prevPipe)(int) = std::signal(SIGPIPE, SIG_IGN);

    ~SignalFrame()
    {
        std::signal(SIGINT, prevInt);
        std::signal(SIGTERM, prevTerm);
        std::signal(SIGPIPE, prevPipe);
    }
};

/**
 * One spec's failure domain: run, catch, classify, retry transient
 * failures after the ledger's backoff. Attempt numbers continue from
 * @p priorAttempts (a resumed failed entry), keeping fault gating and
 * jitter reproducible across resume. A traced run's event tail goes
 * to @p traceTail when it is non-null; @p spill is the batch's shared
 * streams (null outside runBatch).
 */
RunOutcome
runOne(const RunSpec &spec, std::uint64_t fingerprint,
       unsigned priorAttempts, const BatchOptions &opt,
       std::optional<std::string> *traceTail, StreamSpill *spill)
{
    RunOutcome outcome;
    auto t0 = std::chrono::steady_clock::now();
    unsigned maxAttempts = opt.maxAttempts ? opt.maxAttempts : 1;

    BatchMetrics &bm = batchMetrics();
    bm.started.add(1);
    bm.active.add(1);

    for (unsigned local = 1; local <= maxAttempts; ++local) {
        unsigned attempt = priorAttempts + local;
        outcome.attempts = attempt;
        bm.attempts.add(1);
        if (local > 1)
            bm.retries.add(1);
        if (batchInterrupted()) {
            outcome.status = RunStatus::Interrupted;
            outcome.errorKind = SimError::Kind::Interrupted;
            outcome.error = "batch interrupted before run";
            break;
        }

        RunControl control;
        control.interrupt = &g_interrupt;
        if (opt.runTimeoutMs > 0)
            control.deadline = std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(opt.runTimeoutMs);
        try {
            RunOutput out = produceRun(spec, attempt, control, spill);
            outcome.status = RunStatus::Ok;
            outcome.results = out.results;
            outcome.jsonReport = std::move(out.jsonReport);
            if (traceTail)
                *traceTail = std::move(out.traceJsonl);
            break;
        } catch (const SimError &e) {
            outcome.error = e.what();
            outcome.errorKind = e.kind();
            if (e.kind() == SimError::Kind::Timeout) {
                outcome.status = RunStatus::TimedOut;
                break;
            }
            if (e.kind() == SimError::Kind::Interrupted) {
                outcome.status = RunStatus::Interrupted;
                break;
            }
            outcome.status = RunStatus::Failed;
            if (!e.transient() || local == maxAttempts)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(
                CampaignLedger::backoffMs(opt, fingerprint, attempt)));
        } catch (const std::exception &e) {
            outcome.status = RunStatus::Failed;
            outcome.errorKind = SimError::Kind::Invariant;
            outcome.error = e.what();
            break;
        }
    }

    outcome.wallMs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    bm.active.sub(1);
    return outcome;
}

/**
 * Buffer @p outcome's report document: the run's own jsonReport when
 * it has one, or a small object carrying the failure, so a batch's
 * report accounts for every spec.
 */
void
commitOutcomeReport(std::uint64_t fingerprint, const RunOutcome &outcome)
{
    if (!outcome.ok()) {
        std::ostringstream report;
        report << "{\"fingerprint\": "
               << jsonString(jsonHex(fingerprint)) << ", \"status\": "
               << jsonString(runStatusName(outcome.status))
               << ", \"error_kind\": "
               << jsonString(errorKindName(outcome.errorKind))
               << ", \"error\": " << jsonString(outcome.error)
               << ", \"attempts\": " << outcome.attempts
               << ", \"wall_ms\": " << outcome.wallMs << "}";
        recordReport(report.str());
    }
    if (!outcome.jsonReport.empty())
        recordReport(outcome.jsonReport);
}

} // namespace

bool
batchInterrupted()
{
    return g_interrupt.load(std::memory_order_relaxed);
}

void
requestBatchInterrupt()
{
    g_interrupt.store(true, std::memory_order_relaxed);
}

std::vector<RunOutcome>
driveBatch(const std::vector<RunSpec> &specs, const BatchOptions &opt,
           unsigned threads, const SpecRunner &run)
{
    CampaignLedger ledger(opt);
    batchMetrics().specs.add(specs.size());

    std::vector<std::uint64_t> fingerprints;
    fingerprints.reserve(specs.size());
    for (const RunSpec &spec : specs)
        fingerprints.push_back(fingerprintSpec(spec));

    std::vector<RunOutcome> outcomes(specs.size());
    g_interrupt.store(false, std::memory_order_relaxed);
    {
        SignalFrame signals;
        ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(threads, specs.size())));
        std::vector<std::future<void>> tasks;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            unsigned prior = 0;
            if (ledger.restore(fingerprints[i], outcomes[i], prior))
                continue;
            tasks.push_back(pool.submit([&, i, prior] {
                outcomes[i] = run(i, fingerprints[i], prior);
                CampaignLedger::countFinal(outcomes[i].status);
                // Recorded as it becomes final, so a batch that dies
                // keeps every finished run.
                ledger.record(fingerprints[i], outcomes[i]);
                // Chaos hook: die right after persisting an outcome,
                // the worst moment short of mid-append (whose torn
                // line a resume drops).
                if (!opt.manifestPath.empty() &&
                    fault::shouldFire("coord.exit_record"))
                    ::_exit(137);
            }));
        }
        for (std::future<void> &task : tasks)
            task.get();
    }

    // Reports are committed strictly in input order, so the report
    // array is identical whether runs were live, retried, remote or
    // restored from the checkpoint.
    for (std::size_t i = 0; i < specs.size(); ++i)
        commitOutcomeReport(fingerprints[i], outcomes[i]);
    return outcomes;
}

std::vector<RunOutcome>
runBatch(const std::vector<RunSpec> &specs, const BatchOptions &opt)
{
    unsigned jobs = opt.jobs;
    if (jobs == 0)
        jobs = std::thread::hardware_concurrency();

    // Streams two or more specs share are generated once, into the
    // spill, and replayed by each run; it goes when the batch ends.
    // The configs only name the streams, so they go at once.
    StreamSpill spill([&] {
        std::vector<SystemConfig> configs;
        configs.reserve(specs.size());
        for (const RunSpec &spec : specs)
            configs.push_back(makeConfig(spec));
        return configs;
    }());

    // The trace file keeps the tail of the traced run last in input
    // order, as a sequential loop would leave it.
    std::mutex traceMutex;
    std::size_t traceIndex = 0;
    std::optional<std::string> traceTail;
    std::vector<RunOutcome> outcomes = driveBatch(
        specs, opt, jobs,
        [&](std::size_t i, std::uint64_t fingerprint, unsigned prior) {
            std::optional<std::string> tail;
            RunOutcome o = runOne(specs[i], fingerprint, prior, opt,
                                  &tail, &spill);
            std::lock_guard<std::mutex> lock(traceMutex);
            if (tail && (!traceTail || i > traceIndex)) {
                traceIndex = i;
                traceTail = std::move(tail);
            }
            return o;
        });
    if (traceTail)
        recordTrace(*traceTail);
    return outcomes;
}

RunOutcome
runIsolated(const RunSpec &spec, const BatchOptions &opt,
            unsigned priorAttempts)
{
    // No signal frame and no latch reset: the caller (the campaign
    // worker) owns interruption policy across runs.
    return runOne(spec, fingerprintSpec(spec), priorAttempts, opt,
                  nullptr, nullptr);
}

std::vector<WorkloadSet>
figureWorkloads(bool includeMix)
{
    std::vector<WorkloadSet> sets;
    for (WorkloadKind k : allWorkloadKinds())
        sets.push_back({workloadName(k), {k}});
    if (includeMix) {
        sets.push_back({"Mixed",
                        {WorkloadKind::DB, WorkloadKind::TPCW,
                         WorkloadKind::JAPP, WorkloadKind::WEB}});
    }
    return sets;
}

double
envScale()
{
    const char *s = std::getenv("IPREF_SCALE");
    if (!s)
        return 1.0;
    std::optional<double> v = readDouble(s);
    if (!v || *v <= 0.0)
        ipref_raise(ConfigError,
                    "IPREF_SCALE must be a finite number > 0 (got "
                    "\"%s\")",
                    s);
    return *v;
}

} // namespace ipref
