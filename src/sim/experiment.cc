#include "sim/experiment.hh"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "prefetch/scheme_registry.hh"
#include "trace/trace_cache.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
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
    std::string traceJsonl; //!< empty when tracing is off
    bool traced = false;
};

/** Build and run one System; no shared state is touched. */
RunOutput
produceRun(const RunSpec &spec, unsigned attempt = 1,
           std::shared_ptr<RunControl> control = nullptr)
{
    SystemConfig cfg = makeConfig(spec);
    // Fault-injection gating: with faultAttempts set, the fault fires
    // only on the first faultAttempts attempts, so a retried (or
    // resumed) spec eventually succeeds.
    if (spec.faultAttempts > 0 && attempt > spec.faultAttempts)
        cfg.faultAtInstr = 0;
    cfg.control = std::move(control);
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
        out.traced = true;
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
    for (const auto &kv : sel.knobs.raw()) {
        if (kv.first == "degree")
            spec_.degree = static_cast<unsigned>(
                sel.knobs.getUint("degree", spec_.degree));
        else if (kv.first == "queue_size")
            spec_.queueSize = static_cast<int>(
                sel.knobs.getUint("queue_size", 32));
        else if (kv.first == "history_size")
            spec_.historySize = static_cast<int>(
                sel.knobs.getUint("history_size", 32));
        else if (kv.first == "table_entries")
            spec_.tableEntries = static_cast<unsigned>(
                sel.knobs.getUint("table_entries",
                                  spec_.tableEntries));
        else if (kv.first == "target_ways")
            spec_.targetWays = static_cast<unsigned>(
                sel.knobs.getUint("target_ways", spec_.targetWays));
        else
            residual.set(kv.first, kv.second);
    }

    spec_.schemeToken = d.token;
    spec_.schemeKnobs = residual.canonical();
    return *this;
}

RunSpec
RunSpec::Builder::build() const
{
    RunSpec s = spec_;
    const TraceSpec &trace = s.trace;

    // Specs can be aggregate-initialized (the campaign wire protocol
    // does) without going through Builder::scheme(), so the token and
    // knob checks repeat here. The token is canonicalized so aliases
    // ("sisb") fingerprint identically to their canonical spelling
    // ("isb").
    const SchemeDescriptor &d =
        SchemeRegistry::instance().at(s.schemeToken);
    KnobValues knobs = KnobValues::fromCanonical(s.schemeKnobs);
    validateKnobs(d, knobs);
    s.schemeToken = d.token;
    s.schemeKnobs = knobs.canonical();

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
    if (out.traced)
        recordTrace(out.traceJsonl);
    return out.results;
}

namespace
{

/** Batch-wide SIGINT latch (async-signal-safe: flag only). */
volatile std::sig_atomic_t g_batchSigint = 0;

void
batchSigintHandler(int)
{
    g_batchSigint = 1;
}

/**
 * One thread watching every in-flight run: raises stopTimeout on runs
 * past their deadline and stopInterrupt on all of them after SIGINT.
 * The runs notice cooperatively (System::checkControl) and unwind with
 * a SimError, so pool slots always drain — no thread is ever killed.
 */
class BatchWatchdog
{
  public:
    BatchWatchdog() : thread_([this] { loop(); }) {}

    ~BatchWatchdog()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            done_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    std::shared_ptr<RunControl>
    add(std::uint64_t timeoutMs)
    {
        Watch w;
        w.control = std::make_shared<RunControl>();
        w.hasDeadline = timeoutMs > 0;
        if (w.hasDeadline)
            w.deadline = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(timeoutMs);
        std::lock_guard<std::mutex> lock(mutex_);
        watches_.push_back(w);
        return w.control;
    }

    void
    remove(const std::shared_ptr<RunControl> &control)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = watches_.begin(); it != watches_.end(); ++it) {
            if (it->control == control) {
                watches_.erase(it);
                return;
            }
        }
    }

  private:
    struct Watch
    {
        std::shared_ptr<RunControl> control;
        std::chrono::steady_clock::time_point deadline;
        bool hasDeadline = false;
    };

    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!done_) {
            cv_.wait_for(lock, std::chrono::milliseconds(20));
            auto now = std::chrono::steady_clock::now();
            for (Watch &w : watches_) {
                if (g_batchSigint)
                    w.control->stop.store(
                        RunControl::stopInterrupt,
                        std::memory_order_relaxed);
                else if (w.hasDeadline && now >= w.deadline)
                    w.control->stop.store(
                        RunControl::stopTimeout,
                        std::memory_order_relaxed);
            }
        }
    }

    std::mutex mutex_;
    std::condition_variable cv_;
    bool done_ = false;
    std::vector<Watch> watches_;
    std::thread thread_;
};

/** A worker's full product: the outcome and the run's trace tail. */
struct WorkerResult
{
    RunOutcome outcome;
    RunOutput output; //!< jsonReport already moved into the outcome
};

/**
 * One spec's failure domain: run, catch, classify, retry transient
 * failures after the ledger's backoff. Attempt numbers continue from
 * @p priorAttempts (a resumed failed entry), keeping fault gating and
 * jitter reproducible across resume.
 */
WorkerResult
runOne(const RunSpec &spec, std::uint64_t fingerprint,
       unsigned priorAttempts, const BatchOptions &opt,
       BatchWatchdog &watchdog)
{
    WorkerResult wr;
    auto t0 = std::chrono::steady_clock::now();
    unsigned maxAttempts = opt.maxAttempts ? opt.maxAttempts : 1;

    BatchMetrics &bm = batchMetrics();
    bm.started.add(1);
    bm.active.add(1);

    for (unsigned local = 1; local <= maxAttempts; ++local) {
        unsigned attempt = priorAttempts + local;
        wr.outcome.attempts = attempt;
        bm.attempts.add(1);
        if (local > 1)
            bm.retries.add(1);
        if (g_batchSigint) {
            wr.outcome.status = RunStatus::Interrupted;
            wr.outcome.errorKind = SimError::Kind::Interrupted;
            wr.outcome.error = "batch interrupted before run";
            break;
        }

        std::shared_ptr<RunControl> control =
            watchdog.add(opt.runTimeoutMs);
        try {
            wr.output = produceRun(spec, attempt, control);
            watchdog.remove(control);
            wr.outcome.status = RunStatus::Ok;
            wr.outcome.results = wr.output.results;
            wr.outcome.jsonReport = std::move(wr.output.jsonReport);
            break;
        } catch (const SimError &e) {
            watchdog.remove(control);
            wr.outcome.error = e.what();
            wr.outcome.errorKind = e.kind();
            if (e.kind() == SimError::Kind::Timeout) {
                wr.outcome.status = RunStatus::TimedOut;
                break;
            }
            if (e.kind() == SimError::Kind::Interrupted) {
                wr.outcome.status = RunStatus::Interrupted;
                break;
            }
            wr.outcome.status = RunStatus::Failed;
            if (!e.transient() || local == maxAttempts)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(
                CampaignLedger::backoffMs(opt, fingerprint, attempt)));
        } catch (const std::exception &e) {
            watchdog.remove(control);
            wr.outcome.status = RunStatus::Failed;
            wr.outcome.errorKind = SimError::Kind::Invariant;
            wr.outcome.error = e.what();
            break;
        }
    }

    wr.outcome.wallMs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());

    bm.active.sub(1);
    bm.wallMs.observe(static_cast<double>(wr.outcome.wallMs));
    CampaignLedger::countFinal(wr.outcome.status);
    return wr;
}

} // namespace

std::vector<RunOutcome>
runBatch(const std::vector<RunSpec> &specs, const BatchOptions &opt)
{
    unsigned jobs = opt.jobs;
    if (jobs == 0)
        jobs = std::thread::hardware_concurrency();
    if (jobs == 0)
        jobs = 1;
    jobs = static_cast<unsigned>(
        std::min<std::size_t>(jobs, specs.size()));
    if (jobs == 0)
        jobs = 1;

    CampaignLedger ledger(opt);
    batchMetrics().specs.add(specs.size());

    std::vector<std::uint64_t> fingerprints;
    fingerprints.reserve(specs.size());
    for (const RunSpec &spec : specs)
        fingerprints.push_back(fingerprintSpec(spec));

    g_batchSigint = 0;
    auto prevHandler = std::signal(SIGINT, batchSigintHandler);

    std::vector<RunOutcome> outcomes(specs.size());
    {
        BatchWatchdog watchdog;
        ThreadPool pool(jobs);
        std::vector<std::future<WorkerResult>> futures(specs.size());

        for (std::size_t i = 0; i < specs.size(); ++i) {
            unsigned prior = 0;
            if (ledger.restore(fingerprints[i], outcomes[i], prior))
                continue;
            const RunSpec &spec = specs[i];
            std::uint64_t fp = fingerprints[i];
            futures[i] = pool.submit([&spec, fp, prior, &opt,
                                      &watchdog] {
                return runOne(spec, fp, prior, opt, watchdog);
            });
        }

        // Collect strictly in input order: observability commits and
        // manifest records land deterministically, so the final JSON
        // report is identical whether runs were live, retried, or
        // restored from the checkpoint.
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (!outcomes[i].fromCheckpoint) {
                WorkerResult wr = futures[i].get();
                outcomes[i] = std::move(wr.outcome);
                ledger.record(fingerprints[i], outcomes[i]);
                if (wr.output.traced)
                    recordTrace(wr.output.traceJsonl);
            }
            commitOutcomeReport(fingerprints[i], outcomes[i]);
        }
    }

    std::signal(SIGINT, prevHandler);
    return outcomes;
}

RunOutcome
runIsolated(const RunSpec &spec, const BatchOptions &opt,
            unsigned priorAttempts)
{
    // No signal-handler swap and no latch reset: the caller (the
    // campaign worker) owns interruption policy across runs.
    BatchWatchdog watchdog;
    return runOne(spec, fingerprintSpec(spec), priorAttempts, opt,
                  watchdog)
        .outcome;
}

void
requestBatchInterrupt()
{
    g_batchSigint = 1;
}

void
commitOutcomeReport(std::uint64_t fingerprint,
                    const RunOutcome &outcome)
{
    // A failed run still appears in the report array, as a small
    // object carrying the failure instead of results, so a campaign's
    // report accounts for every spec.
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
    char *end = nullptr;
    double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || !std::isfinite(v) || v <= 0.0)
        ipref_raise(ConfigError,
                    "IPREF_SCALE must be a finite number > 0 (got "
                    "\"%s\")",
                    s);
    return v;
}

} // namespace ipref
