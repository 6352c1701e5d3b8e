#include "sim/experiment.hh"

#include <chrono>
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
#include "util/rng.hh"
#include "util/thread_pool.hh"
#include "util/trace_event.hh"

namespace ipref
{

namespace
{

/**
 * Live campaign telemetry: batch-level progress counters ipref_top
 * renders as "done / total" plus per-run wall-time distribution.
 * `completed` counts fresh runs reaching a final status this process;
 * `restored` counts checkpoint restores (done = completed + restored).
 */
struct BatchMetricRefs
{
    metrics::Counter &specs;
    metrics::Counter &started;
    metrics::Counter &ok;
    metrics::Counter &failed;
    metrics::Counter &timedOut;
    metrics::Counter &interrupted;
    metrics::Counter &restored;
    metrics::Counter &completed;
    metrics::Counter &attempts;
    metrics::Counter &retries;
    metrics::Gauge &active;
    metrics::LatencyHistogram &wallMs;
};

BatchMetricRefs &
batchMetrics()
{
    static BatchMetricRefs refs{
        metrics::registry().counter("ipref_batch_specs_total",
                                    "specs submitted to runBatch"),
        metrics::registry().counter("ipref_batch_runs_started_total",
                                    "runs entering their failure "
                                    "domain"),
        metrics::registry().counter("ipref_batch_runs_ok_total",
                                    "runs finishing Ok"),
        metrics::registry().counter("ipref_batch_runs_failed_total",
                                    "runs finishing Failed"),
        metrics::registry().counter("ipref_batch_runs_timeout_total",
                                    "runs finishing TimedOut"),
        metrics::registry().counter(
            "ipref_batch_runs_interrupted_total",
            "runs finishing Interrupted"),
        metrics::registry().counter(
            "ipref_batch_runs_restored_total",
            "runs restored from a campaign checkpoint"),
        metrics::registry().counter(
            "ipref_batch_runs_completed_total",
            "fresh runs reaching any final status"),
        metrics::registry().counter("ipref_batch_attempts_total",
                                    "produceRun attempts (incl. "
                                    "retries)"),
        metrics::registry().counter("ipref_batch_retries_total",
                                    "attempts beyond a run's first"),
        metrics::registry().gauge("ipref_batch_active_runs",
                                  "runs currently executing"),
        metrics::registry().histogram(
            "ipref_batch_run_wall_ms", metrics::defaultMsBounds(),
            "per-run wall time incl. retries (ms)"),
    };
    return refs;
}

ObservabilityOptions g_observability;

/**
 * The installed report sink. g_reportMutex guards the pointer itself;
 * sinks are internally thread-safe, so holders may use a grabbed
 * shared_ptr without the lock. Lazily defaults to a FileReportSink
 * over the (empty) default ObservabilityOptions.
 */
std::mutex g_reportMutex;
std::shared_ptr<ReportSink> g_reportSink;
bool g_flushRegistered = false;

std::shared_ptr<ReportSink>
currentSink()
{
    std::lock_guard<std::mutex> lock(g_reportMutex);
    if (!g_reportSink)
        g_reportSink = std::make_shared<FileReportSink>(
            g_observability.jsonPath, g_observability.tracePath);
    return g_reportSink;
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

/**
 * Commit one run's side effects, in input order: buffer the JSON
 * report and hand the trace tail to the sink (which, for the default
 * file sink, overwrites the trace file so it holds the most recent
 * run — the sequential behaviour).
 */
void
commitRun(RunOutput &&out)
{
    std::shared_ptr<ReportSink> sink = currentSink();
    if (!out.jsonReport.empty())
        sink->recordReport(out.jsonReport);
    if (out.traced)
        sink->recordTrace(out.traceJsonl);
}

} // namespace

// --- report sink ------------------------------------------------------

FileReportSink::FileReportSink(std::string jsonPath,
                               std::string tracePath)
    : jsonPath_(std::move(jsonPath)), tracePath_(std::move(tracePath))
{}

void
FileReportSink::recordReport(const std::string &json)
{
    std::lock_guard<std::mutex> lock(mu_);
    reports_.push_back(json);
    dirty_ = true;
}

void
FileReportSink::recordTrace(const std::string &jsonl)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (tracePath_.empty())
        return;
    std::ofstream trace(tracePath_);
    if (trace)
        trace << jsonl;
}

void
FileReportSink::flush()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!dirty_ || jsonPath_.empty())
        return;
    std::ofstream out(jsonPath_);
    if (!out) {
        // Runs from atexit(): aborting the whole process over a report
        // it was already exiting from helps nobody — warn and keep the
        // buffered reports for a later explicit flush.
        ipref_warn("cannot write JSON report to '%s'",
                   jsonPath_.c_str());
        return;
    }
    out << "[\n";
    for (std::size_t i = 0; i < reports_.size(); ++i)
        out << (i ? ",\n" : "") << reports_[i];
    // Trailing campaign-summary document: process-wide shared-decode
    // effectiveness for the whole report. Tooling distinguishes it
    // from per-run reports by the absence of a "results" section.
    if (!reports_.empty()) {
        TraceCache::Stats tc = TraceCache::instance().stats();
        out << ",\n{\"campaign_summary\": {\"trace_cache\": "
            << "{\"decodes\": " << tc.decodes
            << ", \"hits\": " << tc.hits
            << ", \"evictions\": " << tc.evictions
            << ", \"stale_reloads\": " << tc.staleReloads << "}}}\n";
    }
    out << "]\n";
    dirty_ = false;
}

void
setReportSink(std::shared_ptr<ReportSink> sink)
{
    std::lock_guard<std::mutex> lock(g_reportMutex);
    g_reportSink = std::move(sink);
}

std::shared_ptr<ReportSink>
reportSink()
{
    return currentSink();
}

void
commitSystemReport(const System &system)
{
    std::ostringstream report;
    system.dumpJson(report);
    currentSink()->recordReport(report.str());
}

void
flushObservability()
{
    currentSink()->flush();
}

void
setObservability(const ObservabilityOptions &opts)
{
    std::lock_guard<std::mutex> lock(g_reportMutex);
    g_observability = opts;
    // Installing options resets the sink: buffered reports from a
    // previous configuration are dropped, as before.
    g_reportSink = std::make_shared<FileReportSink>(opts.jsonPath,
                                                    opts.tracePath);
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
    if (s.instrScale <= 0.0)
        ipref_raise(ConfigError,
                    "RunSpec: instrScale must be > 0 (got %g)",
                    s.instrScale);
    if (s.memGbPerSec < 0.0)
        ipref_raise(ConfigError,
                    "RunSpec: memGbPerSec must be >= 0 (got %g)",
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
    SimResults results = out.results;
    commitRun(std::move(out));
    return results;
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

/** A worker's full product: the public outcome + buffered output. */
struct WorkerResult
{
    RunOutcome outcome;
    RunOutput output;
};

/**
 * One spec's failure domain: run, catch, classify, retry transient
 * failures with capped exponential backoff and deterministic jitter.
 * Attempt numbers continue from @p priorAttempts (a resumed failed
 * entry), keeping fault gating and jitter reproducible across resume.
 */
WorkerResult
runOne(const RunSpec &spec, std::uint64_t fingerprint,
       unsigned priorAttempts, const BatchOptions &opt,
       BatchWatchdog &watchdog)
{
    WorkerResult wr;
    auto t0 = std::chrono::steady_clock::now();
    unsigned maxAttempts = opt.maxAttempts ? opt.maxAttempts : 1;

    BatchMetricRefs &bm = batchMetrics();
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
            // Capped exponential backoff; the jitter comes from the
            // project's deterministic RNG keyed on (fingerprint,
            // attempt), so a replayed campaign waits identically.
            std::uint64_t base = opt.retryBaseMs ? opt.retryBaseMs : 1;
            unsigned shift = local - 1 < 20 ? local - 1 : 20;
            std::uint64_t delay = base << shift;
            if (opt.retryCapMs && delay > opt.retryCapMs)
                delay = opt.retryCapMs;
            Rng rng(fingerprint ^
                    (0x9e3779b97f4a7c15ULL * attempt));
            std::uint64_t jittered =
                delay / 2 + rng.below(delay / 2 + 1);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(jittered));
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
    bm.completed.add(1);
    bm.wallMs.observe(static_cast<double>(wr.outcome.wallMs));
    switch (wr.outcome.status) {
      case RunStatus::Ok:
        bm.ok.add(1);
        break;
      case RunStatus::Failed:
        bm.failed.add(1);
        break;
      case RunStatus::TimedOut:
        bm.timedOut.add(1);
        break;
      case RunStatus::Interrupted:
        bm.interrupted.add(1);
        break;
      case RunStatus::Quarantined:
        // runOne never quarantines (that is a coordinator decision);
        // count it as a failure if it ever shows up here.
        bm.failed.add(1);
        break;
    }
    return wr;
}

/**
 * A failed run still appears in the JSON report array, as a small
 * object carrying the failure instead of results, so a campaign's
 * report accounts for every spec.
 */
void
commitFailure(std::uint64_t fingerprint, const RunOutcome &outcome)
{
    std::ostringstream report;
    report << "{\"fingerprint\": " << jsonString(jsonHex(fingerprint))
           << ", \"status\": "
           << jsonString(runStatusName(outcome.status))
           << ", \"error_kind\": "
           << jsonString(errorKindName(outcome.errorKind))
           << ", \"error\": " << jsonString(outcome.error)
           << ", \"attempts\": " << outcome.attempts
           << ", \"wall_ms\": " << outcome.wallMs << "}";
    currentSink()->recordReport(report.str());
}

/** Re-commit a checkpointed run's buffered report, in input order. */
void
commitCheckpointed(const ManifestEntry &entry)
{
    if (entry.jsonReport.empty())
        return;
    currentSink()->recordReport(entry.jsonReport);
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

    // Single-writer guard: a second coordinator/batch pointed at the
    // same manifest fails fast instead of interleaving checkpoints.
    ManifestLock manifestLock;
    if (!opt.manifestPath.empty())
        manifestLock = ManifestLock(opt.manifestPath);

    CampaignManifest manifest =
        !opt.manifestPath.empty() && opt.resume
            ? CampaignManifest::loadForResume(opt.manifestPath)
            : CampaignManifest(opt.manifestPath);

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
        std::vector<const ManifestEntry *> checkpointed(specs.size(),
                                                        nullptr);

        for (std::size_t i = 0; i < specs.size(); ++i) {
            unsigned prior = 0;
            if (opt.resume) {
                const ManifestEntry *e =
                    manifest.find(fingerprints[i]);
                if (e && e->status == RunStatus::Ok) {
                    checkpointed[i] = e;
                    continue;
                }
                prior = e ? e->attempts : 0;
            }
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
            if (checkpointed[i]) {
                const ManifestEntry &e = *checkpointed[i];
                RunOutcome &o = outcomes[i];
                o.status = RunStatus::Ok;
                o.results = e.results;
                o.attempts = e.attempts;
                o.wallMs = 0;
                o.fromCheckpoint = true;
                o.jsonReport = e.jsonReport;
                batchMetrics().restored.add(1);
                commitCheckpointed(e);
                continue;
            }
            WorkerResult wr = futures[i].get();
            wr.outcome.jsonReport = wr.output.jsonReport;
            outcomes[i] = wr.outcome;

            if (!opt.manifestPath.empty()) {
                ManifestEntry e;
                e.fingerprint = fingerprints[i];
                e.status = wr.outcome.status;
                e.attempts = wr.outcome.attempts;
                e.wallMs = wr.outcome.wallMs;
                e.errorKind = wr.outcome.errorKind;
                e.errorMessage = wr.outcome.error;
                e.results = wr.outcome.results;
                e.jsonReport = wr.output.jsonReport;
                try {
                    manifest.record(std::move(e));
                } catch (const SimError &err) {
                    ipref_warn("checkpoint write failed: %s",
                               err.what());
                }
            }
            if (!wr.outcome.ok())
                commitFailure(fingerprints[i], wr.outcome);
            commitRun(std::move(wr.output));
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
    WorkerResult wr = runOne(spec, fingerprintSpec(spec),
                             priorAttempts, opt, watchdog);
    wr.outcome.jsonReport = std::move(wr.output.jsonReport);
    return wr.outcome;
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
    if (!outcome.ok())
        commitFailure(fingerprint, outcome);
    if (!outcome.jsonReport.empty())
        currentSink()->recordReport(outcome.jsonReport);
}

std::vector<SimResults>
runSpecs(const std::vector<RunSpec> &specs, unsigned jobs)
{
    // Compatibility wrapper over the fault-tolerant runner: every run
    // still executes in its own failure domain (so one bad spec can't
    // abort in-flight work), but the first failure surfaces as an
    // exception once the batch has drained.
    BatchOptions opt;
    opt.jobs = jobs;
    opt.maxAttempts = 1;
    std::vector<RunOutcome> outcomes = runBatch(specs, opt);

    std::vector<SimResults> results;
    results.reserve(outcomes.size());
    for (const RunOutcome &outcome : outcomes) {
        if (!outcome.ok())
            throw SimError(outcome.errorKind, outcome.error);
        results.push_back(outcome.results);
    }
    return results;
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
    double v = std::strtod(s, nullptr);
    return v > 0 ? v : 1.0;
}

} // namespace ipref
