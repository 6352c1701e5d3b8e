#include "sim/campaign.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "sim/experiment.hh"
#include "util/fault_inject.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/rng.hh"

namespace ipref
{

const char *
runStatusName(RunStatus s)
{
    switch (s) {
      case RunStatus::Ok: return "ok";
      case RunStatus::Failed: return "failed";
      case RunStatus::TimedOut: return "timed_out";
      case RunStatus::Interrupted: return "interrupted";
      case RunStatus::Quarantined: return "quarantined";
      default: return "failed";
    }
}

RunStatus
parseRunStatus(const std::string &name)
{
    if (name == "ok")
        return RunStatus::Ok;
    if (name == "timed_out")
        return RunStatus::TimedOut;
    if (name == "interrupted")
        return RunStatus::Interrupted;
    if (name == "quarantined")
        return RunStatus::Quarantined;
    // Unknown names (from a newer writer) degrade to Failed, which a
    // resuming campaign treats as "re-run" — the safe direction.
    return RunStatus::Failed;
}

std::uint64_t
fingerprintSpec(const RunSpec &spec)
{
    // SplitMix64 chain over every result-affecting field; doubles are
    // mixed by bit pattern so the fingerprint is exact, not rounded.
    std::uint64_t h = hashString("ipref.campaign.v3");
    auto mix = [&h](std::uint64_t v) {
        std::uint64_t s = h ^ v;
        h = splitMix64(s);
    };
    auto mixDouble = [&](double d) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        mix(bits);
    };
    mix(spec.cmp ? 1 : 0);
    mix(spec.workloads.size());
    for (WorkloadKind k : spec.workloads)
        mix(static_cast<std::uint64_t>(k));
    mix(hashString(spec.schemeToken));
    mix(hashString(spec.schemeKnobs));
    mix(spec.degree);
    mix(spec.tableEntries);
    mix(spec.targetWays);
    mix(spec.bypassL2 ? 1 : 0);
    for (bool b : spec.idealEliminate)
        mix(b ? 1 : 0);
    mix(spec.useConfidenceFilter ? 1 : 0);
    mix(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(spec.historySize)));
    mix(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(spec.queueSize)));
    mixDouble(spec.memGbPerSec);
    mix(spec.functional ? 1 : 0);
    mix(spec.l2Bytes);
    mix(spec.l1iBytes);
    mix(spec.l1iAssoc);
    mix(spec.lineBytes);
    mixDouble(spec.instrScale);
    mix(spec.baseSeed);
    // `shared` is a performance knob with no effect on results, so it
    // is deliberately excluded.
    mix(hashString(spec.trace.path));
    mix(hashString(spec.trace.preset));
    mix(spec.trace.loop ? 1 : 0);
    mix(spec.trace.tolerant ? 1 : 0);
    mix(spec.faultAtInstr);
    mix(spec.faultTransient ? 1 : 0);
    mix(spec.faultAttempts);
    return h;
}

std::string
resultsToJson(const SimResults &r)
{
    std::string out = "{";
    for (const ResultsField &f : kResultsFields) {
        out += out.size() > 1 ? ", " : "";
        out += jsonString(f.name) + ": " + (f.arrayLen ? "[" : "");
        std::span<const std::uint64_t> v = f.in(r);
        for (std::size_t i = 0; i < v.size(); ++i)
            out += (i ? ", \"" : "\"") + jsonHex(v[i]) + "\"";
        out += f.arrayLen ? "]" : "";
    }
    return out + "}";
}

Expected<SimResults>
resultsFromJson(const JsonValue &v)
{
    auto bad = [](const std::string &what) {
        return SimError(SimError::Kind::Io, "manifest results: " + what);
    };
    if (v.kind != JsonValue::Object)
        return bad("not an object");
    SimResults r;
    try {
        for (const ResultsField &f : kResultsFields) {
            if (!v.has(f.name))
                return bad(std::string("missing counter: ") + f.name);
            const JsonValue &x = v.at(f.name);
            std::span<std::uint64_t> out = f.in(r);
            if (!f.arrayLen) {
                out[0] = x.asUint();
                continue;
            }
            if (x.kind != JsonValue::Array || x.items.size() != out.size())
                return bad(std::string("bad array: ") + f.name);
            for (std::size_t i = 0; i < out.size(); ++i)
                out[i] = x.items[i].asUint();
        }
    } catch (const std::exception &e) {
        return bad(e.what());
    }
    // Derived exactly as System::run() does, so a checkpointed result
    // is bit-identical to a live one.
    r.deriveIpc();
    return r;
}

void
writeOutcomeFields(std::ostream &os, const RunOutcome &o)
{
    os << ", \"status\": " << jsonString(runStatusName(o.status))
       << ", \"attempts\": " << o.attempts
       << ", \"wall_ms\": " << o.wallMs;
    if (o.ok())
        os << ", \"results\": " << resultsToJson(o.results);
    else
        os << ", \"error_kind\": "
           << jsonString(errorKindName(o.errorKind))
           << ", \"error\": " << jsonString(o.error);
    if (!o.jsonReport.empty())
        os << ", \"json_report\": " << jsonString(o.jsonReport);
}

Expected<RunOutcome>
outcomeFromJson(const JsonValue &v)
{
    RunOutcome o;
    o.status = parseRunStatus(v.stringOr("status", ""));
    std::uint64_t attempts = v.at("attempts").asUint();
    if (attempts > std::numeric_limits<unsigned>::max())
        throw std::runtime_error("JSON: attempts out of range");
    o.attempts = static_cast<unsigned>(attempts);
    o.wallMs = v.at("wall_ms").asUint();
    if (o.ok()) {
        Expected<SimResults> res = resultsFromJson(v.at("results"));
        if (!res.ok())
            return res.error();
        o.results = res.value();
    } else {
        o.errorKind = parseErrorKind(v.stringOr("error_kind", ""));
        o.error = v.stringOr("error", "");
    }
    o.jsonReport = v.stringOr("json_report", "");
    return o;
}

const ManifestEntry *
CampaignManifest::find(std::uint64_t fingerprint) const
{
    auto it = entries_.find(fingerprint);
    return it == entries_.end() ? nullptr : &it->second;
}

std::vector<const ManifestEntry *>
CampaignManifest::entriesInOrder() const
{
    std::vector<const ManifestEntry *> out;
    out.reserve(order_.size());
    for (std::uint64_t fp : order_) {
        auto it = entries_.find(fp);
        if (it != entries_.end())
            out.push_back(&it->second);
    }
    return out;
}

void
CampaignManifest::record(ManifestEntry entry)
{
    auto it = entries_.find(entry.fingerprint);
    if (it == entries_.end())
        order_.push_back(entry.fingerprint);
    entries_[entry.fingerprint] = std::move(entry);
    if (!path_.empty())
        write();
}

void
CampaignManifest::write() const
{
    if (fault::shouldFire("manifest.write"))
        throw SimError(SimError::Kind::Io,
                       "injected manifest write failure (IPREF_FAULTS "
                       "manifest.write)",
                       /*transient=*/true);
    std::string tmp = path_ + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            throw SimError(SimError::Kind::Io,
                           "cannot write campaign manifest '" + tmp +
                               "': " + std::strerror(errno),
                           isTransientErrno(errno));
        out << "{\n  \"version\": " << kManifestVersion
            << ",\n  \"runs\": [";
        bool first = true;
        for (std::uint64_t fp : order_) {
            out << (first ? "\n" : ",\n") << "    {\"fingerprint\": "
                << jsonString(jsonHex(fp));
            writeOutcomeFields(out, entries_.at(fp).outcome);
            out << "}";
            first = false;
        }
        out << (first ? "" : "\n  ") << "]\n}\n";
        out.flush();
        if (!out)
            throw SimError(SimError::Kind::Io,
                           "short write on campaign manifest '" + tmp +
                               "': " + std::strerror(errno),
                           isTransientErrno(errno));
    }
    // rename() is atomic within a filesystem: the manifest is always
    // either the old complete state or the new complete state.
    if (std::rename(tmp.c_str(), path_.c_str()) != 0)
        throw SimError(SimError::Kind::Io,
                       "cannot replace campaign manifest '" + path_ +
                           "': " + std::strerror(errno),
                       isTransientErrno(errno));
}

Expected<CampaignManifest>
CampaignManifest::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return SimError(SimError::Kind::Io,
                        "cannot open campaign manifest '" + path +
                            "': " + std::strerror(errno),
                        isTransientErrno(errno));
    std::ostringstream buf;
    buf << in.rdbuf();

    // Built with no path so record() does not rewrite the file we are
    // in the middle of reading; the path is attached at the end.
    CampaignManifest m;
    try {
        JsonValue doc = parseJson(buf.str());
        double version = doc.numberOr("version", 0);
        if (version != kManifestVersion) {
            std::ostringstream msg;
            msg << "campaign manifest '" << path << "' has version "
                << version << "; this build reads version "
                << kManifestVersion
                << " (re-run the campaign without --resume)";
            return SimError(SimError::Kind::Config, msg.str());
        }
        for (const JsonValue &run : doc.at("runs").items) {
            Expected<RunOutcome> outcome = outcomeFromJson(run);
            if (!outcome.ok())
                return outcome.error();
            m.record({run.at("fingerprint").asUint(),
                      std::move(outcome.value())});
        }
    } catch (const std::exception &e) {
        return SimError(SimError::Kind::Io,
                        "corrupt campaign manifest '" + path +
                            "': " + e.what());
    }
    m.path_ = path;
    return m;
}

ManifestLock::ManifestLock(const std::string &manifestPath)
{
    std::string lockPath = manifestPath + ".lock";
    fd_ = ::open(lockPath.c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                 0644);
    if (fd_ < 0)
        throw SimError(SimError::Kind::Io,
                       "cannot open manifest lock '" + lockPath +
                           "': " + std::strerror(errno),
                       isTransientErrno(errno));
    if (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
        int err = errno;
        ::close(fd_);
        fd_ = -1;
        if (err == EWOULDBLOCK || err == EAGAIN)
            throw SimError(SimError::Kind::Io,
                           "campaign manifest '" + manifestPath +
                               "' is locked by another coordinator "
                               "(remove '" + lockPath +
                               "' only if you are sure it is dead)");
        throw SimError(SimError::Kind::Io,
                       "cannot lock manifest '" + lockPath +
                           "': " + std::strerror(err),
                       isTransientErrno(err));
    }
}

void
ManifestLock::release()
{
    if (fd_ >= 0) {
        ::flock(fd_, LOCK_UN);
        ::close(fd_);
        fd_ = -1;
    }
}

BatchMetrics &
batchMetrics()
{
    metrics::Registry &reg = metrics::registry();
    static BatchMetrics refs{
        reg.counter("ipref_batch_specs_total",
                    "specs submitted to runBatch"),
        reg.counter("ipref_batch_runs_started_total",
                    "runs entering their failure domain"),
        reg.counter("ipref_batch_runs_ok_total", "runs finishing Ok"),
        reg.counter("ipref_batch_runs_failed_total",
                    "runs finishing Failed"),
        reg.counter("ipref_batch_runs_timeout_total",
                    "runs finishing TimedOut"),
        reg.counter("ipref_batch_runs_interrupted_total",
                    "runs finishing Interrupted"),
        reg.counter("ipref_batch_runs_restored_total",
                    "runs restored from a campaign checkpoint"),
        reg.counter("ipref_batch_runs_completed_total",
                    "fresh runs reaching any final status"),
        reg.counter("ipref_batch_attempts_total",
                    "produceRun attempts (incl. retries)"),
        reg.counter("ipref_batch_retries_total",
                    "attempts beyond a run's first"),
        reg.gauge("ipref_batch_active_runs", "runs currently executing"),
    };
    return refs;
}

CampaignLedger::CampaignLedger(const BatchOptions &opt)
{
    if (opt.manifestPath.empty())
        return;
    // Single-writer guard: a second coordinator or batch pointed at
    // the same manifest fails fast instead of interleaving writes.
    lock_ = ManifestLock(opt.manifestPath);
    manifest_ = CampaignManifest(opt.manifestPath);
    if (!opt.resume)
        return;
    Expected<CampaignManifest> loaded =
        CampaignManifest::load(opt.manifestPath);
    if (loaded.ok())
        manifest_ = std::move(loaded.value());
    else if (loaded.error().kind() == SimError::Kind::Config)
        throw ConfigError(loaded.error().what());
    else
        ipref_warn("starting campaign fresh: %s",
                   loaded.error().what());
}

bool
CampaignLedger::restore(std::uint64_t fingerprint, RunOutcome &out,
                        unsigned &priorAttempts)
{
    const ManifestEntry *e = manifest_.find(fingerprint);
    priorAttempts = e ? e->outcome.attempts : 0;
    if (!e || !e->outcome.ok())
        return false;
    out = e->outcome;
    out.wallMs = 0;
    out.fromCheckpoint = true;
    batchMetrics().restored.add(1);
    return true;
}

void
CampaignLedger::record(std::uint64_t fingerprint,
                       const RunOutcome &outcome)
{
    if (manifest_.path().empty())
        return;
    try {
        manifest_.record({fingerprint, outcome});
    } catch (const SimError &err) {
        ipref_warn("checkpoint write failed: %s", err.what());
    }
}

std::uint64_t
CampaignLedger::backoffMs(const BatchOptions &opt,
                          std::uint64_t fingerprint, unsigned attempt)
{
    std::uint64_t base = opt.retryBaseMs ? opt.retryBaseMs : 1;
    unsigned shift = attempt > 1 ? std::min(attempt - 1, 20u) : 0;
    std::uint64_t delay = base << shift;
    if (opt.retryCapMs && delay > opt.retryCapMs)
        delay = opt.retryCapMs;
    Rng rng(fingerprint ^ (0x9e3779b97f4a7c15ULL * attempt));
    return delay / 2 + rng.below(delay / 2 + 1);
}

void
CampaignLedger::countFinal(RunStatus s)
{
    BatchMetrics &bm = batchMetrics();
    bm.completed.add(1);
    switch (s) {
      case RunStatus::Ok:
        bm.ok.add(1);
        break;
      case RunStatus::TimedOut:
        bm.timedOut.add(1);
        break;
      case RunStatus::Interrupted:
        bm.interrupted.add(1);
        break;
      case RunStatus::Failed:
      case RunStatus::Quarantined:
        bm.failed.add(1);
        break;
    }
}

} // namespace ipref
