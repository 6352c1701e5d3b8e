#include "sim/campaign.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
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

namespace
{

/** Scalar counters of SimResults, by manifest key. */
struct U64Field
{
    const char *name;
    std::uint64_t SimResults::*ptr;
};

constexpr U64Field u64Fields[] = {
    {"instructions", &SimResults::instructions},
    {"cycles", &SimResults::cycles},
    {"fetch_line_accesses", &SimResults::fetchLineAccesses},
    {"l1i_misses", &SimResults::l1iMisses},
    {"l1i_eliminated", &SimResults::l1iEliminated},
    {"l1i_first_use_hits", &SimResults::l1iFirstUseHits},
    {"l1i_late_hits", &SimResults::l1iLateHits},
    {"l2i_misses", &SimResults::l2iMisses},
    {"l1d_accesses", &SimResults::l1dAccesses},
    {"l1d_misses", &SimResults::l1dMisses},
    {"l2d_misses", &SimResults::l2dMisses},
    {"pf_candidates", &SimResults::pfCandidates},
    {"pf_issued", &SimResults::pfIssued},
    {"pf_issued_off_chip", &SimResults::pfIssuedOffChip},
    {"pf_useful", &SimResults::pfUseful},
    {"pf_late", &SimResults::pfLate},
    {"pf_useless", &SimResults::pfUseless},
    {"pf_filtered", &SimResults::pfFiltered},
    {"pf_tag_probes", &SimResults::pfTagProbes},
    {"pf_tag_probe_hits", &SimResults::pfTagProbeHits},
    {"bypass_installs", &SimResults::bypassInstalls},
    {"bypass_drops", &SimResults::bypassDrops},
    {"mem_reads", &SimResults::memReads},
    {"mem_prefetch_reads", &SimResults::memPrefetchReads},
    {"mem_writes", &SimResults::memWrites},
    {"mem_queue_delay_cycles", &SimResults::memQueueDelayCycles},
    {"branch_ctis", &SimResults::branchCtis},
    {"branch_mispredicts", &SimResults::branchMispredicts},
    {"pf_meta_entries", &SimResults::pfMetaEntries},
    {"pf_meta_bytes", &SimResults::pfMetaBytes},
    {"pf_meta_offchip_reads", &SimResults::pfMetaOffChipReads},
    {"pf_meta_offchip_writes", &SimResults::pfMetaOffChipWrites},
};

template <std::size_t N>
void
emitArray(std::ostream &os, const char *name,
          const std::array<std::uint64_t, N> &arr, bool &first)
{
    os << (first ? "" : ", ") << jsonString(name) << ": [";
    first = false;
    for (std::size_t i = 0; i < N; ++i)
        os << (i ? ", " : "") << jsonString(jsonHex(arr[i]));
    os << "]";
}

template <std::size_t N>
bool
parseArray(const JsonValue &v, const char *name,
           std::array<std::uint64_t, N> &arr, std::string &err)
{
    if (!v.has(name)) {
        err = std::string("missing array: ") + name;
        return false;
    }
    const JsonValue &a = v.at(name);
    if (a.kind != JsonValue::Array || a.items.size() != N) {
        err = std::string("bad array: ") + name;
        return false;
    }
    for (std::size_t i = 0; i < N; ++i)
        arr[i] = a.items[i].asUint();
    return true;
}

} // namespace

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
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const U64Field &f : u64Fields) {
        os << (first ? "" : ", ") << jsonString(f.name) << ": "
           << jsonString(jsonHex(r.*f.ptr));
        first = false;
    }
    emitArray(os, "l1i_miss_by_transition", r.l1iMissByTransition,
              first);
    emitArray(os, "l2i_miss_by_transition", r.l2iMissByTransition,
              first);
    emitArray(os, "pf_issued_by_origin", r.pfIssuedByOrigin, first);
    emitArray(os, "pf_useful_by_origin", r.pfUsefulByOrigin, first);
    emitArray(os, "cpi_stack", r.cpiStack, first);
    os << "}";
    return os.str();
}

Expected<SimResults>
resultsFromJson(const JsonValue &v)
{
    if (v.kind != JsonValue::Object)
        return SimError(SimError::Kind::Io,
                        "manifest results: not an object");
    SimResults r;
    try {
        for (const U64Field &f : u64Fields) {
            if (!v.has(f.name))
                return SimError(SimError::Kind::Io,
                                std::string("manifest results: "
                                            "missing counter: ") +
                                    f.name);
            r.*f.ptr = v.at(f.name).asUint();
        }
        std::string err;
        if (!parseArray(v, "l1i_miss_by_transition",
                        r.l1iMissByTransition, err) ||
            !parseArray(v, "l2i_miss_by_transition",
                        r.l2iMissByTransition, err) ||
            !parseArray(v, "pf_issued_by_origin", r.pfIssuedByOrigin,
                        err) ||
            !parseArray(v, "pf_useful_by_origin", r.pfUsefulByOrigin,
                        err) ||
            !parseArray(v, "cpi_stack", r.cpiStack, err))
            return SimError(SimError::Kind::Io,
                            "manifest results: " + err);
    } catch (const std::exception &e) {
        return SimError(SimError::Kind::Io,
                        std::string("manifest results: ") + e.what());
    }
    // Recomputed exactly as System::run() does, so a checkpointed
    // result is bit-identical to a live one.
    r.ipc = r.cycles ? static_cast<double>(r.instructions) /
                           static_cast<double>(r.cycles)
                     : 0.0;
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
    o.attempts = static_cast<unsigned>(v.numberOr("attempts", 0));
    o.wallMs = static_cast<std::uint64_t>(v.numberOr("wall_ms", 0));
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
        reg.histogram("ipref_batch_run_wall_ms",
                      metrics::defaultMsBounds(),
                      "per-run wall time incl. retries (ms)"),
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
