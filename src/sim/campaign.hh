/**
 * @file
 * Campaign checkpointing: an append-only JSON-lines manifest mapping
 * spec fingerprints to run outcomes, one line appended after every
 * run so an interrupted batch (crash, SIGKILL, Ctrl-C) can resume
 * without re-running finished work — and without perturbing the
 * results, which round-trip bit-exactly (counters are serialized as
 * hex strings). The ledger on top of it is the one checkpoint policy
 * of both the in-process batch runner and the campaign coordinator.
 */

#ifndef IPREF_SIM_CAMPAIGN_HH
#define IPREF_SIM_CAMPAIGN_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "util/error.hh"

namespace ipref
{

struct BatchOptions;
struct JsonValue;
struct RunSpec;

namespace metrics
{
class Counter;
class Gauge;
} // namespace metrics

/** Terminal status of one run in a batch. */
enum class RunStatus : std::uint8_t
{
    Ok,          //!< completed; results are valid
    Failed,      //!< threw (after exhausting any retries)
    TimedOut,    //!< exceeded the per-run deadline
    Interrupted, //!< cancelled by SIGINT / batch shutdown
    Quarantined, //!< poison spec: repeated worker deaths on this
                 //!< fingerprint (distributed campaigns only)
};

/** Stable lower-case name ("ok", "failed", ...). */
const char *runStatusName(RunStatus s);

/** Parse runStatusName() output back (unknown -> Failed). */
RunStatus parseRunStatus(const std::string &name);

/**
 * 64-bit fingerprint over every RunSpec field that affects results.
 * Two specs collide only if they would produce identical runs, so the
 * manifest can key completed work on it across process restarts.
 */
std::uint64_t fingerprintSpec(const RunSpec &spec);

/** Exact JSON serialization of SimResults (counters as hex strings). */
std::string resultsToJson(const SimResults &r);

/** Inverse of resultsToJson (ipc is recomputed, not stored). */
Expected<SimResults> resultsFromJson(const JsonValue &v);

/**
 * Campaign manifest format version: the journal's header line. Entries
 * are keyed by fingerprintSpec(), so this moves with its salt.
 */
constexpr int kManifestVersion = 3;

/** What one spec's failure domain produced: the only per-run record. */
struct RunOutcome
{
    RunStatus status = RunStatus::Failed;
    SimResults results;              //!< valid when ok()
    std::string error;               //!< what() of the final failure
    SimError::Kind errorKind = SimError::Kind::Invariant;
    unsigned attempts = 0;           //!< lifetime attempts (spans resume)
    std::uint64_t wallMs = 0;        //!< this invocation's wall time
    bool fromCheckpoint = false;     //!< restored, not re-run

    /**
     * The run's buffered JSON report ("" when reporting is off or the
     * run never produced one). Carried on the outcome so a remote
     * worker can ship it back to the coordinator, which re-commits
     * reports in input order for a bit-identical report array.
     */
    std::string jsonReport;

    bool ok() const { return status == RunStatus::Ok; }
};

/**
 * Write @p o's JSON members (status, attempts, wall_ms, then results
 * or error_kind/error, then json_report when there is one), each
 * preceded by ", ". A manifest entry and the worker's outcome wire
 * line both append them after their own leading members.
 */
void writeOutcomeFields(std::ostream &os, const RunOutcome &o);

/**
 * Inverse of writeOutcomeFields over the object @p v that holds the
 * members (fromCheckpoint stays false). A malformed results object
 * is an Io error; a missing one throws, like any JsonValue::at().
 */
Expected<RunOutcome> outcomeFromJson(const JsonValue &v);

/** One run as remembered by the manifest. */
struct ManifestEntry
{
    std::uint64_t fingerprint = 0;
    RunOutcome outcome;
};

/**
 * A campaign manifest as read back from disk (resume and monitoring).
 * The file is a journal: the header line `{"version": 3}`, then one
 * entry object per line, each `{"fingerprint": ...}` plus
 * writeOutcomeFields(). A fingerprint recorded more than once keeps
 * its last line.
 */
class CampaignManifest
{
  public:
    /**
     * Read and parse @p path. A last line without its '\n' is an
     * append cut short: it is dropped, and tornBytes() says how long
     * it was. A missing, unreadable or otherwise corrupt file is an
     * answer, not an exception (the caller decides whether to start
     * fresh), hence Expected; so is a manifest of another version,
     * whose error has kind Config.
     */
    static Expected<CampaignManifest> load(const std::string &path);

    std::size_t size() const { return order_.size(); }

    /** Entry for @p fingerprint, or nullptr. */
    const ManifestEntry *find(std::uint64_t fingerprint) const;

    /** Every entry in first-record order (monitoring / tooling). */
    std::vector<const ManifestEntry *> entriesInOrder() const;

    /** Length of the file's complete lines: where appends resume. */
    std::uint64_t completeBytes() const { return completeBytes_; }

    /** Length of the torn last line load() dropped (0: none). */
    std::uint64_t tornBytes() const { return tornBytes_; }

  private:
    std::vector<std::uint64_t> order_; //!< first-record order
    std::map<std::uint64_t, ManifestEntry> entries_;
    std::uint64_t completeBytes_ = 0;
    std::uint64_t tornBytes_ = 0;
};

/**
 * The write side of a campaign manifest: the file itself, opened once
 * with O_APPEND under an exclusive flock(2). The lock is the
 * single-writer guard: a second coordinator or batch targeting the
 * same manifest fails fast with SimError(Io) instead of interleaving
 * appends. The file is only ever appended to or cut back, never
 * replaced, so the lock on its inode holds for the whole campaign.
 *
 * The lock is per open-file-description, so two ManifestLocks in one
 * process conflict just like two processes do. Released (and the fd
 * closed) on destruction.
 */
class ManifestLock
{
  public:
    ManifestLock() = default;

    /** Open @p manifestPath (created empty when missing, its bytes
     *  otherwise left as they are) and lock it; throws SimError(Io)
     *  when it is held elsewhere or cannot be opened. */
    explicit ManifestLock(const std::string &manifestPath);

    ~ManifestLock() { release(); }

    ManifestLock(ManifestLock &&other) noexcept
        : fd_(other.fd_), size_(other.size_)
    {
        other.fd_ = -1;
    }

    ManifestLock &
    operator=(ManifestLock &&other) noexcept
    {
        if (this != &other) {
            release();
            fd_ = other.fd_;
            size_ = other.size_;
            other.fd_ = -1;
        }
        return *this;
    }

    ManifestLock(const ManifestLock &) = delete;
    ManifestLock &operator=(const ManifestLock &) = delete;

    bool held() const { return fd_ >= 0; }

    void release();

    /** Cut the file back to its first @p bytes (0: start fresh).
     *  Throws SimError(Io). */
    void truncate(std::uint64_t bytes);

    /**
     * Append the entry line for @p fingerprint and @p outcome with one
     * write(2); into an empty file, the header line goes first in the
     * same write. Throws SimError(Io), transient-flagged when the
     * errno is; a write that fails part-way is cut back off, so the
     * next line never lands on a torn one.
     */
    void append(std::uint64_t fingerprint, const RunOutcome &outcome);

  private:
    int fd_ = -1;
    std::uint64_t size_ = 0; //!< file length after our last change
};

/**
 * Live batch telemetry (the ipref_batch_* instruments ipref_top
 * renders as "done / total"), shared by runBatch, its workers and
 * the campaign coordinator. `completed` counts fresh runs reaching a
 * final status in this process; `restored` counts checkpoint
 * restores (done = completed + restored).
 */
struct BatchMetrics
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
};

/** The process-wide batch instruments (registered on first use). */
BatchMetrics &batchMetrics();

/**
 * The checkpoint policy runBatch() and runCampaign() share: it holds
 * the manifest lock, loads the manifest on resume, restores Ok
 * entries, records outcomes, and owns the retry backoff and the
 * final-status counters.
 */
class CampaignLedger
{
  public:
    /**
     * Lock opt.manifestPath (none = no checkpointing). Without
     * opt.resume the manifest is emptied; with it, it is loaded and
     * later outcomes are appended to it (a torn last line is cut off
     * with a warning first). A missing, unreadable or corrupt
     * manifest warns and starts fresh; one of another version throws
     * ConfigError naming both versions and is left untouched, so an
     * old campaign is never overwritten. Throws SimError(Io) when
     * another process holds the lock.
     */
    explicit CampaignLedger(const BatchOptions &opt);

    /**
     * Resume the spec with @p fingerprint: @p priorAttempts receives
     * the lifetime attempts its entry already consumed (0 without
     * one), so attempt numbering continues across the resume. An Ok
     * entry is also restored into @p out (fromCheckpoint, wallMs 0,
     * counted as restored) and true is returned.
     */
    bool restore(std::uint64_t fingerprint, RunOutcome &out,
                 unsigned &priorAttempts);

    /**
     * Checkpoint @p outcome: append its line (no-op without a
     * manifest). Safe to call from several threads. A failed write
     * warns and the campaign goes on: results are still returned,
     * only resumability is lost.
     */
    void record(std::uint64_t fingerprint, const RunOutcome &outcome);

    /**
     * Milliseconds to wait before retrying after lifetime attempt
     * @p attempt failed: exponential from opt.retryBaseMs, capped at
     * opt.retryCapMs, with jitter from the project RNG keyed on
     * (fingerprint, attempt), so a replayed campaign waits the same.
     */
    static std::uint64_t backoffMs(const BatchOptions &opt,
                                   std::uint64_t fingerprint,
                                   unsigned attempt);

    /** Count one fresh run reaching final status @p s. */
    static void countFinal(RunStatus s);

  private:
    std::mutex recordMutex_;  //!< serializes record()'s appends
    ManifestLock journal_;
    CampaignManifest loaded_; //!< what a resume read back
};

} // namespace ipref

#endif // IPREF_SIM_CAMPAIGN_HH
