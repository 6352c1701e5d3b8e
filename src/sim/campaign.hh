/**
 * @file
 * Campaign checkpointing: a JSON manifest mapping spec fingerprints to
 * completed results, written atomically after every run so an
 * interrupted batch (crash, SIGKILL, Ctrl-C) can resume without
 * re-running finished work — and without perturbing the results, which
 * round-trip bit-exactly (counters are serialized as hex strings).
 */

#ifndef IPREF_SIM_CAMPAIGN_HH
#define IPREF_SIM_CAMPAIGN_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "util/error.hh"

namespace ipref
{

struct RunSpec;
struct JsonValue;

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
 * Campaign manifest format version. Manifests are keyed by
 * fingerprintSpec(), so this moves with its salt.
 */
constexpr int kManifestVersion = 2;

/** One run as remembered by the manifest. */
struct ManifestEntry
{
    std::uint64_t fingerprint = 0;
    RunStatus status = RunStatus::Failed;
    unsigned attempts = 0;
    std::uint64_t wallMs = 0;
    SimError::Kind errorKind = SimError::Kind::Invariant;
    std::string errorMessage;
    SimResults results;     //!< valid when status == Ok
    std::string jsonReport; //!< buffered observability report ("" = none)
};

/**
 * The on-disk campaign state. Every record() persists the whole
 * manifest via temp-file + rename, so a reader never observes a
 * partially written file no matter when the process dies.
 */
class CampaignManifest
{
  public:
    CampaignManifest() = default;
    explicit CampaignManifest(std::string path) : path_(std::move(path))
    {}

    /**
     * Read and parse @p path. A missing, unreadable or corrupt file is
     * an answer, not an exception (the caller decides whether to start
     * fresh), hence Expected; so is a manifest of another version,
     * whose error has kind Config.
     */
    static Expected<CampaignManifest> load(const std::string &path);

    /**
     * The manifest a --resume run starts from. A missing, unreadable
     * or corrupt file warns and starts fresh (an empty manifest bound
     * to @p path); a manifest of another version throws ConfigError
     * naming both versions, so an old campaign is never overwritten.
     */
    static CampaignManifest loadForResume(const std::string &path);

    const std::string &path() const { return path_; }
    std::size_t size() const { return order_.size(); }

    /** Entry for @p fingerprint, or nullptr. */
    const ManifestEntry *find(std::uint64_t fingerprint) const;

    /** Every entry in stable record order (monitoring / tooling). */
    std::vector<const ManifestEntry *> entriesInOrder() const;

    /** Insert/replace @p entry; persists when a path is set. */
    void record(ManifestEntry entry);

    /**
     * Write the manifest atomically (temp-file + rename). Throws
     * SimError(Io) on failure, transient-flagged when the errno is.
     */
    void write() const;

  private:
    std::string path_;
    std::vector<std::uint64_t> order_; //!< stable dump order
    std::map<std::uint64_t, ManifestEntry> entries_;
};

/**
 * Advisory single-writer guard for a campaign manifest. Acquiring
 * takes an exclusive flock(2) on `<manifestPath>.lock` (a sidecar —
 * the manifest itself is replaced by rename() on every write, which
 * would silently drop a lock held on the old inode). A second
 * coordinator or batch targeting the same manifest fails fast with
 * SimError(Io) instead of interleaving checkpoint writes.
 *
 * The lock is per open-file-description, so two ManifestLocks in one
 * process conflict just like two processes do. Released (and the fd
 * closed) on destruction; the sidecar file is left behind, which is
 * harmless — flock carries no state once every holder is gone.
 */
class ManifestLock
{
  public:
    ManifestLock() = default;

    /** Acquire for @p manifestPath; throws SimError(Io) when held
     *  elsewhere or the sidecar cannot be opened. */
    explicit ManifestLock(const std::string &manifestPath);

    ~ManifestLock() { release(); }

    ManifestLock(ManifestLock &&other) noexcept : fd_(other.fd_)
    {
        other.fd_ = -1;
    }

    ManifestLock &
    operator=(ManifestLock &&other) noexcept
    {
        if (this != &other) {
            release();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }

    ManifestLock(const ManifestLock &) = delete;
    ManifestLock &operator=(const ManifestLock &) = delete;

    bool held() const { return fd_ >= 0; }

    void release();

  private:
    int fd_ = -1;
};

} // namespace ipref

#endif // IPREF_SIM_CAMPAIGN_HH
