/**
 * @file
 * Process-wide shared trace store: N concurrent runs replaying the
 * same trace file share one decode.
 *
 * TraceCache::instance().acquire(path) returns an immutable,
 * refcounted DecodedTrace — the fully decoded record array plus the
 * file's header metadata. The cache keys entries by (path,
 * fingerprint): a rewritten file (size or mtime changed) is decoded
 * fresh, and concurrent acquirers of the same key block on the one
 * in-flight decode instead of duplicating it. Entries are always
 * decoded tolerantly and remember any damage, so one entry serves
 * both strict and tolerant acquirers (strict ones get the TraceError
 * a direct strict read would have thrown).
 *
 * CachedTraceSource adapts a DecodedTrace back into the TraceSource
 * interface — each source carries its own cursor, so any number of
 * cores/runs iterate one shared decode independently.
 */

#ifndef IPREF_TRACE_TRACE_CACHE_HH
#define IPREF_TRACE_TRACE_CACHE_HH

#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "trace/trace_file.hh"
#include "trace/trace_source.hh"
#include "util/mmap_file.hh"

namespace ipref
{

/** One fully decoded, immutable trace file. */
struct DecodedTrace
{
    std::string path;
    FileFingerprint fingerprint;
    bool corrupt = false;       //!< the file had a damaged suffix
    std::string corruptionDetail;
    std::uint64_t headerCount = 0; //!< records promised by the header
    std::vector<InstrRecord> records; //!< what actually decoded
};

/**
 * The process-wide shared decode store. Thread-safe; all methods may
 * be called concurrently.
 */
class TraceCache
{
  public:
    /** Cache effectiveness counters (cumulative since clear()). */
    struct Stats
    {
        std::uint64_t decodes = 0;   //!< files actually decoded
        std::uint64_t hits = 0;      //!< acquires served from cache
        std::uint64_t evictions = 0; //!< entries dropped by LRU
        std::uint64_t staleReloads = 0; //!< fingerprint-change decodes
    };

    /** The process-wide instance. */
    static TraceCache &instance();

    /**
     * Return the decoded trace for @p path, decoding it at most once
     * per (path, fingerprint) across all threads. In Strict mode a
     * damaged file throws TraceError; Tolerant returns the salvaged
     * prefix with corrupt/corruptionDetail set.
     */
    std::shared_ptr<const DecodedTrace>
    acquire(const std::string &path,
            TraceReadMode mode = TraceReadMode::Strict);

    /** Counters snapshot. */
    Stats stats() const;

    /** Drop every entry and zero the counters (tests). */
    void clear();

    /**
     * Cap on retained entries (strong refs; least recently acquired
     * evicted first). Live shared_ptrs held by callers are unaffected
     * by eviction.
     */
    void setCapacity(std::size_t entries);

  private:
    struct Entry;

    TraceCache() = default;

    mutable std::mutex mu_;
    std::vector<std::shared_ptr<Entry>> entries_; //!< MRU first
    std::size_t capacity_ = 8;
    Stats stats_;
};

/**
 * A TraceSource iterating one shared DecodedTrace. Cheap to create;
 * each instance has an independent cursor.
 */
class CachedTraceSource final : public TraceSource
{
  public:
    explicit CachedTraceSource(
        std::shared_ptr<const DecodedTrace> trace)
        : trace_(std::move(trace))
    {}

    bool
    next(InstrRecord &out) override
    {
        if (pos_ >= trace_->records.size())
            return false;
        out = trace_->records[pos_++];
        return true;
    }

    std::size_t
    nextBatch(std::span<InstrRecord> out) override
    {
        std::size_t take = std::min(out.size(),
                                    trace_->records.size() - pos_);
        std::memcpy(out.data(), trace_->records.data() + pos_,
                    take * sizeof(InstrRecord));
        pos_ += take;
        return take;
    }

    void reset() override { pos_ = 0; }

    std::uint64_t
    sizeHint() const override
    {
        return trace_->records.size();
    }

    const DecodedTrace &trace() const { return *trace_; }

  private:
    std::shared_ptr<const DecodedTrace> trace_;
    std::size_t pos_ = 0;
};

} // namespace ipref

#endif // IPREF_TRACE_TRACE_CACHE_HH
