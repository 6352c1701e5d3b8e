/**
 * @file
 * Process-wide shared trace store: N concurrent runs replaying the
 * same trace file share one decode.
 *
 * TraceCache::instance().acquire(path) returns an immutable,
 * refcounted DecodedTrace — the decoded records, packed 8 B apiece
 * where their fields allow, plus the file's header metadata. The
 * cache keys entries by (path, fingerprint): a rewritten file (size
 * or mtime changed) is decoded fresh, and concurrent acquirers of the
 * same key block on the one in-flight decode instead of duplicating
 * it. Entries are always decoded tolerantly and remember any damage,
 * so one entry serves both strict and tolerant acquirers (strict ones
 * get the TraceError a direct strict read would have thrown).
 *
 * CachedTraceSource adapts a DecodedTrace back into the TraceSource
 * interface — each source carries its own cursor (index and pc), so
 * any number of cores/runs iterate one shared decode independently.
 */

#ifndef IPREF_TRACE_TRACE_CACHE_HH
#define IPREF_TRACE_TRACE_CACHE_HH

#include <algorithm>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "trace/trace_file.hh"
#include "trace/trace_source.hh"
#include "util/mmap_file.hh"

namespace ipref
{

/**
 * One replay record in 8 bytes. The pc is implied: a chunk's first
 * record takes it from the chunk table and every later one is the
 * nextPc() of the record before. The op class (bits 0-6 of `opTaken`,
 * the taken flag in bit 7) says what `operandOffset` holds: a
 * Load/Store's dataAddr less the chunk's data base, a CTI's target
 * less its code base, nothing for any other op.
 */
struct PackedRecord
{
    std::uint32_t operandOffset = 0;
    std::uint8_t opTaken = 0;
    std::uint8_t src0 = 0;
    std::uint8_t src1 = 0;
    std::uint8_t dst = 0;
};
static_assert(sizeof(PackedRecord) == 8);

/**
 * One decoded, immutable trace file, stored as fixed chunks of
 * chunkRecords records. A chunk is packed (PackedRecords) when each
 * record's pc is the nextPc() of the one before, only Load/Stores
 * carry a dataAddr and only CTIs a target, each of those two address
 * kinds spans less than 2^32 and every op is known; any other chunk
 * keeps its raw InstrRecords, so no input costs more than 32 B a
 * record. copy() unpacks either kind exactly.
 */
class DecodedTrace
{
  public:
    /** Records per chunk (the last chunk may be shorter). */
    static constexpr std::size_t chunkRecords = 4096;

    std::string path;
    FileFingerprint fingerprint;
    bool corrupt = false;       //!< the file had a damaged suffix
    std::string corruptionDetail;
    std::uint64_t headerCount = 0; //!< records promised by the header

    /** Records that actually decoded. */
    std::size_t size() const { return size_; }

    /** Records held in packed chunks. */
    std::size_t packedRecords() const { return packed_.size(); }

    /** Bytes of decoded records plus the chunk table. */
    std::size_t
    residentBytes() const
    {
        return packed_.size() * sizeof(PackedRecord) +
               raw_.size() * sizeof(InstrRecord) +
               chunks_.size() * sizeof(Chunk);
    }

    /**
     * Unpack records [@p first, @p first + out.size()) into @p out;
     * the range must lie within size(). A packed record's pc follows
     * from the record before it, so @p pc must be the pc of record
     * @p first unless that record starts a chunk. Returns the @p pc
     * a call continuing at first + out.size() needs.
     */
    Addr copy(std::size_t first, Addr pc,
              std::span<InstrRecord> out) const;

  private:
    friend class TraceCache;

    struct Chunk
    {
        Addr firstPc = 0;  //!< pc of the first record (packed chunks)
        Addr codeBase = 0; //!< lowest CTI target (packed chunks)
        Addr dataBase = 0; //!< lowest Load/Store dataAddr (packed)
        std::uint32_t slot = 0; //!< chunk index in packed_ or raw_
        bool packed = false;
    };

    /**
     * Decode @p path block by block into chunks. Block damage is
     * recorded (corrupt, corruptionDetail), never thrown, and the
     * damaged block is dropped, so the trace holds the intact prefix.
     */
    static std::shared_ptr<const DecodedTrace>
    load(const std::string &path, const FileFingerprint &fp);

    /**
     * Store @p recs (one whole chunk) packed or raw. @p bound is the
     * most records the file can hold; the first raw chunk reserves
     * room for all that remain, so the raw array never reallocates.
     */
    void seal(std::span<const InstrRecord> recs, std::size_t bound);

    std::vector<Chunk> chunks_;
    std::vector<PackedRecord> packed_;
    std::vector<InstrRecord> raw_;
    std::size_t size_ = 0;
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
        if (pos_ >= trace_->size())
            return false;
        pc_ = trace_->copy(pos_++, pc_, {&out, 1});
        return true;
    }

    std::size_t
    nextBatch(std::span<InstrRecord> out) override
    {
        std::size_t take = std::min(out.size(), trace_->size() - pos_);
        pc_ = trace_->copy(pos_, pc_, out.first(take));
        pos_ += take;
        return take;
    }

    void reset() override { pos_ = 0; }

    std::uint64_t
    sizeHint() const override
    {
        return trace_->size();
    }

    const DecodedTrace &trace() const { return *trace_; }

  private:
    std::shared_ptr<const DecodedTrace> trace_;
    std::size_t pos_ = 0;
    Addr pc_ = 0; //!< pc of record pos_, as copy() needs it
};

} // namespace ipref

#endif // IPREF_TRACE_TRACE_CACHE_HH
