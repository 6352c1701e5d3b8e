#include "trace/trace_cache.hh"

#include <algorithm>
#include <bit>
#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <limits>

#include "trace/trace_v3.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

namespace ipref
{

/**
 * A cache slot. `ready` flips under the owning cache's mutex once the
 * decode (done outside the lock) lands; racers wait on `cv`.
 */
struct TraceCache::Entry
{
    std::string path;
    FileFingerprint fingerprint;
    bool ready = false;
    bool failed = false;
    std::string failure; //!< TraceError text when failed
    std::shared_ptr<const DecodedTrace> trace;
    std::condition_variable cv;

    /** Decoded payload size counted in the resident-bytes gauge; 0
     *  until the decode lands (or when it landed after eviction). */
    std::size_t bytes = 0;
};

namespace
{

/** Live mirrors of TraceCache::Stats plus decoded-bytes residency. */
struct CacheMetricRefs
{
    metrics::Counter &hits;
    metrics::Counter &decodes;
    metrics::Counter &evictions;
    metrics::Counter &staleReloads;
    metrics::Gauge &residentBytes;
};

CacheMetricRefs &
cacheMetrics()
{
    static CacheMetricRefs refs{
        metrics::registry().counter("ipref_trace_cache_hits_total",
                                    "acquires served from cache"),
        metrics::registry().counter("ipref_trace_cache_decodes_total",
                                    "trace files actually decoded"),
        metrics::registry().counter("ipref_trace_cache_evictions_total",
                                    "entries dropped by LRU"),
        metrics::registry().counter(
            "ipref_trace_cache_stale_reloads_total",
            "re-decodes forced by a changed file fingerprint"),
        metrics::registry().gauge("ipref_trace_cache_resident_bytes",
                                  "decoded records resident in cache"),
    };
    return refs;
}

} // namespace

TraceCache &
TraceCache::instance()
{
    static TraceCache cache;
    return cache;
}

namespace
{

static_assert(static_cast<unsigned>(OpClass::NumOpClasses) <= 0x80,
              "op classes must fit PackedRecord::opTaken bits 0-6");

// unpack() writes an InstrRecord as four little-endian words: pc,
// target, dataAddr, then op, taken and the register triple in bytes
// 0-4 of the last (its 3 padding bytes become zero).
static_assert(std::endian::native == std::endian::little);
static_assert(sizeof(InstrRecord) == 32 &&
              offsetof(InstrRecord, pc) == 0 &&
              offsetof(InstrRecord, target) == 8 &&
              offsetof(InstrRecord, dataAddr) == 16 &&
              offsetof(InstrRecord, op) == 24 &&
              offsetof(InstrRecord, taken) == 25 &&
              offsetof(InstrRecord, srcReg) == 26 &&
              offsetof(InstrRecord, dstReg) == 28);
static_assert(offsetof(PackedRecord, opTaken) == 12 &&
              offsetof(PackedRecord, src0) == 13 &&
              offsetof(PackedRecord, src1) == 14 &&
              offsetof(PackedRecord, dst) == 15);

/**
 * Expand @p p (from a chunk based at @p basePc) into @p out. Every
 * input is read before the first store, so the compiler need not
 * reload them for fear the stores alias.
 */
inline void
unpack(const PackedRecord &p, Addr basePc, InstrRecord &out)
{
    static_assert(static_cast<unsigned>(OpClass::Store) ==
                  static_cast<unsigned>(OpClass::Load) + 1);
    const Addr operand = p.operand;
    const Addr pc = basePc + p.pcOffset;
    std::uint32_t tail; // opTaken, src0, src1, dst
    std::memcpy(&tail,
                reinterpret_cast<const unsigned char *>(&p) +
                    offsetof(PackedRecord, opTaken),
                sizeof tail);
    const std::uint64_t op = tail & 0x7f;
    const std::uint64_t mem =
        0 - static_cast<std::uint64_t>(
                op - static_cast<unsigned>(OpClass::Load) < 2);
    const std::uint64_t last =
        op | ((tail >> 7) & 1) << 8 |
        static_cast<std::uint64_t>(tail >> 8) << 16;
    out.pc = pc;
    out.target = operand & ~mem;
    out.dataAddr = operand & mem;
    std::memcpy(reinterpret_cast<unsigned char *>(&out) +
                    offsetof(InstrRecord, op),
                &last, sizeof last);
}

} // namespace

std::shared_ptr<const DecodedTrace>
DecodedTrace::load(const std::string &path, const FileFingerprint &fp)
{
    auto out = std::make_shared<DecodedTrace>();
    out->path = path;
    out->fingerprint = fp;

    TraceV3Blocks file(path);
    out->headerCount = file.count();
    // The header's count is untrusted, so size the tables by what the
    // mapped file can hold. Reserving every record as packed (and, at
    // the first raw chunk, every record left as raw) keeps both arrays
    // from ever reallocating; the pages the other kind leaves unused
    // are never touched.
    const auto bound = static_cast<std::size_t>(file.recordBound());
    out->packed_.reserve(bound);
    out->chunks_.reserve(
        (bound + chunkRecords - 1) / chunkRecords);

    // Each block decodes into a scratch buffer first and joins the
    // pending chunk only once it decoded whole. Block damage is
    // recorded, never thrown: the one stored entry must serve both
    // strict and tolerant acquirers, and strict ones get it re-raised
    // per acquire.
    std::vector<InstrRecord> block;
    std::vector<InstrRecord> pending;
    pending.reserve(chunkRecords);
    std::uint64_t off = traceV3HeaderBytes;
    std::uint64_t used = 0;
    try {
        while (file.blockSize(used) != 0) {
            off = file.decode(off, used, [&](std::size_t n) {
                block.resize(n);
                return block.data();
            });
            used += block.size();
            for (std::span<const InstrRecord> rest(block); !rest.empty();) {
                const std::size_t take =
                    std::min(rest.size(), chunkRecords - pending.size());
                pending.insert(pending.end(), rest.begin(),
                               rest.begin() +
                                   static_cast<std::ptrdiff_t>(take));
                rest = rest.subspan(take);
                if (pending.size() == chunkRecords) {
                    out->seal(pending, bound);
                    pending.clear();
                }
            }
        }
    } catch (const TraceError &e) {
        out->corrupt = true;
        out->corruptionDetail = e.what();
    }
    if (!pending.empty())
        out->seal(pending, bound);
    return out;
}

void
DecodedTrace::seal(std::span<const InstrRecord> recs, std::size_t bound)
{
    Addr lo = recs.front().pc;
    Addr hi = lo;
    bool packs = true;
    for (const InstrRecord &r : recs) {
        lo = std::min(lo, r.pc);
        hi = std::max(hi, r.pc);
        packs &= r.isMem() ? r.target == 0 : r.dataAddr == 0;
    }
    packs &= hi - lo <= std::numeric_limits<std::uint32_t>::max();

    Chunk chunk;
    chunk.packed = packs;
    if (packs) {
        chunk.basePc = lo;
        chunk.begin = packed_.size();
        for (const InstrRecord &r : recs) {
            PackedRecord p;
            p.operand = r.isMem() ? r.dataAddr : r.target;
            p.pcOffset = static_cast<std::uint32_t>(r.pc - lo);
            p.opTaken = static_cast<std::uint8_t>(
                static_cast<unsigned>(r.op) | (r.taken ? 0x80u : 0u));
            p.src0 = r.srcReg[0];
            p.src1 = r.srcReg[1];
            p.dst = r.dstReg;
            packed_.push_back(p);
        }
    } else {
        if (raw_.empty())
            raw_.reserve(bound - size_);
        chunk.begin = raw_.size();
        raw_.insert(raw_.end(), recs.begin(), recs.end());
    }
    chunks_.push_back(chunk);
    size_ += recs.size();
}

void
DecodedTrace::copy(std::size_t first, std::span<InstrRecord> out) const
{
    ipref_assert(first <= size_ && out.size() <= size_ - first);
    InstrRecord *dst = out.data();
    for (std::size_t left = out.size(); left != 0;) {
        const Chunk &chunk = chunks_[first / chunkRecords];
        const std::size_t at = first % chunkRecords;
        const std::size_t n = std::min(left, chunkRecords - at);
        if (chunk.packed) {
            const PackedRecord *src = packed_.data() + chunk.begin + at;
            const Addr basePc = chunk.basePc;
            for (std::size_t i = 0; i < n; ++i)
                unpack(src[i], basePc, dst[i]);
        } else {
            std::memcpy(dst, raw_.data() + chunk.begin + at,
                        n * sizeof(InstrRecord));
        }
        dst += n;
        first += n;
        left -= n;
    }
}

std::shared_ptr<const DecodedTrace>
TraceCache::acquire(const std::string &path, TraceReadMode mode)
{
    // The fingerprint read is outside the lock (stat can be slow on
    // network filesystems); a racing rewrite of the file just causes
    // one extra decode.
    FileFingerprint fp = fingerprintFile(path);

    std::shared_ptr<Entry> entry;
    bool owner = false;
    {
        std::unique_lock<std::mutex> lk(mu_);
        auto it = std::find_if(
            entries_.begin(), entries_.end(),
            [&](const auto &e) { return e->path == path; });
        if (it != entries_.end() && (*it)->fingerprint == fp &&
            !(*it)->failed) {
            entry = *it;
            // Refresh LRU position (MRU at the front). The hit is
            // counted below once the entry proves ready — whether it
            // already was or this thread waited for the decode.
            std::rotate(entries_.begin(), it, it + 1);
        } else {
            if (it != entries_.end()) {
                // Same path, different bytes (or a failed decode
                // worth retrying): replace the stale entry.
                if ((*it)->fingerprint == fp) {
                    ; // failed entry — plain retry, not staleness
                } else {
                    ++stats_.staleReloads;
                    cacheMetrics().staleReloads.add(1);
                }
                cacheMetrics().residentBytes.sub(
                    static_cast<std::int64_t>((*it)->bytes));
                entries_.erase(it);
            }
            entry = std::make_shared<Entry>();
            entry->path = path;
            entry->fingerprint = fp;
            entries_.insert(entries_.begin(), entry);
            while (entries_.size() > capacity_) {
                cacheMetrics().residentBytes.sub(
                    static_cast<std::int64_t>(entries_.back()->bytes));
                entries_.pop_back();
                ++stats_.evictions;
                cacheMetrics().evictions.add(1);
            }
            ++stats_.decodes;
            cacheMetrics().decodes.add(1);
            owner = true;
        }

        if (!owner) {
            entry->cv.wait(lk, [&] {
                return entry->ready || entry->failed;
            });
            if (entry->ready) {
                ++stats_.hits; // waited-for decode counts as a hit
                cacheMetrics().hits.add(1);
            }
        }
    }

    if (owner) {
        std::shared_ptr<const DecodedTrace> decoded;
        std::string failure;
        try {
            decoded = DecodedTrace::load(path, fp);
        } catch (const SimError &e) {
            failure = e.what();
        }
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (decoded) {
                entry->trace = decoded;
                entry->ready = true;
                // Count the payload only while the entry is actually
                // retained — it may have been evicted mid-decode.
                if (std::find(entries_.begin(), entries_.end(),
                              entry) != entries_.end()) {
                    entry->bytes = decoded->residentBytes();
                    cacheMetrics().residentBytes.add(
                        static_cast<std::int64_t>(entry->bytes));
                }
            } else {
                entry->failed = true;
                entry->failure = failure;
                // Drop the poisoned slot so a later acquire retries.
                auto it = std::find(entries_.begin(), entries_.end(),
                                    entry);
                if (it != entries_.end())
                    entries_.erase(it);
            }
        }
        entry->cv.notify_all();
    }

    if (entry->failed)
        throw TraceError(entry->failure);
    if (mode == TraceReadMode::Strict && entry->trace->corrupt)
        throw TraceError(entry->trace->corruptionDetail);
    return entry->trace;
}

TraceCache::Stats
TraceCache::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

void
TraceCache::clear()
{
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto &e : entries_)
        cacheMetrics().residentBytes.sub(
            static_cast<std::int64_t>(e->bytes));
    entries_.clear();
    stats_ = Stats{};
}

void
TraceCache::setCapacity(std::size_t entries)
{
    std::lock_guard<std::mutex> lk(mu_);
    capacity_ = entries == 0 ? 1 : entries;
    while (entries_.size() > capacity_) {
        cacheMetrics().residentBytes.sub(
            static_cast<std::int64_t>(entries_.back()->bytes));
        entries_.pop_back();
        ++stats_.evictions;
        cacheMetrics().evictions.add(1);
    }
}

} // namespace ipref
