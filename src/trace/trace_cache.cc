#include "trace/trace_cache.hh"

#include <algorithm>
#include <array>
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
static_assert(offsetof(PackedRecord, opTaken) == 4);

/** Per opTaken byte, from InstrRecord's own predicates, all-ones masks:
 *  does operandOffset hold a target (code) or a dataAddr (data), and
 *  does the op send the fetch stream to its target (redirect)? */
struct Lanes
{
    std::uint64_t code, data, redirect;
};
const std::array<Lanes, 256> opLanes = [] {
    std::array<Lanes, 256> lanes{};
    for (unsigned b = 0; b < lanes.size(); ++b) {
        InstrRecord r;
        r.op = static_cast<OpClass>(b & 0x7f);
        r.taken = (b & 0x80) != 0;
        lanes[b] = {0 - std::uint64_t{r.isCti()},
                    0 - std::uint64_t{r.isMem()},
                    0 - std::uint64_t{r.redirects()}};
    }
    return lanes;
}();

/** Expand @p p, whose pc is @p pc, into @p out from a chunk based at
 *  @p codeBase and @p dataBase, branch-free; returns the next pc. */
inline Addr
unpack(const PackedRecord &p, Addr pc, Addr codeBase, Addr dataBase,
       InstrRecord &out)
{
    std::uint64_t word; // operandOffset, opTaken, src0, src1, dst
    std::memcpy(&word, &p, sizeof word);
    const Addr offset = word & 0xffffffff;
    const std::uint64_t tail = word >> 32;
    const Lanes &lanes = opLanes[tail & 0xff];
    const Addr target = (codeBase + offset) & lanes.code;
    const std::uint64_t last =
        (tail & 0x7f) | ((tail >> 7) & 1) << 8 | (tail >> 8) << 16;
    out.pc = pc;
    out.target = target;
    out.dataAddr = (dataBase + offset) & lanes.data;
    std::memcpy(reinterpret_cast<unsigned char *>(&out) +
                    offsetof(InstrRecord, op),
                &last, sizeof last);
    return (target & lanes.redirect) |
           ((pc + instrBytes) & ~lanes.redirect);
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

    // Blocks decode onto the end of the staged records and count once
    // whole; full chunks are sealed off the front. Block damage is
    // recorded, never thrown: the one entry serves strict and tolerant
    // acquirers, and strict ones get it re-raised per acquire.
    std::vector<InstrRecord> stage;
    std::size_t staged = 0;
    std::uint64_t off = traceV3HeaderBytes;
    std::uint64_t used = 0;
    try {
        while (file.blockSize(used) != 0) {
            off = file.decode(off, used, [&](std::size_t n) {
                stage.resize(std::max(stage.size(), staged + n));
                return stage.data() + staged;
            });
            staged += file.blockSize(used);
            used += file.blockSize(used);
            std::size_t done = 0;
            for (; staged - done >= chunkRecords; done += chunkRecords)
                out->seal({stage.data() + done, chunkRecords}, bound);
            staged -= done;
            std::memmove(stage.data(), stage.data() + done,
                         staged * sizeof(InstrRecord));
            file.releaseBefore(off); // hold records, not the file too
        }
    } catch (const TraceError &e) {
        out->corrupt = true;
        out->corruptionDetail = e.what();
    }
    if (staged != 0)
        out->seal({stage.data(), staged}, bound);
    return out;
}

void
DecodedTrace::seal(std::span<const InstrRecord> recs, std::size_t bound)
{
    Addr pc = recs.front().pc;
    Addr codeLo = ~Addr{0}, codeHi = 0, dataLo = ~Addr{0}, dataHi = 0;
    std::uint64_t stray = 0; // nonzero once any record breaks the rule
    for (const InstrRecord &r : recs) {
        const Lanes &l = opLanes[static_cast<unsigned>(r.op) | r.taken << 7];
        stray |= (r.pc ^ pc) | (r.target & ~l.code) |
                 (r.dataAddr & ~l.data) |
                 std::uint64_t{r.op >= OpClass::NumOpClasses};
        codeLo = std::min(codeLo, r.target | ~l.code);
        codeHi = std::max(codeHi, r.target & l.code);
        dataLo = std::min(dataLo, r.dataAddr | ~l.data);
        dataHi = std::max(dataHi, r.dataAddr & l.data);
        pc = (r.target & l.redirect) | ((r.pc + instrBytes) & ~l.redirect);
    }
    // With no CTI (no Load/Store) the span wraps to 1 and passes.
    constexpr Addr span = std::numeric_limits<std::uint32_t>::max();
    const bool packs =
        stray == 0 && codeHi - codeLo <= span && dataHi - dataLo <= span;

    chunks_.push_back({recs.front().pc, codeLo, dataLo,
                       static_cast<std::uint32_t>(
                           (packs ? packed_.size() : raw_.size()) /
                           chunkRecords),
                       packs});
    if (packs) {
        for (const InstrRecord &r : recs) {
            const unsigned opTaken =
                static_cast<unsigned>(r.op) | r.taken << 7;
            const Lanes &l = opLanes[opTaken];
            PackedRecord p;
            p.operandOffset = static_cast<std::uint32_t>(
                ((r.target - codeLo) & l.code) |
                ((r.dataAddr - dataLo) & l.data));
            p.opTaken = static_cast<std::uint8_t>(opTaken);
            p.src0 = r.srcReg[0];
            p.src1 = r.srcReg[1];
            p.dst = r.dstReg;
            packed_.push_back(p);
        }
    } else {
        if (raw_.empty())
            raw_.reserve(bound - size_);
        raw_.insert(raw_.end(), recs.begin(), recs.end());
    }
    size_ += recs.size();
}

Addr
DecodedTrace::copy(std::size_t first, Addr pc,
                   std::span<InstrRecord> out) const
{
    ipref_assert(first <= size_ && out.size() <= size_ - first);
    InstrRecord *dst = out.data();
    for (std::size_t left = out.size(); left != 0;) {
        const Chunk &chunk = chunks_[first / chunkRecords];
        const std::size_t at = first % chunkRecords;
        const std::size_t n = std::min(left, chunkRecords - at);
        const std::size_t begin = chunk.slot * chunkRecords + at;
        if (chunk.packed) {
            const PackedRecord *src = packed_.data() + begin;
            const Addr codeBase = chunk.codeBase;
            const Addr dataBase = chunk.dataBase;
            pc = at == 0 ? chunk.firstPc : pc;
            for (std::size_t i = 0; i < n; ++i)
                pc = unpack(src[i], pc, codeBase, dataBase, dst[i]);
        } else {
            // No pc needed: the next chunk brings its own first pc.
            std::memcpy(dst, raw_.data() + begin,
                        n * sizeof(InstrRecord));
        }
        dst += n;
        first += n;
        left -= n;
    }
    return pc;
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
