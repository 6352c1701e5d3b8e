#include "trace/trace_cache.hh"

#include <algorithm>
#include <condition_variable>
#include <cstring>

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

std::shared_ptr<const DecodedTrace>
DecodedTrace::load(const std::string &path, const FileFingerprint &fp)
{
    auto out = std::make_shared<DecodedTrace>();
    out->path = path;
    out->fingerprint = fp;

    TraceFrames file(path);
    out->headerCount = file.count();
    // The header's count is untrusted, so size the tables by what the
    // mapped file can hold. Reserving every record as packed (and, at
    // the first raw chunk, every record left as raw) keeps both arrays
    // from ever reallocating; the pages the other kind leaves unused
    // are never touched.
    const auto bound = static_cast<std::size_t>(file.recordBound());
    out->packed_.reserve(bound);
    out->chunks_.reserve((bound + chunkRecords - 1) / chunkRecords);

    // Frame damage is recorded, never thrown: the one entry serves
    // strict and tolerant acquirers, and strict ones get it re-raised
    // per acquire.
    TraceFrame f;
    try {
        while (file.frame(f.next, out->size_, f)) {
            Chunk chunk;
            static_cast<ChunkEntry &>(chunk) = f.entry;
            auto append = [&](auto &records) {
                chunk.slot =
                    static_cast<std::uint32_t>(records.size() / chunkRecords);
                records.resize(records.size() + f.count);
                std::memcpy(records.data() + records.size() - f.count,
                            f.records, f.count * sizeof(records[0]));
            };
            if (f.entry.packed) {
                append(out->packed_);
            } else {
                if (out->raw_.empty())
                    out->raw_.reserve(bound - out->size_);
                append(out->raw_);
            }
            out->chunks_.push_back(chunk);
            out->size_ += f.count;
            file.releaseBefore(f.next); // hold records, not the file too
        }
    } catch (const TraceError &e) {
        out->corrupt = true;
        out->corruptionDetail = e.what();
    }
    return out;
}

Addr
DecodedTrace::copy(std::size_t first, Addr pc,
                   std::span<InstrRecord> out) const
{
    ipref_assert(first <= size_ && out.size() <= size_ - first);
    for (std::size_t done = 0; done < out.size();) {
        const Chunk &chunk = chunks_[first / chunkRecords];
        const std::size_t at = first % chunkRecords;
        const std::size_t n =
            std::min(out.size() - done, chunkRecords - at);
        const std::size_t begin = chunk.slot * chunkRecords;
        const auto *records =
            chunk.packed
                ? reinterpret_cast<const unsigned char *>(packed_.data() +
                                                          begin)
                : reinterpret_cast<const unsigned char *>(raw_.data() +
                                                          begin);
        pc = unpackChunk(chunk, records, at, pc, out.subspan(done, n));
        done += n;
        first += n;
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
