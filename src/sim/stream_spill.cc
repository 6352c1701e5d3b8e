#include "sim/stream_spill.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include <fcntl.h>
#include <unistd.h>

#include "trace/packed_chunk.hh"
#include "util/crc32.hh"
#include "util/error.hh"
#include "util/fault_inject.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "workload/presets.hh"
#include "workload/workload.hh"

namespace ipref
{

namespace
{

struct SpillMetrics
{
    metrics::Counter &generated;
    metrics::Counter &replayed;
    metrics::Counter &bytes;
};

SpillMetrics &
spillMetrics()
{
    metrics::Registry &reg = metrics::registry();
    static SpillMetrics refs{
        reg.counter("ipref_stream_records_generated_total",
                    "walker records generated into a batch's spill"),
        reg.counter("ipref_stream_records_replayed_total",
                    "spilled records read back by the runs"),
        reg.counter("ipref_stream_spill_bytes_total",
                    "sealed chunk bytes written to spill files"),
    };
    return refs;
}

/**
 * A read-write temp file in @p dir with no name, so no error, kill or
 * interrupt can leave it behind; -1 (errno set) when none can be made.
 */
int
openUnlinkedFile(const std::string &dir)
{
    int fd = ::open(dir.c_str(), O_TMPFILE | O_RDWR | O_CLOEXEC, 0600);
    if (fd >= 0)
        return fd;
    // A filesystem without O_TMPFILE: create, then unlink at once.
    std::string path = dir + "/ipref-spill-XXXXXX";
    fd = ::mkostemp(path.data(), O_CLOEXEC);
    if (fd >= 0)
        ::unlink(path.c_str());
    return fd;
}

/** One spilled chunk: where it is, how it unpacks, its CRC. */
struct Chunk
{
    std::uint64_t offset = 0;
    ChunkEntry entry;
    std::uint32_t crc = 0;

    std::size_t
    bytes() const
    {
        return traceChunkRecords * chunkRecordBytes(entry.packed);
    }
};

} // namespace

std::vector<StreamKey>
generatorStreams(const SystemConfig &cfg)
{
    if (cfg.trace.enabled())
        return {};
    const std::vector<WorkloadKind> &w = cfg.workloads;
    if (w.empty())
        ipref_raise(ConfigError, "no workloads configured");
    if (w.size() != 1 && w.size() != cfg.numCores && cfg.numCores != 1)
        ipref_raise(ConfigError,
                    "workload list must have 1 entry, numCores "
                    "entries, or run on a single core (time-sliced)");
    std::vector<StreamKey> keys;
    // A time-sliced single core runs one walker per application.
    const std::size_t n = cfg.numCores == 1 ? w.size() : cfg.numCores;
    for (std::size_t i = 0; i < n; ++i)
        keys.push_back({w.size() == 1 ? w[0] : w[i],
                        static_cast<CoreId>(i), cfg.baseSeed});
    return keys;
}

/** One shared stream: its walker, its temp file and chunk index. */
class StreamSpill::Entry
{
  public:
    /** @p uses: the specs that will open the stream. */
    Entry(const StreamKey &key, int fd, const std::string &dir,
          unsigned uses)
        : key_(key), fd_(fd), dir_(dir), unopened_(uses)
    {}

    ~Entry() { ::close(fd_); }

    Entry(const Entry &) = delete;
    Entry &operator=(const Entry &) = delete;

    /** Count a new reader; false once the entry has retired. */
    bool
    attach()
    {
        std::lock_guard<std::mutex> gen(genMutex_);
        if (unopened_ == 0 && readers_ == 0)
            return false;
        if (unopened_ > 0)
            --unopened_;
        ++readers_;
        return true;
    }

    /**
     * Drop a reader. Once every expected open has come and gone, no run
     * needs the stream again (a retry walks its own), so the walker
     * and the index go before the batch ends.
     */
    void
    detach()
    {
        std::lock_guard<std::mutex> gen(genMutex_);
        if (--readers_ > 0 || unopened_ > 0)
            return;
        walker_.reset();
        std::lock_guard<std::mutex> lock(indexMutex_);
        index_ = {};
    }

    /** Chunk @p i, generating the chunks up to it first. */
    Chunk
    chunk(std::size_t i)
    {
        {
            std::lock_guard<std::mutex> lock(indexMutex_);
            if (i < index_.size())
                return index_[i];
        }
        std::lock_guard<std::mutex> gen(genMutex_);
        while (true) {
            {
                std::lock_guard<std::mutex> lock(indexMutex_);
                if (i < index_.size())
                    return index_[i];
            }
            generate();
        }
    }

    /** Read @p c into @p buf (sized to it) and check its CRC. */
    void
    read(const Chunk &c, std::vector<unsigned char> &buf) const
    {
        buf.resize(c.bytes());
        std::size_t got = 0;
        int err = 0;
        if (fault::shouldFire("spill.read"))
            err = EIO;
        while (err == 0 && got < buf.size()) {
            ssize_t n = ::pread(fd_, buf.data() + got, buf.size() - got,
                                static_cast<off_t>(c.offset + got));
            if (n > 0)
                got += static_cast<std::size_t>(n);
            else if (n == 0)
                break;
            else if (errno != EINTR)
                err = errno;
        }
        if (got < buf.size())
            throw SimError(SimError::Kind::Io,
                           describe("short read of", err));
        if (crc32Fast(buf.data(), buf.size()) != c.crc)
            throw SimError(SimError::Kind::Io,
                           describe("CRC mismatch in", 0));
        spillMetrics().replayed.add(traceChunkRecords);
    }

  private:
    /** Generate, seal and append the next chunk; genMutex_ held. */
    void
    generate()
    {
        if (!lost_.empty())
            throw SimError(SimError::Kind::Io, lost_);
        try {
            if (!walker_)
                walker_ = makeWorkload(key_.kind, key_.core,
                                       key_.baseSeed);
            // Scratch per call, not per entry: a pool thread runs one
            // generation at a time, so a batch holds at most one set
            // of these per thread rather than one per shared stream.
            std::vector<InstrRecord> recs(traceChunkRecords);
            walker_->nextBatch(recs);
            auto sealed = std::make_unique_for_overwrite<unsigned char[]>(
                traceChunkRecords * sizeof(InstrRecord));
            Chunk c{end_, sealChunk(recs, sealed.get()), 0};
            c.crc = crc32Fast(sealed.get(), c.bytes());
            writeAll(sealed.get(), c.bytes());
            end_ += c.bytes();
            {
                std::lock_guard<std::mutex> lock(indexMutex_);
                index_.push_back(c);
            }
            spillMetrics().generated.add(traceChunkRecords);
            spillMetrics().bytes.add(c.bytes());
        } catch (const std::exception &e) {
            // The walker may have moved past records the file lacks:
            // no later chunk can take their place.
            lost_ = e.what();
            throw;
        }
    }

    /** pwrite @p n bytes at end_; throws SimError(Io) on failure. */
    void
    writeAll(const unsigned char *p, std::size_t n)
    {
        std::size_t done = 0;
        int err = fault::shouldFire("spill.write") ? EIO : 0;
        while (err == 0 && done < n) {
            ssize_t w = ::pwrite(fd_, p + done, n - done,
                                 static_cast<off_t>(end_ + done));
            if (w > 0)
                done += static_cast<std::size_t>(w);
            else if (w == 0)
                err = EIO;
            else if (errno != EINTR)
                err = errno;
        }
        if (err != 0)
            throw SimError(SimError::Kind::Io,
                           describe("cannot write", err));
    }

    std::string
    describe(const char *what, int err) const
    {
        return detail::formatMessage(
            "stream spill in '%s': %s the %s core %u stream%s%s",
            dir_.c_str(), what, workloadName(key_.kind), key_.core,
            err ? ": " : "", err ? std::strerror(err) : "");
    }

    const StreamKey key_;
    const int fd_;
    const std::string &dir_;

    std::mutex genMutex_;
    std::unique_ptr<Workload> walker_; //!< made at the first chunk
    std::uint64_t end_ = 0;            //!< file bytes written
    std::string lost_;                 //!< why the stream broke off
    unsigned unopened_;                //!< expected opens still to come
    unsigned readers_ = 0;             //!< live readers

    std::mutex indexMutex_;
    std::vector<Chunk> index_;
};

/** A System core's cursor over one entry's chunks. */
class StreamSpill::Reader final : public TraceSource
{
  public:
    /** @p entry must have attach()ed this reader. */
    explicit Reader(Entry &entry) : entry_(entry) {}
    ~Reader() override { entry_.detach(); }

    Reader(const Reader &) = delete;
    Reader &operator=(const Reader &) = delete;

    std::size_t
    nextBatch(std::span<InstrRecord> out) override
    {
        std::size_t n = 0;
        while (n < out.size()) {
            if (pos_ == traceChunkRecords) {
                chunk_ = entry_.chunk(next_);
                entry_.read(chunk_, buf_);
                ++next_;
                pos_ = 0;
            }
            const std::size_t take =
                std::min(out.size() - n, traceChunkRecords - pos_);
            pc_ = unpackChunk(chunk_.entry, buf_.data(), pos_, pc_,
                              out.subspan(n, take));
            pos_ += take;
            n += take;
        }
        return n;
    }

    void
    reset() override
    {
        next_ = 0;
        pos_ = traceChunkRecords;
    }

  private:
    Entry &entry_;
    Chunk chunk_;
    std::vector<unsigned char> buf_; //!< chunk_'s sealed bytes
    std::size_t next_ = 0;           //!< index of the chunk after chunk_
    std::size_t pos_ = traceChunkRecords; //!< next record in chunk_
    Addr pc_ = 0;
};

StreamSpill::StreamSpill(std::span<const SystemConfig> configs)
{
    std::map<StreamKey, unsigned> uses;
    for (const SystemConfig &cfg : configs) {
        try {
            for (const StreamKey &key : generatorStreams(cfg))
                ++uses[key];
        } catch (const ConfigError &) {
            // The run reports its bad workload list itself.
        }
    }
    const char *tmp = std::getenv("TMPDIR");
    dir_ = tmp && *tmp ? tmp : "/tmp";
    for (const auto &[key, n] : uses) {
        if (n < 2)
            continue;
        int fd = openUnlinkedFile(dir_);
        if (fd < 0) {
            ipref_warn("stream spill: cannot create a temp file in "
                       "'%s' (%s); each run generates its own streams",
                       dir_.c_str(), std::strerror(errno));
            entries_.clear();
            return;
        }
        entries_.emplace(key,
                         std::make_unique<Entry>(key, fd, dir_, n));
    }
}

StreamSpill::~StreamSpill() = default;

std::unique_ptr<TraceSource>
StreamSpill::open(const StreamKey &key)
{
    auto it = entries_.find(key);
    if (it == entries_.end() || !it->second->attach())
        return nullptr;
    return std::make_unique<Reader>(*it->second);
}

} // namespace ipref
