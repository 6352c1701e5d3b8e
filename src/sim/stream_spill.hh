/**
 * @file
 * Batch-scoped spill of shared generator streams: a walker stream that
 * two or more specs of one runBatch() use is generated once, sealed
 * into packed chunks (trace/packed_chunk) in an unlinked temp file,
 * and replayed by every System that runs it.
 */

#ifndef IPREF_SIM_STREAM_SPILL_HH
#define IPREF_SIM_STREAM_SPILL_HH

#include <compare>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "trace/trace_source.hh"

namespace ipref
{

/**
 * The identity of one generator stream: makeWorkload()'s inputs. The
 * core index sets the walk seed and the data offset, so a 1-core run
 * replays core 0 of the 4-core run of its preset, and a time-sliced
 * mix replays the 4-core Mixed run's per-core streams.
 */
struct StreamKey
{
    WorkloadKind kind = WorkloadKind::DB;
    CoreId core = 0;
    std::uint64_t baseSeed = 1;

    auto operator<=>(const StreamKey &) const = default;
};

/**
 * The generator streams a System built from @p cfg runs, in core order
 * (one per core, or one per slice of a time-sliced single core); none
 * for trace replay. Throws ConfigError when the workload list is empty
 * or has neither 1 nor numCores entries on a multi-core chip.
 */
std::vector<StreamKey> generatorStreams(const SystemConfig &cfg);

/**
 * The shared streams of one batch. Each entry owns one walker, one
 * temp file (unlinked when it is created, so nothing outlives the
 * process) and the index of the chunks written so far. The reader
 * that first needs a chunk past the end generates it under the
 * entry's generation lock; every reader pread()s and checks the
 * chunks it replays. Write and read failures throw SimError(Io)
 * naming the spill directory. Once every spec that uses a stream has
 * opened it and dropped its reader, the entry frees its walker and
 * index, and a later open() (a retry) returns null. runBatch() owns
 * one for the batch's life; every source open() returns must be
 * destroyed before it.
 */
class StreamSpill
{
  public:
    /**
     * Entries for every stream two or more of @p configs use. A config
     * generatorStreams() rejects contributes no stream. When no temp
     * file can be created the spill warns and stays empty, so every
     * run generates its own streams.
     */
    explicit StreamSpill(std::span<const SystemConfig> configs);
    ~StreamSpill();

    StreamSpill(const StreamSpill &) = delete;
    StreamSpill &operator=(const StreamSpill &) = delete;

    /** A replay of @p key 's stream; null when the batch does not
     *  share it or no longer needs it. */
    std::unique_ptr<TraceSource> open(const StreamKey &key);

    /** Streams with a spill entry. */
    std::size_t entries() const { return entries_.size(); }

  private:
    class Entry;
    class Reader;

    std::string dir_; //!< $TMPDIR, or /tmp
    std::map<StreamKey, std::unique_ptr<Entry>> entries_;
};

} // namespace ipref

#endif // IPREF_SIM_STREAM_SPILL_HH
