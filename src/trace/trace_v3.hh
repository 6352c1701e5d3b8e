/**
 * @file
 * Trace format v3: columnar delta+varint block codec, the block layer
 * every reader decodes through, and the mmap-backed zero-copy reader.
 *
 * v3 layout (all integers little-endian):
 *
 *   header (48B):
 *     [ 0, 8)  magic "IPRTRC03"
 *     [ 8,16)  u64 record count
 *     [16,20)  u32 records per block (K)
 *     [20,24)  u32 flags (bit0: data-address column present)
 *     [24,44)  reserved (zero)
 *     [44,48)  u32 CRC32 of bytes [0,44)
 *
 *   block (n = min(K, remaining records)), repeated to EOF:
 *     u32 payload bytes
 *     u32 CRC32 of the payload
 *     payload, six columns back to back:
 *       pc:      varint(pc[0]), then svarint(pc[i] - pc[i-1])
 *       op:      run-length pairs (u8 op class, varint run) summing
 *                to n
 *       taken:   bitmap, ceil(n/8) bytes, LSB-first
 *       target:  presence bitmap (target != 0), then per present
 *                record svarint(target - pc)
 *       data:    [flags bit0 only] presence bitmap (dataAddr != 0),
 *                then per present record svarint(dataAddr - prev),
 *                prev starting at 0 per block
 *       regs:    3 bytes per record (src0, src1, dst)
 *
 * Every block decodes independently (PC and data-address deltas
 * restart per block), so tolerant mode salvages the intact prefix at
 * block granularity. The preset workload streams encode in about 6.9
 * bytes/record against the 29 bytes of a record's raw fields.
 */

#ifndef IPREF_TRACE_TRACE_V3_HH
#define IPREF_TRACE_TRACE_V3_HH

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "trace/trace_file.hh"
#include "trace/trace_source.hh"
#include "util/mmap_file.hh"

namespace ipref
{

/** v3 header size in bytes. */
inline constexpr std::size_t traceV3HeaderBytes = 48;

/** v3 block frame: u32 payload bytes + u32 payload CRC. */
inline constexpr std::size_t traceV3FrameBytes = 8;

/**
 * Fewest payload bytes one record can occupy: its register triple.
 * Bounds how many records a file of a given size can hold.
 */
inline constexpr std::size_t traceV3MinRecordBytes = 3;

/**
 * Most payload bytes a block of @p n records can occupy: per record a
 * 10-byte varint each for pc, target and data address, a 2-byte op
 * run pair and the register triple (35 bytes), plus the three
 * ceil(n/8)-byte bitmaps. The encoder sizes its output buffer with it
 * and the reader rejects any frame claiming more.
 */
constexpr std::uint64_t
traceV3MaxBlockBytes(std::uint64_t n)
{
    return n * 35 + 3 * ((n + 7) / 8);
}

/** v3 header flags. */
inline constexpr std::uint32_t traceV3FlagDataAddr = 1u << 0;

/**
 * Encode @p records as one v3 block payload into @p out (replacing its
 * contents). Framing (payload size + CRC) is the caller's job.
 */
void encodeTraceBlockV3(std::span<const InstrRecord> records,
                        bool dataAddresses,
                        std::vector<unsigned char> &out);

/**
 * Decode one v3 block payload of @p n records into @p out[0, n).
 * Throws TraceError (without file context — the caller decorates) on
 * malformed input, leaving @p out partly written.
 */
void decodeTraceBlockV3(const unsigned char *payload,
                        std::size_t payloadBytes, std::size_t n,
                        bool dataAddresses, InstrRecord *out);

/**
 * The block layer of one mapped v3 file: the header is validated on
 * open, then any block's frame is validated (size bounds, CRC) and
 * its columns decoded straight into caller memory. It keeps no
 * cursor, so one routine serves both consumers: MappedTraceReader
 * decodes one block ahead of its reader into a vector, and TraceCache
 * decodes a whole file in place into its record array.
 */
class TraceV3Blocks
{
  public:
    /**
     * Map @p path; throws TraceError on a missing file, any magic but
     * IPRTRC03 (the message names the bytes found), or a corrupt
     * header (nothing trustworthy to salvage, even in tolerant mode).
     */
    explicit TraceV3Blocks(const std::string &path);

    /** Total records promised by the (untrusted) header. */
    std::uint64_t count() const { return count_; }

    /**
     * Most records the file can actually hold: the header count,
     * capped by what the mapped bytes can encode (every valid frame
     * spends at least traceV3MinRecordBytes per record). Decoding a
     * file's blocks in sequence never yields more.
     */
    std::uint64_t recordBound() const;

    /** Records per block from the header. */
    std::uint32_t blockRecords() const { return blockRecords_; }

    /** Does the file carry the data-address column? */
    bool hasDataAddresses() const { return hasData_; }

    /** Mapped file size in bytes. */
    std::uint64_t fileBytes() const { return map_.size(); }

    /** Drop the decoded pages below @p fileOff (MappedFile). */
    void releaseBefore(std::uint64_t fileOff) { map_.releaseBefore(fileOff); }

    /** Records in the block whose first record is @p firstRecord
     *  (0 past the end of the stream). */
    std::size_t blockSize(std::uint64_t firstRecord) const;

    /**
     * Validate the frame at byte @p fileOff (size bounds, CRC), then
     * decode the blockSize(@p firstRecord) records behind it into the
     * storage @p room(n) returns for them. The consumer sizes its
     * storage only once the frame has proven plausible, so a crafted
     * size never drives an allocation. Returns the offset of the
     * next frame. Any damage throws a TraceError carrying the path,
     * frame offset and record index.
     */
    std::uint64_t
    decode(std::uint64_t fileOff, std::uint64_t firstRecord,
           const std::function<InstrRecord *(std::size_t)> &room) const;

  private:
    MappedFile map_;
    std::string path_;
    std::uint64_t count_ = 0;
    std::uint32_t blockRecords_ = 0;
    bool hasData_ = false;
};

/**
 * Zero-copy v3 reader: the file is mmap()ed, blocks are
 * CRC-verified and decoded (by TraceV3Blocks) into a reusable record
 * buffer one block ahead of the consumer, and nextBatch() serves
 * straight memcpy()s out of that buffer — no per-record syscalls, no
 * steady-state allocation, about 1 MiB of the file resident.
 */
class MappedTraceReader final : public TraceSource
{
  public:
    /** Open @p path; throws as TraceV3Blocks does. */
    explicit MappedTraceReader(const std::string &path,
                               TraceReadMode mode =
                                   TraceReadMode::Strict);

    bool next(InstrRecord &out) override;
    std::size_t nextBatch(std::span<InstrRecord> out) override;
    void reset() override;
    std::uint64_t sizeHint() const override { return count(); }

    /** Total records promised by the header. */
    std::uint64_t count() const { return blocks_.count(); }

    /** Tolerant mode: did the stream end early on corruption? */
    bool corrupt() const { return corrupt_; }

    /** Tolerant mode: human-readable description of the damage. */
    const std::string &corruptionDetail() const { return detail_; }

    /** Records successfully delivered since open/reset. */
    std::uint64_t delivered() const { return deliveredTotal_; }

    /** Mapped file size in bytes. */
    std::uint64_t fileBytes() const { return blocks_.fileBytes(); }

    /** Records per block from the header. */
    std::uint32_t blockRecords() const
    {
        return blocks_.blockRecords();
    }

    /** Does the file carry the data-address column? */
    bool hasDataAddresses() const { return blocks_.hasDataAddresses(); }

  private:
    /**
     * Decode the block at @p fileOff into @p out (resized); returns
     * false at end of stream or (tolerant) on damage. @p firstRecord
     * is the index of the block's first record.
     */
    bool decodeBlockAt(std::uint64_t fileOff,
                       std::uint64_t firstRecord,
                       std::vector<InstrRecord> &out,
                       std::uint64_t &nextOff);

    /** Advance cur_ to the decoded-ahead block, decode one further. */
    bool advance();

    /** Raise @p err (Strict) or record it and end the stream. */
    bool damaged(const TraceError &err);

    TraceV3Blocks blocks_;
    TraceReadMode mode_;

    std::vector<InstrRecord> cur_;   //!< block being consumed
    std::vector<InstrRecord> ahead_; //!< decoded one block ahead
    std::size_t curPos_ = 0;         //!< record index into cur_
    bool haveAhead_ = false;
    std::uint64_t aheadOff_ = 0;     //!< file offset after ahead_
    std::uint64_t aheadFirst_ = 0;   //!< ahead_'s first record index
    std::uint64_t deliveredTotal_ = 0;

    bool corrupt_ = false;
    bool ended_ = false;
    std::string detail_;
};

/** Open the v3 trace file @p path (see MappedTraceReader). */
std::unique_ptr<MappedTraceReader>
openTraceReader(const std::string &path,
                TraceReadMode mode = TraceReadMode::Strict);

} // namespace ipref

#endif // IPREF_TRACE_TRACE_V3_HH
