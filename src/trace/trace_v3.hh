/**
 * @file
 * Trace format v3: columnar delta+varint block codec and the
 * mmap-backed zero-copy reader.
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
 * block granularity. Typical instruction streams encode in ~3-4
 * bytes/record against the 29 bytes of a record's raw fields.
 */

#ifndef IPREF_TRACE_TRACE_V3_HH
#define IPREF_TRACE_TRACE_V3_HH

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

/**
 * Fewest payload bytes one record can occupy: its register triple.
 * Bounds how many records a file of a given size can hold.
 */
inline constexpr std::size_t traceV3MinRecordBytes = 3;

/** v3 header flags. */
inline constexpr std::uint32_t traceV3FlagDataAddr = 1u << 0;

/**
 * Encode @p records as one v3 block payload into @p out (cleared
 * first). Framing (payload size + CRC) is the caller's job.
 */
void encodeTraceBlockV3(std::span<const InstrRecord> records,
                        bool dataAddresses,
                        std::vector<unsigned char> &out);

/**
 * Decode one v3 block payload of @p n records into @p out (resized).
 * Throws TraceError (without file context — the caller decorates) on
 * malformed input.
 */
void decodeTraceBlockV3(const unsigned char *payload,
                        std::size_t payloadBytes, std::size_t n,
                        bool dataAddresses,
                        std::vector<InstrRecord> &out);

/**
 * Zero-copy v3 reader: the file is mmap()ed, blocks are
 * CRC-verified and decoded into a reusable record buffer one block
 * ahead of the consumer, and nextBatch() serves straight memcpy()s
 * out of that buffer — no per-record syscalls, no steady-state
 * allocation.
 */
class MappedTraceReader final : public TraceSource
{
  public:
    /**
     * Map @p path; throws TraceError on a missing file, any magic but
     * IPRTRC03 (the message names the bytes found), or a corrupt
     * header (nothing trustworthy to salvage, even in tolerant mode).
     */
    explicit MappedTraceReader(const std::string &path,
                               TraceReadMode mode =
                                   TraceReadMode::Strict);

    bool next(InstrRecord &out) override;
    std::size_t nextBatch(std::span<InstrRecord> out) override;
    void reset() override;
    std::uint64_t sizeHint() const override { return count_; }

    /** Total records promised by the header. */
    std::uint64_t count() const { return count_; }

    /** Tolerant mode: did the stream end early on corruption? */
    bool corrupt() const { return corrupt_; }

    /** Tolerant mode: human-readable description of the damage. */
    const std::string &corruptionDetail() const { return detail_; }

    /** Records successfully delivered since open/reset. */
    std::uint64_t delivered() const { return deliveredTotal_; }

    /** Mapped file size in bytes. */
    std::uint64_t fileBytes() const { return map_.size(); }

    /** Records per block from the header. */
    std::uint32_t blockRecords() const { return blockRecords_; }

    /** Does the file carry the data-address column? */
    bool hasDataAddresses() const { return hasData_; }

  private:
    /**
     * Decode the block at @p fileOff into @p out; returns false at
     * end of stream or (tolerant) on damage. @p firstRecord is the
     * index of the block's first record (error context).
     */
    bool decodeBlockAt(std::uint64_t fileOff,
                       std::uint64_t firstRecord,
                       std::vector<InstrRecord> &out,
                       std::uint64_t &nextOff);

    /** Advance cur_ to the decoded-ahead block, decode one further. */
    bool advance();

    /** Raise @p err (Strict) or record it and end the stream. */
    bool damaged(const TraceError &err);

    MappedFile map_;
    std::string path_;
    TraceReadMode mode_;
    std::uint64_t count_ = 0;
    std::uint32_t blockRecords_ = 0;
    bool hasData_ = false;

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
