/**
 * @file
 * Trace files: the v4 format, its writer, its frame layer and the
 * mmap-backed reader.
 *
 * A file holds the records of packed_chunk.hh, one chunk per frame.
 * All integers are little-endian:
 *
 *   header (24 B):
 *     [ 0, 8)  magic "IPRTRC04"
 *     [ 8,16)  u64 record count
 *     [16,20)  u32 records per chunk (traceChunkRecords)
 *     [20,24)  u32 CRC32 of bytes [0,20)
 *
 *   frame, one per chunk (n = min(4096, records left)), to EOF:
 *     [ 0, 4)  u32 bytes after the CRC: 32 + n * (8 packed | 32 raw)
 *     [ 4, 8)  u32 CRC32 of those bytes
 *     [ 8,16)  u64 first pc      } the chunk's entry; all three
 *     [16,24)  u64 code base     } zero in a raw chunk
 *     [24,32)  u64 data base     }
 *     [32,36)  u32 n
 *     [36,40)  u32 kind (1 packed, 0 raw)
 *     [40, ..) the n records
 *
 * Every byte is covered: the magic by the magic check, the header by
 * its CRC, a frame's size by its agreement with the header count and
 * the frame's kind, and the rest by the frame CRC. Corruption,
 * truncation and records no writer produces surface as TraceError
 * (with byte offset and record index) — never as a process abort and
 * never as garbage records. TraceReadMode::Tolerant instead ends the
 * stream at the last intact frame and reports what was salvaged. A
 * file with any other magic, including captures in the retired
 * v1-v3 formats, is rejected with a TraceError.
 */

#ifndef IPREF_TRACE_TRACE_FILE_HH
#define IPREF_TRACE_TRACE_FILE_HH

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "trace/packed_chunk.hh"
#include "trace/trace_source.hh"
#include "util/error.hh"
#include "util/mmap_file.hh"

namespace ipref
{

/** File header size in bytes. */
inline constexpr std::size_t traceHeaderBytes = 24;

/** Frame bytes before a chunk's records: size, CRC and the entry. */
inline constexpr std::size_t traceFrameBytes = 40;

/** How a trace reader treats a damaged file. */
enum class TraceReadMode
{
    Strict,  //!< any corruption throws TraceError
    Tolerant //!< end the stream at the valid prefix; see corrupt()
};

/** Streams InstrRecords into a trace file, one sealed chunk a frame. */
class TraceFileWriter
{
  public:
    /**
     * Open @p path for writing; throws TraceError (with errno
     * context) on failure.
     */
    explicit TraceFileWriter(const std::string &path);
    ~TraceFileWriter();

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    /**
     * Append one record; throws TraceError on I/O failure and on a
     * record no reader would accept (an op class past NumOpClasses or
     * a register byte of numRegs or more).
     */
    void
    write(const InstrRecord &rec)
    {
        // numRegs is a power of two: the OR is below it iff each is.
        if (rec.op >= OpClass::NumOpClasses ||
            (rec.srcReg[0] | rec.srcReg[1] | rec.dstReg) >= numRegs)
            refuse(rec);
        pending_[pendingCount_++] = rec;
        ++count_;
        if (pendingCount_ == traceChunkRecords)
            flushChunk();
    }

    /**
     * Flush the trailing chunk, rewrite the header with the final
     * count, and verify the flush and close succeeded — a disk-full
     * truncation is reported here (as TraceError), not at next read.
     */
    void close();

    /** Records written so far. */
    std::uint64_t count() const { return count_; }

  private:
    void writeHeader();
    void flushChunk();
    [[noreturn]] void refuse(const InstrRecord &rec) const;

    std::FILE *file_ = nullptr;
    std::string path_;
    std::uint64_t count_ = 0;
    std::uint64_t fileOff_;            //!< byte offset of the next frame
    std::vector<InstrRecord> pending_; //!< the chunk being filled
    std::size_t pendingCount_ = 0;     //!< records in pending_
    std::vector<unsigned char> frame_; //!< frame scratch
    bool closed_ = false;
};

/** One validated frame of a mapped trace file. */
struct TraceFrame
{
    ChunkEntry entry;
    const unsigned char *records = nullptr; //!< in the mapping
    std::size_t count = 0;
    std::uint64_t next = traceHeaderBytes; //!< offset of the next frame
};

/**
 * The frame layer of one mapped trace file: the header is validated
 * on open, then any frame is validated whole (size, CRC, entry and
 * records) before a consumer sees it. It keeps no cursor, so one
 * routine serves both consumers: MappedTraceReader unpacks each frame
 * in place, and TraceCache copies each into its chunk arrays.
 */
class TraceFrames
{
  public:
    /**
     * Map @p path; throws TraceError on a missing file, any magic but
     * IPRTRC04 (the message names the bytes found), or a corrupt
     * header (nothing trustworthy to salvage, even in tolerant mode).
     */
    explicit TraceFrames(const std::string &path);

    /** Total records promised by the (untrusted) header. */
    std::uint64_t count() const { return count_; }

    /**
     * Most records the file can actually hold: the header count,
     * capped by the mapped bytes (every record takes at least 8).
     */
    std::uint64_t recordBound() const;

    /** Mapped file size in bytes. */
    std::uint64_t fileBytes() const { return map_.size(); }

    /** Drop the mapped pages below @p fileOff (MappedFile). */
    void releaseBefore(std::uint64_t fileOff) { map_.releaseBefore(fileOff); }

    /**
     * Validate the frame at byte @p fileOff, which must hold the
     * records from @p firstRecord on, into @p out. Returns false once
     * @p firstRecord reaches the header count. Any damage throws a
     * TraceError carrying the path, byte offset and record index.
     */
    bool frame(std::uint64_t fileOff, std::uint64_t firstRecord,
               TraceFrame &out) const;

  private:
    MappedFile map_;
    std::string path_;
    std::uint64_t count_ = 0;
};

/**
 * Zero-copy reader: the file is mmap()ed and nextBatch() unpacks
 * records straight out of each validated frame — no per-record
 * syscalls, no staging buffer, about 1 MiB of the file resident.
 */
class MappedTraceReader final : public TraceSource
{
  public:
    /** Open @p path; throws as TraceFrames does. */
    explicit MappedTraceReader(const std::string &path,
                               TraceReadMode mode =
                                   TraceReadMode::Strict);

    bool next(InstrRecord &out) override { return nextBatch({&out, 1}) == 1; }
    std::size_t nextBatch(std::span<InstrRecord> out) override;
    void reset() override;
    std::uint64_t sizeHint() const override { return count(); }

    /** Total records promised by the header. */
    std::uint64_t count() const { return frames_.count(); }

    /** Tolerant mode: did the stream end early on corruption? */
    bool corrupt() const { return corrupt_; }

    /** Tolerant mode: human-readable description of the damage. */
    const std::string &corruptionDetail() const { return detail_; }

    /** Records successfully delivered since open/reset. */
    std::uint64_t delivered() const { return delivered_; }

    /** Mapped file size in bytes. */
    std::uint64_t fileBytes() const { return frames_.fileBytes(); }

    /** Packed and raw chunks reached since open/reset. */
    std::uint64_t packedChunks() const { return chunks_[1]; }
    std::uint64_t rawChunks() const { return chunks_[0]; }

  private:
    /** Move to the next frame; false at the end or (tolerant) on
     *  damage. */
    bool advance();

    TraceFrames frames_;
    TraceReadMode mode_;

    TraceFrame cur_;             //!< frame being consumed
    std::uint64_t curFirst_ = 0; //!< record index of cur_'s first
    std::size_t pos_ = 0;        //!< record index into cur_
    Addr pc_ = 0;                //!< pc of record pos_, as unpacking needs
    std::uint64_t delivered_ = 0;
    std::uint64_t chunks_[2] = {0, 0};

    bool corrupt_ = false;
    bool ended_ = false;
    std::string detail_;
};

/** Open the trace file @p path (see MappedTraceReader). */
std::unique_ptr<MappedTraceReader>
openTraceReader(const std::string &path,
                TraceReadMode mode = TraceReadMode::Strict);

} // namespace ipref

#endif // IPREF_TRACE_TRACE_FILE_HH
