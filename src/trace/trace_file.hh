/**
 * @file
 * Binary trace files: the writer and the shared read options.
 *
 * One on-disk format, v3 (magic "IPRTRC03"): columnar delta+varint
 * blocks, each CRC32-protected, behind a checksummed header — see
 * trace_v3.hh for the layout. TraceFileWriter writes it; the
 * mmap-backed MappedTraceReader (trace_v3.hh, via openTraceReader())
 * reads it. A file with any other magic, including captures in the
 * retired v1/v2 formats, is rejected with a TraceError.
 *
 * Corruption, truncation and undecodable bytes surface as TraceError
 * (with byte offset and record index) — never as a process abort and
 * never as garbage records. TraceReadMode::Tolerant instead ends the
 * stream at the last intact block and reports what was salvaged.
 */

#ifndef IPREF_TRACE_TRACE_FILE_HH
#define IPREF_TRACE_TRACE_FILE_HH

#include <cstdio>
#include <string>
#include <vector>

#include "trace/record.hh"
#include "util/error.hh"

namespace ipref
{

/** Default records per columnar block (v3; larger = better batching). */
inline constexpr std::uint32_t traceV3DefaultBlockRecords = 4096;

/** How a trace reader treats a damaged file. */
enum class TraceReadMode
{
    Strict,  //!< any corruption throws TraceError
    Tolerant //!< end the stream at the valid prefix; see corrupt()
};

/** Streams InstrRecords into a v3 trace file. */
class TraceFileWriter
{
  public:
    /**
     * Open @p path for writing; throws TraceError (with errno
     * context) on failure. @p blockRecords sets the CRC block
     * granularity (0 = traceV3DefaultBlockRecords) — smaller blocks
     * waste more bytes but salvage more data from a damaged file.
     * @p dataAddresses controls the data-address column; dropping it
     * shrinks files that only feed instruction-side studies.
     */
    explicit TraceFileWriter(const std::string &path,
                             std::uint32_t blockRecords = 0,
                             bool dataAddresses = true);
    ~TraceFileWriter();

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    /** Append one record; throws TraceError on I/O failure. */
    void write(const InstrRecord &rec);

    /**
     * Flush the trailing block, rewrite the header with the final
     * count, and verify the flush and close succeeded — a disk-full
     * truncation is reported here (as TraceError), not at next read.
     */
    void close();

    /** Records written so far. */
    std::uint64_t count() const { return count_; }

  private:
    void writeHeader();
    void flushBlock();

    std::FILE *file_ = nullptr;
    std::string path_;
    std::uint64_t count_ = 0;
    std::uint64_t fileOff_;      //!< byte offset of the next frame
    std::uint32_t blockRecords_;
    bool dataAddresses_;
    std::vector<InstrRecord> pending_;   //!< pending block records
    std::vector<unsigned char> encoded_; //!< block encode scratch
    bool closed_ = false;
};

} // namespace ipref

#endif // IPREF_TRACE_TRACE_FILE_HH
