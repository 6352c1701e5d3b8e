#include "trace/trace_file.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "trace/wire.hh"
#include "util/crc32.hh"
#include "util/logging.hh"

namespace ipref
{

using namespace tracewire;

namespace
{

TraceError::Context
fileContext(const std::string &path, std::uint64_t byteOffset,
            std::uint64_t recordIndex, int sysErrno = 0)
{
    TraceError::Context ctx;
    ctx.path = path;
    ctx.byteOffset = byteOffset;
    ctx.recordIndex = recordIndex;
    ctx.sysErrno = sysErrno;
    return ctx;
}

/** The 8 magic bytes at @p p, non-printable ones as \xNN escapes. */
std::string
printableMagic(const unsigned char *p)
{
    std::string out;
    for (std::size_t i = 0; i < magicBytes; ++i) {
        if (p[i] >= 0x20 && p[i] < 0x7f)
            out += static_cast<char>(p[i]);
        else
            out += detail::formatMessage("\\x%02x", p[i]);
    }
    return out;
}

/** Frame bytes the CRC covers for @p n records of a chunk. */
constexpr std::uint64_t
crcBytes(std::uint64_t n, bool packed)
{
    return traceFrameBytes - 8 + n * chunkRecordBytes(packed);
}

} // namespace

// --- TraceFileWriter -------------------------------------------------

TraceFileWriter::TraceFileWriter(const std::string &path)
    : path_(path), fileOff_(traceHeaderBytes),
      pending_(traceChunkRecords),
      frame_(traceFrameBytes + traceChunkRecords * sizeof(InstrRecord))
{
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        throw TraceError("cannot open trace file for writing",
                         fileContext(path_, 0, 0, errno),
                         isTransientErrno(errno));
    writeHeader();
}

TraceFileWriter::~TraceFileWriter()
{
    if (closed_)
        return;
    try {
        close();
    } catch (const SimError &e) {
        ipref_warn("%s", e.what());
    }
}

void
TraceFileWriter::writeHeader()
{
    unsigned char hdr[traceHeaderBytes] = {};
    std::memcpy(hdr, traceMagic, magicBytes);
    put64(hdr + 8, count_);
    put32(hdr + 16, traceChunkRecords);
    put32(hdr + 20, crc32(hdr, 20));
    if (std::fwrite(hdr, 1, traceHeaderBytes, file_) != traceHeaderBytes)
        throw TraceError("short write on trace header",
                         fileContext(path_, 0, count_, errno),
                         isTransientErrno(errno));
}

void
TraceFileWriter::flushChunk()
{
    if (pendingCount_ == 0)
        return;
    ipref_assert(file_); // no write() after close()
    const std::size_t n = pendingCount_;
    unsigned char *f = frame_.data();
    const ChunkEntry e =
        sealChunk({pending_.data(), n}, f + traceFrameBytes);
    const std::uint64_t bytes = crcBytes(n, e.packed);
    put32(f, static_cast<std::uint32_t>(bytes));
    put64(f + 8, e.firstPc);
    put64(f + 16, e.codeBase);
    put64(f + 24, e.dataBase);
    put32(f + 32, static_cast<std::uint32_t>(n));
    put32(f + 36, e.packed ? 1 : 0);
    put32(f + 4, crc32Fast(f + 8, bytes));
    if (std::fwrite(f, 1, 8 + bytes, file_) != 8 + bytes)
        throw TraceError("short write on trace chunk",
                         fileContext(path_, fileOff_, count_ - n, errno),
                         isTransientErrno(errno));
    fileOff_ += 8 + bytes;
    pendingCount_ = 0;
}

void
TraceFileWriter::refuse(const InstrRecord &rec) const
{
    throw TraceError(
        detail::formatMessage(
            "record no reader accepts: op class %u, registers %u, %u, "
            "%u (at most %u op classes and %u registers)",
            static_cast<unsigned>(rec.op), rec.srcReg[0], rec.srcReg[1],
            rec.dstReg, static_cast<unsigned>(OpClass::NumOpClasses),
            numRegs),
        fileContext(path_, fileOff_, count_));
}

void
TraceFileWriter::close()
{
    if (closed_)
        return;
    closed_ = true;
    std::FILE *f = file_;

    // Every step is verified: a disk-full truncation that fwrite
    // buffered silently must be caught here, not at the next read.
    // fail() releases the handle before throwing (fclose frees the
    // FILE even when it reports an error).
    auto fail = [&](const char *what) {
        int err = errno;
        if (file_) {
            file_ = nullptr;
            std::fclose(f);
        }
        throw TraceError(what, fileContext(path_, 0, count_, err),
                         isTransientErrno(err));
    };
    try {
        flushChunk();
        if (std::fflush(f) != 0)
            fail("flush failed on trace file");
        if (std::fseek(f, 0, SEEK_SET) != 0)
            fail("seek failed on trace file");
        writeHeader(); // rewrite with the final count
        if (std::fflush(f) != 0)
            fail("flush failed on trace header");
    } catch (...) {
        if (file_) {
            file_ = nullptr;
            std::fclose(f);
        }
        throw;
    }
    file_ = nullptr;
    if (std::fclose(f) != 0)
        fail("close failed on trace file");
}

// --- TraceFrames -----------------------------------------------------

TraceFrames::TraceFrames(const std::string &path)
try : map_(path), path_(path) {
    const unsigned char *hdr = map_.data();
    if (map_.size() >= magicBytes && !isMagic(hdr, traceMagic))
        throw TraceError(
            detail::formatMessage(
                "unsupported trace magic \"%s\": only IPRTRC04 (v4) "
                "trace files are readable",
                printableMagic(hdr).c_str()),
            fileContext(path_, 0, 0));
    if (map_.size() < traceHeaderBytes)
        throw TraceError("trace file too short for a trace header",
                         fileContext(path_, map_.size(), 0));
    // A damaged header leaves nothing trustworthy to salvage, so this
    // throws even in tolerant mode.
    if (get32(hdr + 20) != crc32(hdr, 20))
        throw TraceError("trace header CRC mismatch",
                         fileContext(path_, 20, 0));
    if (get32(hdr + 16) != traceChunkRecords)
        throw TraceError("unsupported trace chunk size",
                         fileContext(path_, 16, 0));
    count_ = get64(hdr + 8);
} catch (const TraceError &) {
    throw;
} catch (const SimError &e) {
    // MappedFile reports an unopenable file as an I/O error; to the
    // caller it is a trace that cannot be read.
    throw TraceError(e.what(), fileContext(path, 0, 0), e.transient());
}

std::uint64_t
TraceFrames::recordBound() const
{
    return std::min<std::uint64_t>(count_,
                                   map_.size() / sizeof(PackedRecord));
}

bool
TraceFrames::frame(std::uint64_t fileOff, std::uint64_t firstRecord,
                   TraceFrame &out) const
{
    if (firstRecord >= count_)
        return false;
    const std::uint64_t n =
        std::min<std::uint64_t>(count_ - firstRecord, traceChunkRecords);
    auto damage = [&](const char *what, std::uint64_t at,
                      std::uint64_t record) {
        throw TraceError(what, fileContext(path_, at, record));
    };
    if (fileOff + traceFrameBytes > map_.size())
        damage("truncated trace file (missing chunk frame)", map_.size(),
               firstRecord);
    const unsigned char *f = map_.data() + fileOff;

    // The size is not under the CRC, so it must fit the file before
    // the CRC over it means anything.
    const std::uint64_t bytes = get32(f);
    if (bytes < crcBytes(0, true) || fileOff + 8 + bytes > map_.size())
        damage("implausible chunk frame size (corrupt frame or "
               "truncated file)",
               fileOff, firstRecord);
    if (crc32Fast(f + 8, bytes) != get32(f + 4))
        damage("trace chunk CRC mismatch", fileOff, firstRecord);

    const std::uint32_t kind = get32(f + 36);
    const ChunkEntry e{get64(f + 8), get64(f + 16), get64(f + 24),
                       kind == 1};
    if (kind > 1 || get32(f + 32) != n || bytes != crcBytes(n, e.packed))
        damage("chunk frame disagrees with the header (kind, record "
               "count or size)",
               fileOff, firstRecord);
    if (!e.packed && (e.firstPc | e.codeBase | e.dataBase) != 0)
        damage("raw chunk with a nonzero entry", fileOff, firstRecord);
    const unsigned char *records = f + traceFrameBytes;
    const std::size_t bad = findBadRecord(e.packed, records, n);
    if (bad != n)
        damage("invalid record (op class, taken, register or padding "
               "byte out of range)",
               fileOff + traceFrameBytes + bad * chunkRecordBytes(e.packed),
               firstRecord + bad);
    out = {e, records, static_cast<std::size_t>(n), fileOff + 8 + bytes};
    return true;
}

// --- MappedTraceReader -----------------------------------------------

MappedTraceReader::MappedTraceReader(const std::string &path,
                                     TraceReadMode mode)
    : frames_(path), mode_(mode)
{}

bool
MappedTraceReader::advance()
{
    if (ended_)
        return false;
    const std::uint64_t first = curFirst_ + cur_.count;
    frames_.releaseBefore(cur_.next); // hold one frame, not the file
    TraceFrame next;
    try {
        if (!frames_.frame(cur_.next, first, next)) {
            ended_ = true;
            return false;
        }
    } catch (const TraceError &e) {
        if (mode_ == TraceReadMode::Strict)
            throw;
        corrupt_ = true;
        ended_ = true;
        detail_ = e.what();
        return false;
    }
    cur_ = next;
    curFirst_ = first;
    pos_ = 0;
    ++chunks_[cur_.entry.packed ? 1 : 0];
    return true;
}

std::size_t
MappedTraceReader::nextBatch(std::span<InstrRecord> out)
{
    std::size_t n = 0;
    while (n < out.size()) {
        if (pos_ == cur_.count && !advance())
            break;
        const std::size_t take =
            std::min(out.size() - n, cur_.count - pos_);
        pc_ = unpackChunk(cur_.entry, cur_.records, pos_, pc_,
                          out.subspan(n, take));
        pos_ += take;
        n += take;
    }
    delivered_ += n;
    return n;
}

void
MappedTraceReader::reset()
{
    cur_ = TraceFrame{};
    curFirst_ = 0;
    pos_ = 0;
    delivered_ = 0;
    chunks_[0] = chunks_[1] = 0;
    corrupt_ = false;
    ended_ = false;
    detail_.clear();
}

std::unique_ptr<MappedTraceReader>
openTraceReader(const std::string &path, TraceReadMode mode)
{
    return std::make_unique<MappedTraceReader>(path, mode);
}

} // namespace ipref
