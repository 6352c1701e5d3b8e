#include "trace/trace_file.hh"

#include <cerrno>
#include <cstring>

#include "trace/trace_v3.hh"
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

} // namespace

TraceFileWriter::TraceFileWriter(const std::string &path,
                                 std::uint32_t blockRecords,
                                 bool dataAddresses)
    : path_(path), fileOff_(traceV3HeaderBytes),
      blockRecords_(blockRecords ? blockRecords
                                 : traceV3DefaultBlockRecords),
      dataAddresses_(dataAddresses)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        throw TraceError("cannot open trace file for writing",
                         fileContext(path_, 0, 0, errno),
                         isTransientErrno(errno));
    pending_.reserve(blockRecords_);
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
    unsigned char hdr[traceV3HeaderBytes] = {};
    std::memcpy(hdr, magicV3, magicBytes);
    put64(hdr + 8, count_);
    put32(hdr + 16, blockRecords_);
    put32(hdr + 20, dataAddresses_ ? traceV3FlagDataAddr : 0u);
    // bytes [24, 44) reserved; CRC covers everything before itself.
    put32(hdr + 44, crc32(hdr, 44));
    if (std::fwrite(hdr, 1, traceV3HeaderBytes, file_) !=
        traceV3HeaderBytes)
        throw TraceError("short write on trace header",
                         fileContext(path_, 0, count_, errno),
                         isTransientErrno(errno));
}

void
TraceFileWriter::flushBlock()
{
    if (pending_.empty())
        return;
    encodeTraceBlockV3(pending_, dataAddresses_, encoded_);
    unsigned char frame[traceV3FrameBytes];
    put32(frame, static_cast<std::uint32_t>(encoded_.size()));
    put32(frame + 4, crc32Sliced(encoded_.data(), encoded_.size()));
    if (std::fwrite(frame, 1, sizeof(frame), file_) != sizeof(frame) ||
        std::fwrite(encoded_.data(), 1, encoded_.size(), file_) !=
            encoded_.size())
        throw TraceError("short write on trace block",
                         fileContext(path_, fileOff_, count_, errno),
                         isTransientErrno(errno));
    fileOff_ += sizeof(frame) + encoded_.size();
    pending_.clear();
}

void
TraceFileWriter::write(const InstrRecord &rec)
{
    ipref_assert(!closed_);
    ++count_;
    pending_.push_back(rec);
    if (pending_.size() >= blockRecords_)
        flushBlock();
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
        flushBlock();
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

} // namespace ipref
