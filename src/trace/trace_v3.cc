#include "trace/trace_v3.hh"

#include <algorithm>
#include <cstring>

#include "trace/wire.hh"
#include "util/crc32.hh"
#include "util/varint.hh"

namespace ipref
{

using namespace tracewire;

namespace
{

/**
 * Unchecked LEB128 decode for the hot column loops. Only legal while
 * the cursor is at least 10 bytes (one maximal varint) from the end
 * of the payload; the loops fall back to the bounds-checked cursor
 * for the tail.
 */
inline std::uint64_t
uvarintUnchecked(const unsigned char *&p)
{
    std::uint64_t b = *p++;
    if (b < 0x80)
        return b;
    std::uint64_t v = b & 0x7f;
    unsigned shift = 7;
    do {
        b = *p++;
        v |= (b & 0x7f) << shift;
        shift += 7;
    } while ((b & 0x80) != 0 && shift < 70);
    return v;
}

inline std::int64_t
svarintUnchecked(const unsigned char *&p)
{
    return zigzagDecode(uvarintUnchecked(p));
}

TraceError::Context
fileContext(const std::string &path, std::uint64_t byteOffset,
            std::uint64_t recordIndex)
{
    TraceError::Context ctx;
    ctx.path = path;
    ctx.byteOffset = byteOffset;
    ctx.recordIndex = recordIndex;
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

} // namespace

void
encodeTraceBlockV3(std::span<const InstrRecord> records,
                   bool dataAddresses, std::vector<unsigned char> &out)
{
    // Size the buffer for the worst case once, write through a raw
    // pointer with no per-byte capacity checks, and trim once.
    const std::size_t n = records.size();
    out.resize(static_cast<std::size_t>(traceV3MaxBlockBytes(n)));
    if (n == 0)
        return;
    unsigned char *p = out.data();

    // pc column: absolute first, deltas after.
    p = putVarint(p, records[0].pc);
    for (std::size_t i = 1; i < n; ++i)
        p = putSvarint(p, static_cast<std::int64_t>(records[i].pc -
                                                    records[i - 1].pc));

    // op column: run-length pairs.
    std::size_t i = 0;
    while (i < n) {
        std::size_t run = 1;
        while (i + run < n && records[i + run].op == records[i].op)
            ++run;
        *p++ = static_cast<unsigned char>(records[i].op);
        p = putVarint(p, run);
        i += run;
    }

    // One LSB-first bitmap byte per 8 records, assembled in a
    // register (the buffer is not zeroed).
    auto bitmap = [&](auto &&bit) {
        for (std::size_t r = 0; r < n; r += 8) {
            unsigned bits = 0;
            std::size_t lim = std::min<std::size_t>(8, n - r);
            for (std::size_t k = 0; k < lim; ++k)
                bits |= static_cast<unsigned>(bit(records[r + k])) << k;
            *p++ = static_cast<unsigned char>(bits);
        }
    };

    bitmap([](const InstrRecord &rec) { return rec.taken; });

    // target column: presence bitmap + per-present pc-relative delta.
    bitmap([](const InstrRecord &rec) { return rec.target != 0; });
    for (std::size_t r = 0; r < n; ++r) {
        if (records[r].target != 0)
            p = putSvarint(p, static_cast<std::int64_t>(
                                  records[r].target - records[r].pc));
    }

    // data-address column (optional): presence bitmap + deltas from
    // the previous present address (strided data encodes small).
    if (dataAddresses) {
        bitmap([](const InstrRecord &rec) { return rec.dataAddr != 0; });
        Addr prev = 0;
        for (std::size_t r = 0; r < n; ++r) {
            if (records[r].dataAddr == 0)
                continue;
            p = putSvarint(p, static_cast<std::int64_t>(
                                  records[r].dataAddr - prev));
            prev = records[r].dataAddr;
        }
    }

    // register column: raw (src0, src1, dst) triples.
    for (std::size_t r = 0; r < n; ++r) {
        p[0] = records[r].srcReg[0];
        p[1] = records[r].srcReg[1];
        p[2] = records[r].dstReg;
        p += 3;
    }

    out.resize(static_cast<std::size_t>(p - out.data()));
}

void
decodeTraceBlockV3(const unsigned char *payload,
                   std::size_t payloadBytes, std::size_t n,
                   bool dataAddresses, InstrRecord *out)
{
    if (n == 0)
        return;
    VarintCursor cur(payload, payload + payloadBytes);

    auto malformed = [](const char *what) -> void {
        throw TraceError(std::string("malformed v3 block: ") + what);
    };

    // Hot loops decode unchecked while at least one maximal varint
    // from the payload end, falling back to the bounds-checked cursor
    // for the tail; `safe` marks that boundary.
    const unsigned char *safe =
        payloadBytes > 10 ? payload + payloadBytes - 10 : payload;

    // pc column (running value kept in a register, not re-read from
    // the output array).
    std::uint64_t pc0 = 0;
    if (!cur.getVarint(pc0))
        malformed("truncated pc column");
    Addr pc = pc0;
    out[0].pc = pc;
    {
        std::size_t r = 1;
        while (r < n && cur.pos < safe) {
            pc += static_cast<Addr>(svarintUnchecked(cur.pos));
            out[r++].pc = pc;
        }
        for (; r < n; ++r) {
            std::int64_t d = 0;
            if (!cur.getSvarint(d))
                malformed("truncated pc column");
            pc += static_cast<Addr>(d);
            out[r].pc = pc;
        }
    }

    // op column.
    std::size_t filled = 0;
    while (filled < n) {
        const unsigned char *opb = cur.getBytes(1);
        std::uint64_t run = 0;
        if (!opb || !cur.getVarint(run))
            malformed("truncated op column");
        if (*opb >= static_cast<unsigned char>(OpClass::NumOpClasses))
            throw TraceError(detail::formatMessage(
                "invalid op class byte 0x%02x in v3 block", *opb));
        if (run == 0 || run > n - filled)
            malformed("op run overflows block");
        OpClass op = static_cast<OpClass>(*opb);
        for (std::uint64_t k = 0; k < run; ++k)
            out[filled + k].op = op;
        filled += static_cast<std::size_t>(run);
    }

    // taken bitmap, one byte (8 records) per iteration.
    const unsigned char *taken = cur.getBytes((n + 7) / 8);
    if (!taken)
        malformed("truncated taken bitmap");
    for (std::size_t r = 0; r < n; r += 8) {
        unsigned bits = taken[r / 8];
        std::size_t lim = std::min<std::size_t>(8, n - r);
        for (std::size_t k = 0; k < lim; ++k)
            out[r + k].taken = (bits >> k) & 1;
    }

    // target column: most records are not CTIs, so whole-zero
    // presence bytes short-circuit to a zero-fill of 8 targets.
    const unsigned char *tpresent = cur.getBytes((n + 7) / 8);
    if (!tpresent)
        malformed("truncated target bitmap");
    for (std::size_t r = 0; r < n; r += 8) {
        unsigned bits = tpresent[r / 8];
        std::size_t lim = std::min<std::size_t>(8, n - r);
        if (bits == 0) {
            for (std::size_t k = 0; k < lim; ++k)
                out[r + k].target = 0;
            continue;
        }
        for (std::size_t k = 0; k < lim; ++k) {
            if (((bits >> k) & 1) == 0) {
                out[r + k].target = 0;
                continue;
            }
            std::int64_t d = 0;
            if (cur.pos < safe) {
                d = svarintUnchecked(cur.pos);
            } else if (!cur.getSvarint(d)) {
                malformed("truncated target column");
            }
            out[r + k].target = out[r + k].pc + static_cast<Addr>(d);
        }
    }

    // data-address column, same byte-at-a-time shape as targets.
    if (dataAddresses) {
        const unsigned char *dpresent = cur.getBytes((n + 7) / 8);
        if (!dpresent)
            malformed("truncated data-address bitmap");
        Addr prev = 0;
        for (std::size_t r = 0; r < n; r += 8) {
            unsigned bits = dpresent[r / 8];
            std::size_t lim = std::min<std::size_t>(8, n - r);
            if (bits == 0) {
                for (std::size_t k = 0; k < lim; ++k)
                    out[r + k].dataAddr = 0;
                continue;
            }
            for (std::size_t k = 0; k < lim; ++k) {
                if (((bits >> k) & 1) == 0) {
                    out[r + k].dataAddr = 0;
                    continue;
                }
                std::int64_t d = 0;
                if (cur.pos < safe) {
                    d = svarintUnchecked(cur.pos);
                } else if (!cur.getSvarint(d)) {
                    malformed("truncated data-address column");
                }
                prev += static_cast<Addr>(d);
                out[r + k].dataAddr = prev;
            }
        }
    } else {
        for (std::size_t r = 0; r < n; ++r)
            out[r].dataAddr = 0;
    }

    // register column.
    const unsigned char *regs = cur.getBytes(3 * n);
    if (!regs)
        malformed("truncated register column");
    for (std::size_t r = 0; r < n; ++r) {
        out[r].srcReg[0] = regs[3 * r + 0];
        out[r].srcReg[1] = regs[3 * r + 1];
        out[r].dstReg = regs[3 * r + 2];
    }

    if (cur.remaining() != 0)
        malformed("trailing bytes after the register column");
}

// --- TraceV3Blocks ---------------------------------------------------

TraceV3Blocks::TraceV3Blocks(const std::string &path)
try : map_(path), path_(path) {
    const unsigned char *hdr = map_.data();
    if (map_.size() >= magicBytes && !isMagic(hdr, magicV3))
        throw TraceError(
            detail::formatMessage(
                "unsupported trace magic \"%s\": only IPRTRC03 (v3) "
                "trace files are readable",
                printableMagic(hdr).c_str()),
            fileContext(path_, 0, 0));
    if (map_.size() < traceV3HeaderBytes)
        throw TraceError("trace file too short for a v3 header",
                         fileContext(path_, map_.size(), 0));
    // A damaged header leaves nothing trustworthy to salvage, so this
    // throws even in tolerant mode.
    if (get32(hdr + 44) != crc32(hdr, 44))
        throw TraceError("trace header CRC mismatch",
                         fileContext(path_, 44, 0));
    count_ = get64(hdr + 8);
    blockRecords_ = get32(hdr + 16);
    std::uint32_t flags = get32(hdr + 20);
    hasData_ = (flags & traceV3FlagDataAddr) != 0;
    if (blockRecords_ == 0)
        throw TraceError("invalid trace block size",
                         fileContext(path_, 16, 0));
} catch (const TraceError &) {
    throw;
} catch (const SimError &e) {
    // MappedFile reports an unopenable file as an I/O error; to the
    // caller it is a trace that cannot be read.
    throw TraceError(e.what(), fileContext(path, 0, 0), e.transient());
}

std::uint64_t
TraceV3Blocks::recordBound() const
{
    return std::min<std::uint64_t>(count_,
                                   map_.size() / traceV3MinRecordBytes);
}

std::size_t
TraceV3Blocks::blockSize(std::uint64_t firstRecord) const
{
    if (firstRecord >= count_)
        return 0;
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(count_ - firstRecord, blockRecords_));
}

std::uint64_t
TraceV3Blocks::decode(
    std::uint64_t fileOff, std::uint64_t firstRecord,
    const std::function<InstrRecord *(std::size_t)> &room) const
{
    const std::uint64_t n = blockSize(firstRecord);
    if (fileOff + traceV3FrameBytes > map_.size())
        throw TraceError("truncated trace file (missing block frame)",
                         fileContext(path_, map_.size(), firstRecord));
    const unsigned char *frame = map_.data() + fileOff;
    std::uint32_t payloadBytes = get32(frame);
    std::uint32_t payloadCrc = get32(frame + 4);

    // The frame is not separately checksummed, and a CRC-valid header
    // can still carry an absurd block size: bound the payload between
    // the fewest and the most bytes n records can take, so a flipped
    // size byte or a crafted block size reads as damage instead of a
    // wild allocation or an out-of-bounds CRC scan.
    if (payloadBytes < n * traceV3MinRecordBytes ||
        payloadBytes > traceV3MaxBlockBytes(n) ||
        fileOff + traceV3FrameBytes + payloadBytes > map_.size())
        throw TraceError("implausible v3 block size (corrupt frame "
                         "header or truncated file)",
                         fileContext(path_, fileOff, firstRecord));

    const unsigned char *payload = frame + traceV3FrameBytes;
    if (crc32Sliced(payload, payloadBytes) != payloadCrc)
        throw TraceError("trace block CRC mismatch",
                         fileContext(path_, fileOff, firstRecord));

    try {
        decodeTraceBlockV3(payload, payloadBytes,
                           static_cast<std::size_t>(n), hasData_,
                           room(static_cast<std::size_t>(n)));
    } catch (const TraceError &e) {
        throw TraceError(e.what(),
                         fileContext(path_, fileOff, firstRecord));
    }
    return fileOff + traceV3FrameBytes + payloadBytes;
}

// --- MappedTraceReader ------------------------------------------------

MappedTraceReader::MappedTraceReader(const std::string &path,
                                     TraceReadMode mode)
    : blocks_(path), mode_(mode)
{
    reset();
}

bool
MappedTraceReader::damaged(const TraceError &err)
{
    if (mode_ == TraceReadMode::Strict)
        throw err;
    corrupt_ = true;
    ended_ = true;
    detail_ = err.what();
    return false;
}

bool
MappedTraceReader::decodeBlockAt(std::uint64_t fileOff,
                                 std::uint64_t firstRecord,
                                 std::vector<InstrRecord> &out,
                                 std::uint64_t &nextOff)
{
    if (blocks_.blockSize(firstRecord) == 0)
        return false;
    try {
        nextOff = blocks_.decode(fileOff, firstRecord,
                                 [&](std::size_t n) {
                                     out.resize(n);
                                     return out.data();
                                 });
    } catch (const TraceError &e) {
        return damaged(e);
    }
    blocks_.releaseBefore(nextOff);
    return true;
}

bool
MappedTraceReader::advance()
{
    if (!haveAhead_) {
        cur_.clear();
        curPos_ = 0;
        return false;
    }
    cur_.swap(ahead_);
    curPos_ = 0;
    std::uint64_t firstRecord = aheadFirst_ + cur_.size();
    std::uint64_t nextOff = 0;
    if (!ended_ &&
        decodeBlockAt(aheadOff_, firstRecord, ahead_, nextOff)) {
        aheadOff_ = nextOff;
        aheadFirst_ = firstRecord;
        haveAhead_ = true;
    } else {
        ahead_.clear();
        haveAhead_ = false;
    }
    return !cur_.empty();
}

bool
MappedTraceReader::next(InstrRecord &out)
{
    if (curPos_ >= cur_.size() && !advance())
        return false;
    out = cur_[curPos_++];
    ++deliveredTotal_;
    return true;
}

std::size_t
MappedTraceReader::nextBatch(std::span<InstrRecord> out)
{
    std::size_t n = 0;
    while (n < out.size()) {
        if (curPos_ >= cur_.size() && !advance())
            break;
        std::size_t take =
            std::min(out.size() - n, cur_.size() - curPos_);
        std::memcpy(out.data() + n, cur_.data() + curPos_,
                    take * sizeof(InstrRecord));
        curPos_ += take;
        n += take;
    }
    deliveredTotal_ += n;
    return n;
}

void
MappedTraceReader::reset()
{
    cur_.clear();
    curPos_ = 0;
    deliveredTotal_ = 0;
    corrupt_ = false;
    ended_ = false;
    detail_.clear();

    // Prime the decode-ahead pipeline: the first consumed block is
    // decoded now, and every advance() keeps one decoded block in
    // front of the consumer.
    std::uint64_t nextOff = 0;
    if (decodeBlockAt(traceV3HeaderBytes, 0, ahead_, nextOff)) {
        haveAhead_ = true;
        aheadOff_ = nextOff;
        aheadFirst_ = 0;
    } else {
        ahead_.clear();
        haveAhead_ = false;
    }
}

std::unique_ptr<MappedTraceReader>
openTraceReader(const std::string &path, TraceReadMode mode)
{
    return std::make_unique<MappedTraceReader>(path, mode);
}

} // namespace ipref
