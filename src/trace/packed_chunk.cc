#include "trace/packed_chunk.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstring>
#include <limits>

namespace ipref
{

namespace
{

constexpr unsigned numOps = static_cast<unsigned>(OpClass::NumOpClasses);
static_assert(numOps <= 0x80,
              "op classes must fit PackedRecord::opTaken bits 0-6");
static_assert(std::has_single_bit(numRegs) && numRegs <= 0x100,
              "register bytes are checked with one mask");

// A raw record is an InstrRecord's bytes, and unpack() writes one as
// four little-endian words: pc, target, dataAddr, then op, taken and
// the register triple in bytes 0-4 of the last (its 3 padding bytes
// become zero).
static_assert(std::endian::native == std::endian::little);
static_assert(sizeof(InstrRecord) == 32 &&
              offsetof(InstrRecord, pc) == 0 &&
              offsetof(InstrRecord, target) == 8 &&
              offsetof(InstrRecord, dataAddr) == 16 &&
              offsetof(InstrRecord, op) == 24 &&
              offsetof(InstrRecord, taken) == 25 &&
              offsetof(InstrRecord, srcReg) == 26 &&
              offsetof(InstrRecord, dstReg) == 28);
static_assert(offsetof(PackedRecord, opTaken) == 4);

/** Per opTaken byte, from InstrRecord's own predicates, all-ones masks:
 *  does operandOffset hold a target (code) or a dataAddr (data), and
 *  does the op send the fetch stream to its target (redirect)? */
struct Lanes
{
    std::uint64_t code, data, redirect;
};
const std::array<Lanes, 256> opLanes = [] {
    std::array<Lanes, 256> lanes{};
    for (unsigned b = 0; b < lanes.size(); ++b) {
        InstrRecord r;
        r.op = static_cast<OpClass>(b & 0x7f);
        r.taken = (b & 0x80) != 0;
        lanes[b] = {0 - std::uint64_t{r.isCti()},
                    0 - std::uint64_t{r.isMem()},
                    0 - std::uint64_t{r.redirects()}};
    }
    return lanes;
}();

/** The bits of a register byte that are set iff it is numRegs or more. */
constexpr std::uint64_t regBits = 0xffu & ~(numRegs - 1);

/** Expand the packed record @p p, whose pc is @p pc, into @p out from
 *  a chunk based at @p codeBase and @p dataBase, branch-free; returns
 *  the next pc. */
inline Addr
unpack(const unsigned char *p, Addr pc, Addr codeBase, Addr dataBase,
       InstrRecord &out)
{
    std::uint64_t word; // operandOffset, opTaken, src0, src1, dst
    std::memcpy(&word, p, sizeof word);
    const Addr offset = word & 0xffffffff;
    const std::uint64_t tail = word >> 32;
    const Lanes &lanes = opLanes[tail & 0xff];
    const Addr target = (codeBase + offset) & lanes.code;
    const std::uint64_t last =
        (tail & 0x7f) | ((tail >> 7) & 1) << 8 | (tail >> 8) << 16;
    out.pc = pc;
    out.target = target;
    out.dataAddr = (dataBase + offset) & lanes.data;
    std::memcpy(reinterpret_cast<unsigned char *>(&out) +
                    offsetof(InstrRecord, op),
                &last, sizeof last);
    return (target & lanes.redirect) |
           ((pc + instrBytes) & ~lanes.redirect);
}

/** Bytes 24-31 of @p r: op, taken, the register triple, padding. */
inline std::uint64_t
tailWord(const InstrRecord &r)
{
    std::uint64_t w;
    std::memcpy(&w, reinterpret_cast<const unsigned char *>(&r) +
                        offsetof(InstrRecord, op),
                sizeof w);
    return w;
}

/** PackedRecord::opTaken of a record with tail word @p tail (whose op
 *  class is known). */
inline std::uint64_t
opTaken(std::uint64_t tail)
{
    return (tail & 0x7f) | (tail >> 1 & 0x80);
}

} // namespace

ChunkEntry
sealChunk(std::span<const InstrRecord> recs, unsigned char *out)
{
    Addr pc = recs.front().pc;
    Addr codeLo = ~Addr{0}, codeHi = 0, dataLo = ~Addr{0}, dataHi = 0;
    std::uint64_t stray = 0; // nonzero once any record breaks the rule
    for (const InstrRecord &r : recs) {
        const std::uint64_t tail = tailWord(r);
        const Lanes &l = opLanes[opTaken(tail)];
        stray |= (r.pc ^ pc) | (r.target & ~l.code) |
                 (r.dataAddr & ~l.data) |
                 std::uint64_t{(tail & 0xff) >= numOps};
        codeLo = std::min(codeLo, r.target | ~l.code);
        codeHi = std::max(codeHi, r.target & l.code);
        dataLo = std::min(dataLo, r.dataAddr | ~l.data);
        dataHi = std::max(dataHi, r.dataAddr & l.data);
        pc = (r.target & l.redirect) | ((r.pc + instrBytes) & ~l.redirect);
    }
    // With no CTI (no Load/Store) the span wraps to 1 and passes.
    constexpr Addr span = std::numeric_limits<std::uint32_t>::max();
    if (stray != 0 || codeHi - codeLo > span || dataHi - dataLo > span) {
        for (const InstrRecord &r : recs) {
            std::memcpy(out, &r, sizeof r);
            std::memset(out + offsetof(InstrRecord, dstReg) + 1, 0,
                        sizeof r - offsetof(InstrRecord, dstReg) - 1);
            out += sizeof r;
        }
        return {};
    }
    for (const InstrRecord &r : recs) {
        const std::uint64_t tail = tailWord(r);
        const std::uint64_t ot = opTaken(tail);
        const Lanes &l = opLanes[ot];
        // operandOffset, opTaken, then the register triple.
        const std::uint64_t word =
            ((((r.target - codeLo) & l.code) |
              ((r.dataAddr - dataLo) & l.data)) &
             0xffffffff) |
            ot << 32 | (tail >> 16 & 0xffffff) << 40;
        std::memcpy(out, &word, sizeof word);
        out += sizeof word;
    }
    return {recs.front().pc, codeLo, dataLo, true};
}

std::size_t
findBadRecord(bool packed, const unsigned char *records, std::size_t n)
{
    constexpr std::uint64_t regs = regBits * 0x010101;
    const std::size_t stride = chunkRecordBytes(packed);
    // The word holding op, taken and the registers: a packed record's
    // only one, a raw record's last.
    const std::size_t at = packed ? 0 : offsetof(InstrRecord, op);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t w;
        std::memcpy(&w, records + i * stride + at, sizeof w);
        const bool bad =
            packed ? ((w >> 32) & 0x7f) >= numOps || ((w >> 40) & regs)
                   : (w & 0xff) >= numOps || ((w >> 8) & 0xff) > 1 ||
                         ((w >> 16) & regs) || (w >> 40) != 0;
        if (bad)
            return i;
    }
    return n;
}

Addr
unpackChunk(const ChunkEntry &entry, const unsigned char *records,
            std::size_t at, Addr pc, std::span<InstrRecord> out)
{
    if (out.empty())
        return pc;
    if (!entry.packed) {
        std::memcpy(out.data(), records + at * sizeof(InstrRecord),
                    out.size() * sizeof(InstrRecord));
        return out.back().nextPc();
    }
    const unsigned char *src = records + at * sizeof(PackedRecord);
    const Addr codeBase = entry.codeBase;
    const Addr dataBase = entry.dataBase;
    pc = at == 0 ? entry.firstPc : pc;
    for (InstrRecord &r : out) {
        pc = unpack(src, pc, codeBase, dataBase, r);
        src += sizeof(PackedRecord);
    }
    return pc;
}

} // namespace ipref
