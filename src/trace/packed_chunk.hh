/**
 * @file
 * The one record format of trace files and of the shared trace
 * cache: fixed chunks of traceChunkRecords records, each sealed by
 * one pack rule into 8-byte PackedRecords or, when the rule refuses
 * it, kept as raw 32-byte records.
 *
 * A raw record is InstrRecord's own little-endian layout: pc, target,
 * dataAddr, then op, taken and the register triple in bytes 24-28,
 * and bytes 29-31 zero. TraceFileWriter seals with sealChunk();
 * TraceFrames checks a frame's records with findBadRecord(); the
 * mmap reader and DecodedTrace both replay with unpackChunk().
 */

#ifndef IPREF_TRACE_PACKED_CHUNK_HH
#define IPREF_TRACE_PACKED_CHUNK_HH

#include <cstddef>
#include <cstdint>
#include <span>

#include "trace/record.hh"

namespace ipref
{

/** Records per chunk (the last chunk of a trace may be shorter). */
inline constexpr std::size_t traceChunkRecords = 4096;

/**
 * One replay record in 8 bytes. The pc is implied: a chunk's first
 * record takes it from the chunk's entry and every later one is the
 * nextPc() of the record before. The op class (bits 0-6 of `opTaken`,
 * the taken flag in bit 7) says what `operandOffset` holds: a
 * Load/Store's dataAddr less the chunk's data base, a CTI's target
 * less its code base, nothing for any other op.
 */
struct PackedRecord
{
    std::uint32_t operandOffset = 0;
    std::uint8_t opTaken = 0;
    std::uint8_t src0 = 0;
    std::uint8_t src1 = 0;
    std::uint8_t dst = 0;
};
static_assert(sizeof(PackedRecord) == 8);

/** A chunk's table entry. The three addresses mean something only for
 *  a packed chunk; a raw chunk's records carry their own. */
struct ChunkEntry
{
    Addr firstPc = 0;  //!< pc of the first record
    Addr codeBase = 0; //!< lowest CTI target
    Addr dataBase = 0; //!< lowest Load/Store dataAddr
    bool packed = false;
};

/** Bytes one record of a chunk takes. */
constexpr std::size_t
chunkRecordBytes(bool packed)
{
    return packed ? sizeof(PackedRecord) : sizeof(InstrRecord);
}

/**
 * Seal @p recs (one chunk) into @p out, which must hold
 * recs.size() * sizeof(InstrRecord) bytes, and return its entry. The
 * chunk packs when each record's pc is the nextPc() of the one
 * before, only Load/Stores carry a dataAddr and only CTIs a target,
 * each of those two address kinds spans less than 2^32 and every op
 * is known; any other chunk is stored raw, so no input costs more
 * than 32 B a record.
 */
ChunkEntry sealChunk(std::span<const InstrRecord> recs,
                     unsigned char *out);

/**
 * Index of the first of the @p n records at @p records that no
 * sealChunk() output can hold (an op class past NumOpClasses, a
 * register byte of numRegs or more, a raw taken byte other than 0 or
 * 1, nonzero raw padding), or @p n when there is none.
 */
std::size_t findBadRecord(bool packed, const unsigned char *records,
                          std::size_t n);

/**
 * Unpack records [@p at, @p at + out.size()) of the chunk @p entry,
 * whose records start at @p records, into @p out. A packed record's pc
 * follows from the record before it, so @p pc must be the pc of
 * record @p at unless @p at is 0. Returns the nextPc() of the last
 * record unpacked: the @p pc a call continuing at at + out.size()
 * needs.
 */
Addr unpackChunk(const ChunkEntry &entry, const unsigned char *records,
                 std::size_t at, Addr pc, std::span<InstrRecord> out);

} // namespace ipref

#endif // IPREF_TRACE_PACKED_CHUNK_HH
