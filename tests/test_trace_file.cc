/**
 * @file
 * Tests for the trace file format (v4: sealed packed or raw chunks,
 * one CRC-checked frame each), the mmap reader, the shared TraceCache
 * and the TraceSource/RunSpec APIs: round-trip fidelity, corruption
 * fuzzing, crafted headers and frames checked against the format read
 * plainly, load sharing under a parallel batch, the pack rule and the
 * cache's exactness against the mmap reader, the reader's bounded
 * page residency, and Builder validation.
 */

#include <gtest/gtest.h>

#include "error_helpers.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include "scheme_params.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "trace/trace_cache.hh"
#include "trace/trace_file.hh"
#include "trace/trace_source.hh"
#include "util/crc32.hh"
#include "util/metrics.hh"
#include "util/mmap_file.hh"
#include "workload/presets.hh"

using namespace ipref;

namespace
{

/** A deterministic, column-exercising instruction stream. */
std::vector<InstrRecord>
syntheticStream(std::size_t n, std::uint32_t seed = 1)
{
    std::mt19937 rng(seed);
    std::vector<InstrRecord> recs;
    recs.reserve(n);
    Addr pc = 0x400000;
    for (std::size_t i = 0; i < n; ++i) {
        InstrRecord r;
        r.pc = pc;
        unsigned roll = rng() % 100;
        if (roll < 8) {
            r.op = OpClass::CondBranch;
            r.taken = (rng() & 1) != 0;
            r.target = pc + (rng() % 2 ? 0x40 : -0x80);
        } else if (roll < 12) {
            r.op = OpClass::Call;
            r.taken = true;
            r.target = 0x500000 + (rng() % 64) * 0x100;
        } else if (roll < 40) {
            r.op = OpClass::Load;
            r.dataAddr = 0x900000 + (rng() % 4096) * 8;
        } else if (roll < 50) {
            r.op = OpClass::Store;
            r.dataAddr = 0xa00000 + (rng() % 4096) * 8;
        } else {
            r.op = OpClass::IntAlu;
        }
        r.srcReg[0] = static_cast<std::uint8_t>(rng() % 32);
        r.srcReg[1] = static_cast<std::uint8_t>(rng() % 32);
        r.dstReg = static_cast<std::uint8_t>(rng() % 32);
        recs.push_back(r);
        pc = r.redirects() ? r.target : pc + instrBytes;
    }
    return recs;
}

void
writeTraceFile(const std::string &path,
               const std::vector<InstrRecord> &recs)
{
    TraceFileWriter writer(path);
    for (const InstrRecord &rec : recs)
        writer.write(rec);
    writer.close();
}

void
expectSameRecords(std::span<const InstrRecord> got,
                  std::span<const InstrRecord> want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        const InstrRecord &g = got[i], &w = want[i];
        ASSERT_EQ(g.pc, w.pc) << "record " << i;
        ASSERT_EQ(g.op, w.op) << "record " << i;
        ASSERT_EQ(g.taken, w.taken) << "record " << i;
        ASSERT_EQ(g.target, w.target) << "record " << i;
        ASSERT_EQ(g.dataAddr, w.dataAddr) << "record " << i;
        ASSERT_EQ(g.srcReg[0], w.srcReg[0]) << "record " << i;
        ASSERT_EQ(g.srcReg[1], w.srcReg[1]) << "record " << i;
        ASSERT_EQ(g.dstReg, w.dstReg) << "record " << i;
    }
}

/** Drain a source via next() into a vector. */
std::vector<InstrRecord>
drainNext(TraceSource &src)
{
    std::vector<InstrRecord> out;
    InstrRecord r;
    while (src.next(r))
        out.push_back(r);
    return out;
}

/** Drain a source via nextBatch() with an odd batch size. */
std::vector<InstrRecord>
drainBatch(TraceSource &src, std::size_t batch = 37)
{
    std::vector<InstrRecord> out;
    std::vector<InstrRecord> buf(batch);
    for (;;) {
        std::size_t got = src.nextBatch(
            std::span<InstrRecord>(buf.data(), buf.size()));
        out.insert(out.end(), buf.begin(),
                   buf.begin() + static_cast<std::ptrdiff_t>(got));
        if (got < buf.size())
            return out;
    }
}

/** Every record of @p trace, unpacked in one copy(). */
std::vector<InstrRecord>
unpackAll(const DecodedTrace &trace)
{
    std::vector<InstrRecord> out(trace.size());
    trace.copy(0, 0, out);
    return out;
}

std::vector<unsigned char>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good());
    return std::vector<unsigned char>(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path,
               const std::vector<unsigned char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

} // namespace

// --- round-trip -------------------------------------------------------

TEST(TraceV4, WriterWritesV4)
{
    // A header, one frame header and 8 bytes a packed record.
    std::string path = ::testing::TempDir() + "v4_layout.trc";
    writeTraceFile(path, syntheticStream(100));
    std::vector<unsigned char> bytes = readFileBytes(path);
    ASSERT_EQ(bytes.size(), traceHeaderBytes + traceFrameBytes + 100 * 8);
    EXPECT_EQ(std::string(bytes.begin(), bytes.begin() + 8), "IPRTRC04");
    auto reader = openTraceReader(path);
    EXPECT_EQ(drainNext(*reader).size(), 100u);
    EXPECT_EQ(reader->packedChunks(), 1u);
    EXPECT_EQ(reader->rawChunks(), 0u);
    std::remove(path.c_str());
}

namespace
{

/** 100 copies of one record with every field set, pc stepping past
 *  its taken branch (so the chunk is raw). */
std::vector<InstrRecord>
everyColumnStream()
{
    InstrRecord w;
    w.pc = 0x123456789abcULL;
    w.target = 0xfedcba987654ULL;
    w.dataAddr = 0x1122334455ULL;
    w.op = OpClass::CondBranch;
    w.taken = true;
    w.srcReg[0] = 7;
    w.srcReg[1] = 8;
    w.dstReg = 9;
    std::vector<InstrRecord> recs;
    for (int i = 0; i < 100; ++i) {
        w.pc += instrBytes;
        recs.push_back(w);
    }
    return recs;
}

} // namespace

TEST(TraceV4, RoundTripAllFields)
{
    std::string path = ::testing::TempDir() + "v4_rt.trc";
    // A whole chunk plus a partial trailing one, and a short stream
    // with every field far from zero.
    for (const std::vector<InstrRecord> &truth :
         {syntheticStream(3 * traceChunkRecords / 2),
          everyColumnStream()}) {
        writeTraceFile(path, truth);
        auto reader = openTraceReader(path);
        EXPECT_EQ(reader->count(), truth.size());
        expectSameRecords(drainNext(*reader), truth);
        EXPECT_EQ(reader->delivered(), truth.size());
        EXPECT_FALSE(reader->corrupt());
    }
    std::remove(path.c_str());
}

TEST(TraceV4, ResetRewinds)
{
    std::string path = ::testing::TempDir() + "v4_reset.trc";
    // A multi-chunk stream, and a single record read to its end.
    for (const std::vector<InstrRecord> &truth :
         {syntheticStream(9000), syntheticStream(1, 42)}) {
        writeTraceFile(path, truth);
        auto reader = openTraceReader(path);
        expectSameRecords(drainNext(*reader), truth);
        InstrRecord r;
        EXPECT_FALSE(reader->next(r));
        reader->reset();
        expectSameRecords(drainBatch(*reader), truth);
    }
    std::remove(path.c_str());
}

TEST(TraceV4, EmptyFileRoundTrips)
{
    std::string path = ::testing::TempDir() + "v4_empty.trc";
    writeTraceFile(path, {});
    auto reader = openTraceReader(path);
    EXPECT_EQ(reader->count(), 0u);
    InstrRecord r;
    EXPECT_FALSE(reader->next(r));
    std::remove(path.c_str());
}

TEST(TraceV4, SingleRecordAndShortChunks)
{
    std::string path = ::testing::TempDir() + "v4_short.trc";
    // Chunks shorter than a whole one; the second stream is
    // straight-line code with no address at all.
    std::vector<InstrRecord> straight;
    for (unsigned i = 0; i < 11; ++i) {
        InstrRecord r;
        r.pc = 0x1000 + 4u * i;
        r.op = OpClass::IntAlu;
        straight.push_back(r);
    }
    for (const std::vector<InstrRecord> &truth :
         {syntheticStream(11, 7), straight, syntheticStream(1, 3)}) {
        writeTraceFile(path, truth);
        auto reader = openTraceReader(path);
        expectSameRecords(drainNext(*reader), truth);
    }
    std::remove(path.c_str());
}

TEST(TraceV4, WriterRefusesRecordsNoReaderAccepts)
{
    // A register byte indexes the core's scoreboard: the writer must
    // not store one the reader would refuse (or the core overrun).
    std::string path = ::testing::TempDir() + "v4_refuse.trc";
    std::vector<InstrRecord> recs = syntheticStream(10, 9);
    recs[3].dstReg = numRegs - 1;
    writeTraceFile(path, recs);
    for (int field = 0; field < 4; ++field) {
        InstrRecord bad = recs[5];
        if (field == 0)
            bad.dstReg = 250;
        else if (field == 3)
            bad.op = OpClass::NumOpClasses;
        else
            bad.srcReg[field - 1] = numRegs;
        TraceFileWriter writer(path);
        writer.write(recs[0]);
        test::expectThrows<TraceError>([&] { writer.write(bad); },
                                       "record no reader accepts");
        EXPECT_EQ(writer.count(), 1u);
        writer.close();
        EXPECT_EQ(openTraceReader(path)->count(), 1u);
    }
    std::remove(path.c_str());
}

TEST(TraceV4, FastCrcsMatchBytewise)
{
    std::mt19937 rng(99);
    std::vector<unsigned char> data(4099 + 16);
    for (auto &b : data)
        b = static_cast<unsigned char>(rng());
    // Every length through a few folding steps, at every alignment
    // of a 16-byte load, then whole frames.
    for (std::size_t n = 0; n <= 4099; n = n < 300 ? n + 1 : n + 761) {
        for (std::size_t at = 0; at < 16; at += n < 300 ? 5 : 1) {
            const unsigned char *p = data.data() + at;
            EXPECT_EQ(crc32Sliced(p, n), crc32(p, n)) << "n=" << n;
            EXPECT_EQ(crc32Fast(p, n), crc32(p, n)) << "n=" << n;
        }
    }
    // Incremental seeding agrees too.
    std::uint32_t a = crc32(data.data(), 100);
    EXPECT_EQ(crc32Sliced(data.data() + 100, 999, a),
              crc32(data.data() + 100, 999, a));
    EXPECT_EQ(crc32Fast(data.data() + 100, 999, a),
              crc32(data.data() + 100, 999, a));
}

// --- damage -----------------------------------------------------------

TEST(TraceV4, TruncationStrictThrowsTolerantSalvages)
{
    std::string path = ::testing::TempDir() + "v4_trunc.trc";
    std::vector<InstrRecord> truth = syntheticStream(10000, 3);
    writeTraceFile(path, truth);
    std::vector<unsigned char> intact = readFileBytes(path);

    // Clip at several depths, from the last record into the second
    // frame's records.
    for (std::size_t clip : {1u, 5u, 200u, 997u, 20000u}) {
        ASSERT_GT(intact.size(), clip);
        std::vector<unsigned char> cut(intact.begin(),
                                       intact.end() -
                                           static_cast<std::ptrdiff_t>(
                                               clip));
        writeFileBytes(path, cut);

        test::expectThrows<TraceError>(
            [&] {
                auto r =
                    openTraceReader(path, TraceReadMode::Strict);
                drainNext(*r);
            },
            "");

        auto reader = openTraceReader(path, TraceReadMode::Tolerant);
        std::vector<InstrRecord> got = drainNext(*reader);
        EXPECT_TRUE(reader->corrupt());
        EXPECT_FALSE(reader->corruptionDetail().empty());
        // Whole chunks up to the damage read exactly; never garbage.
        ASSERT_LE(got.size(), truth.size());
        EXPECT_EQ(got.size(), clip < 14000 ? 2 * traceChunkRecords
                                           : traceChunkRecords);
        expectSameRecords(got,
                          std::vector<InstrRecord>(
                              truth.begin(),
                              truth.begin() +
                                  static_cast<std::ptrdiff_t>(
                                      got.size())));
    }
    std::remove(path.c_str());
}

TEST(TraceV4, BitFlipFuzzNeverYieldsGarbage)
{
    std::string path = ::testing::TempDir() + "v4_fuzz.trc";
    std::vector<InstrRecord> truth = syntheticStream(10000, 11);
    writeTraceFile(path, truth);
    std::vector<unsigned char> intact = readFileBytes(path);

    std::mt19937 rng(1234);
    for (int trial = 0; trial < 60; ++trial) {
        std::vector<unsigned char> bytes = intact;
        // Flip one bit anywhere past the header (header damage is
        // always fatal and covered separately).
        std::size_t at = traceHeaderBytes +
                         rng() % (bytes.size() - traceHeaderBytes);
        bytes[at] ^= static_cast<unsigned char>(1u << (rng() % 8));
        writeFileBytes(path, bytes);

        auto reader = openTraceReader(path, TraceReadMode::Tolerant);
        std::vector<InstrRecord> got = drainNext(*reader);
        // Every delivered record must match the original stream —
        // damage may shorten the stream but never corrupt it.
        ASSERT_LE(got.size(), truth.size()) << "trial " << trial;
        expectSameRecords(got,
                          std::vector<InstrRecord>(
                              truth.begin(),
                              truth.begin() +
                                  static_cast<std::ptrdiff_t>(
                                      got.size())));
        if (got.size() != truth.size()) {
            EXPECT_TRUE(reader->corrupt()) << "trial " << trial;
        }
    }

    std::remove(path.c_str());
}

TEST(TraceV4, HeaderDamageIsFatalEvenTolerant)
{
    std::string path = ::testing::TempDir() + "v4_hdr.trc";
    writeTraceFile(path, syntheticStream(100));
    std::vector<unsigned char> bytes = readFileBytes(path);
    bytes[9] ^= 0xff; // record count, protected by the header CRC
    writeFileBytes(path, bytes);
    test::expectThrows<TraceError>(
        [&] { openTraceReader(path, TraceReadMode::Tolerant); },
        "header CRC");
    std::remove(path.c_str());
}

namespace
{

void
putLe(unsigned char *p, std::uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint64_t
getLe(const unsigned char *p, int bytes)
{
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/** Set the record count in @p file 's header and re-seal its CRC. */
void
setHeaderCount(std::vector<unsigned char> &file, std::uint64_t count)
{
    putLe(file.data() + 8, count, 8);
    putLe(file.data() + 20, crc32(file.data(), 20), 4);
}

/**
 * A trace file whose header is CRC-valid but promises 2^40 records in
 * chunks of @p chunk, followed by one CRC-valid frame of 64 bytes —
 * far too few for the chunk it must hold.
 */
void
writeCraftedHeaderFile(const std::string &path,
                       std::uint32_t chunk = traceChunkRecords)
{
    std::vector<unsigned char> bytes(traceHeaderBytes + 8 + 64, 0);
    std::memcpy(bytes.data(), "IPRTRC04", 8);
    putLe(bytes.data() + 16, chunk, 4);
    setHeaderCount(bytes, std::uint64_t{1} << 40);
    unsigned char *frame = bytes.data() + traceHeaderBytes;
    putLe(frame, 64, 4);
    putLe(frame + 4, crc32(frame + 8, 64), 4);
    writeFileBytes(path, bytes);
}

} // namespace

TEST(TraceV4, CraftedHeaderStrictThrows)
{
    std::string path = ::testing::TempDir() + "v4_crafted_strict.trc";
    writeCraftedHeaderFile(path);
    test::expectThrows<TraceError>(
        [&] {
            auto r = openTraceReader(path, TraceReadMode::Strict);
            drainNext(*r);
        },
        "chunk frame disagrees with the header");
    // A chunk size other than the format's is refused at open, even
    // tolerantly.
    writeCraftedHeaderFile(path, 0xFFFFFFFFu);
    test::expectThrows<TraceError>(
        [&] { openTraceReader(path, TraceReadMode::Tolerant); },
        "unsupported trace chunk size");
    std::remove(path.c_str());
}

TEST(TraceV4, CraftedHeaderTolerantIsCorrupt)
{
    std::string path = ::testing::TempDir() + "v4_crafted_tolerant.trc";
    writeCraftedHeaderFile(path);
    auto reader = openTraceReader(path, TraceReadMode::Tolerant);
    EXPECT_TRUE(drainBatch(*reader).empty());
    EXPECT_TRUE(reader->corrupt());
    EXPECT_NE(reader->corruptionDetail().find("disagrees"),
              std::string::npos)
        << reader->corruptionDetail();
    std::remove(path.c_str());
}

// --- frames behind a valid CRC ----------------------------------------

namespace
{

/** One chunk frame of a trace file, as laid out on disk. */
struct ChunkFrame
{
    std::size_t off;     //!< frame offset in the file
    std::size_t bytes;   //!< bytes under the CRC: entry and records
    std::size_t first;   //!< index of the chunk's first record
    std::size_t records; //!< records in the chunk
    bool packed;

    /** File offset of record @p i. */
    std::size_t
    at(std::size_t i) const
    {
        return off + traceFrameBytes + i * chunkRecordBytes(packed);
    }
};

std::vector<ChunkFrame>
chunkFrames(const std::vector<unsigned char> &file)
{
    std::vector<ChunkFrame> frames;
    std::size_t first = 0;
    for (std::size_t off = traceHeaderBytes;
         off + traceFrameBytes <= file.size();) {
        const ChunkFrame f{off, getLe(&file[off], 4), first,
                           getLe(&file[off + 32], 4),
                           getLe(&file[off + 36], 4) == 1};
        frames.push_back(f);
        first += f.records;
        off += 8 + f.bytes;
    }
    return frames;
}

/** Re-seal the CRC of the frame at @p off over the bytes its size
 *  field claims, where they fit the file. */
void
refreshCrc(std::vector<unsigned char> &file, std::size_t off)
{
    const std::size_t bytes = getLe(&file[off], 4);
    if (off + 8 + bytes <= file.size())
        putLe(&file[off + 4], crc32(&file[off + 8], bytes), 4);
}

std::vector<InstrRecord>
slice(const std::vector<InstrRecord> &v, std::size_t from, std::size_t to)
{
    return std::vector<InstrRecord>(
        v.begin() + static_cast<std::ptrdiff_t>(from),
        v.begin() + static_cast<std::ptrdiff_t>(to));
}

bool
sameRecords(const std::vector<InstrRecord> &a,
            const std::vector<InstrRecord> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const InstrRecord &x, const InstrRecord &y) {
                          return x.pc == y.pc && x.target == y.target &&
                                 x.dataAddr == y.dataAddr &&
                                 x.op == y.op && x.taken == y.taken &&
                                 x.srcReg[0] == y.srcReg[0] &&
                                 x.srcReg[1] == y.srcReg[1] &&
                                 x.dstReg == y.dstReg;
                      });
}

/**
 * Read @p path through the mmap reader and through strict and
 * tolerant TraceCache acquires (each a fresh load). A strict read
 * must throw TraceError when @p damaged, else deliver @p full; a
 * tolerant one must deliver exactly @p prefix with the corrupt flag
 * when @p damaged, else @p full.
 */
void
expectEveryReader(const std::string &path, bool damaged,
                  const std::vector<InstrRecord> &full,
                  const std::vector<InstrRecord> &prefix)
{
    const std::vector<InstrRecord> &salvage = damaged ? prefix : full;

    auto tolerant = openTraceReader(path, TraceReadMode::Tolerant);
    expectSameRecords(drainBatch(*tolerant, 100), salvage);
    EXPECT_EQ(tolerant->corrupt(), damaged);

    TraceCache &cache = TraceCache::instance();
    cache.clear();
    auto loaded = cache.acquire(path, TraceReadMode::Tolerant);
    expectSameRecords(unpackAll(*loaded), salvage);
    EXPECT_EQ(loaded->corrupt, damaged);

    cache.clear();
    if (damaged) {
        EXPECT_THROW(drainNext(*openTraceReader(path)), TraceError);
        EXPECT_THROW(cache.acquire(path), TraceError);
    } else {
        expectSameRecords(drainNext(*openTraceReader(path)), full);
        expectSameRecords(unpackAll(*cache.acquire(path)), full);
    }
    cache.clear();
}

/** What a trace file holds: its records up to the first damaged
 *  frame, and whether there was one. */
struct Plain
{
    std::vector<InstrRecord> records;
    bool damaged = false;
};

/** One record as packed_chunk.hh describes it; false if no writer
 *  could have stored it. */
bool
plainRecord(const unsigned char *r, bool packed, Addr pc,
            Addr codeBase, Addr dataBase, InstrRecord &out)
{
    const unsigned ops = static_cast<unsigned>(OpClass::NumOpClasses);
    out = InstrRecord{};
    if (packed) {
        out.pc = pc;
        out.op = static_cast<OpClass>(r[4] & 0x7f);
        out.taken = (r[4] & 0x80) != 0;
        const Addr offset = getLe(r, 4);
        out.target = out.isCti() ? codeBase + offset : 0;
        out.dataAddr = out.isMem() ? dataBase + offset : 0;
        r += 5;
    } else {
        if (r[25] > 1 || r[29] != 0 || r[30] != 0 || r[31] != 0)
            return false;
        out.pc = getLe(r, 8);
        out.target = getLe(r + 8, 8);
        out.dataAddr = getLe(r + 16, 8);
        out.op = static_cast<OpClass>(r[24]);
        out.taken = r[25] == 1;
        r += 26;
    }
    out.srcReg[0] = r[0];
    out.srcReg[1] = r[1];
    out.dstReg = r[2];
    return static_cast<unsigned>(out.op) < ops && r[0] < numRegs &&
           r[1] < numRegs && r[2] < numRegs;
}

/**
 * The trace file format read plainly from its description in
 * trace_file.hh, byte by byte: the oracle for the frame checks. The
 * header is taken as valid.
 */
Plain
readPlainly(const std::vector<unsigned char> &file)
{
    Plain out;
    const std::uint64_t count = getLe(&file[8], 8);
    std::size_t off = traceHeaderBytes;
    for (std::uint64_t first = 0; first < count;
         first += traceChunkRecords) {
        const std::uint64_t n =
            std::min<std::uint64_t>(count - first, traceChunkRecords);
        out.damaged = true;
        if (off + traceFrameBytes > file.size())
            return out;
        const std::uint64_t bytes = getLe(&file[off], 4);
        if (bytes < 32 || off + 8 + bytes > file.size() ||
            crc32(&file[off + 8], bytes) != getLe(&file[off + 4], 4))
            return out;
        const Addr firstPc = getLe(&file[off + 8], 8);
        const Addr codeBase = getLe(&file[off + 16], 8);
        const Addr dataBase = getLe(&file[off + 24], 8);
        const std::uint64_t kind = getLe(&file[off + 36], 4);
        const std::size_t stride = kind == 1 ? 8 : 32;
        if (kind > 1 || getLe(&file[off + 32], 4) != n ||
            bytes != 32 + n * stride ||
            (kind == 0 && (firstPc | codeBase | dataBase) != 0))
            return out;
        std::vector<InstrRecord> chunk(n);
        Addr pc = firstPc;
        for (std::size_t i = 0; i < n; ++i) {
            if (!plainRecord(&file[off + 40 + i * stride], kind == 1, pc,
                             codeBase, dataBase, chunk[i]))
                return out;
            pc = chunk[i].nextPc();
        }
        out.records.insert(out.records.end(), chunk.begin(), chunk.end());
        out.damaged = false;
        off += 8 + bytes;
    }
    return out;
}

/** Two packed chunks around a raw one (a pc chain break), 2 x 4096
 *  + 300 records. */
std::vector<InstrRecord>
packedRawPackedStream(std::uint32_t seed)
{
    std::vector<InstrRecord> recs =
        syntheticStream(2 * traceChunkRecords + 300, seed);
    recs[traceChunkRecords + 100].pc += instrBytes;
    return recs;
}

} // namespace

TEST(TraceV4, FrameFuzzBehindValidCrc)
{
    // Each trial mutates one field of one frame and re-seals the CRCs
    // over it, so only the frame and record checks stand between the
    // bytes and the consumers. Every reader must then agree with the
    // format read plainly: a TraceError from the damaged frame on, or
    // exactly the records the mutated bytes hold.
    std::string path = ::testing::TempDir() + "v4_framefuzz.trc";
    const std::vector<InstrRecord> truth = packedRawPackedStream(17);
    writeTraceFile(path, truth);
    const std::vector<unsigned char> intact = readFileBytes(path);
    const std::vector<ChunkFrame> frames = chunkFrames(intact);
    ASSERT_EQ(frames.size(), 3u);
    ASSERT_TRUE(frames[0].packed && !frames[1].packed && frames[2].packed);
    ASSERT_FALSE(readPlainly(intact).damaged);
    expectSameRecords(readPlainly(intact).records, truth);

    std::mt19937 rng(4242);
    unsigned rejected = 0, altered = 0;
    const unsigned trials = 270;
    for (unsigned trial = 0; trial < trials; ++trial) {
        SCOPED_TRACE(::testing::Message() << "trial " << trial);
        std::vector<unsigned char> bytes = intact;
        const ChunkFrame &f = frames[rng() % frames.size()];
        const std::size_t rec = f.at(rng() % f.records);
        const auto any = [&] { return static_cast<unsigned char>(rng()); };
        switch (trial % 9) {
          case 0: // the frame size: near its own, or anything
            putLe(&bytes[f.off], rng() % 2 ? f.bytes + rng() % 65 - 32 : rng(),
                  4);
            break;
          case 1: // the record count
            putLe(&bytes[f.off + 32],
                  rng() % 2 ? f.records + rng() % 3 - 1
                            : rng() % (2 * traceChunkRecords),
                  4);
            break;
          case 2: // the kind
            bytes[f.off + 36 + rng() % 4] =
                static_cast<unsigned char>(rng() % 3);
            break;
          case 3: // one bit of the first pc, code base or data base
            bytes[f.off + 8 + rng() % 24] ^=
                static_cast<unsigned char>(1u << (rng() % 8));
            break;
          case 4: // the op byte (a packed one holds the taken bit too)
            bytes[rec + (f.packed ? 4 : 24)] = any();
            break;
          case 5: // the taken flag
            if (f.packed)
                bytes[rec + 4] ^= 0x80;
            else
                bytes[rec + 25] = static_cast<unsigned char>(rng() % 3);
            break;
          case 6: // a register byte, in range or not
            bytes[rec + (f.packed ? 5 : 26) + rng() % 3] =
                static_cast<unsigned char>(rng() % (2 * numRegs));
            break;
          case 7: // raw padding, or a packed operand offset
            if (f.packed)
                bytes[rec + rng() % 4] = any();
            else
                bytes[rec + 29 + rng() % 3] = rng() % 2 ? 0 : any();
            break;
          default: // the header's record count
            setHeaderCount(bytes, rng() % 2 ? truth.size() + rng() % 9000 -
                                                  4500
                                            : rng() % (3 * traceChunkRecords));
            break;
        }
        refreshCrc(bytes, f.off);
        writeFileBytes(path, bytes);
        const Plain plain = readPlainly(bytes);
        rejected += plain.damaged;
        altered += !plain.damaged && !sameRecords(plain.records, truth);
        expectEveryReader(path, plain.damaged, plain.records,
                          plain.records);
    }
    // Most mutations must reach a rejection, and some must pass as
    // other records than the ones written.
    EXPECT_GT(rejected, trials / 3);
    EXPECT_GT(altered, trials / 20);
    std::remove(path.c_str());
}

TEST(TraceV4, OutOfRangeRecordBytesAreDamage)
{
    // Bytes no writer stores, each behind a re-sealed CRC: strict
    // reads throw, tolerant ones keep the frames before the damage.
    std::string path = ::testing::TempDir() + "v4_badrecord.trc";
    const std::vector<InstrRecord> truth = packedRawPackedStream(19);
    writeTraceFile(path, truth);
    const std::vector<unsigned char> intact = readFileBytes(path);
    const std::vector<ChunkFrame> frames = chunkFrames(intact);
    struct Case
    {
        std::size_t frame, byte; //!< byte within a record
        unsigned char value;
        const char *needle;
    };
    const Case cases[] = {
        {0, 7, 250, "invalid record"},      // packed dst register
        {0, 5, numRegs, "invalid record"},  // packed src0 register
        {2, 4, 11, "invalid record"},       // packed op class
        {2, 4, 0x80 | 11, "invalid record"}, // ... with the taken bit
        {1, 28, 250, "invalid record"},     // raw dst register
        {1, 27, numRegs, "invalid record"}, // raw src1 register
        {1, 24, 11, "invalid record"},      // raw op class
        {1, 25, 2, "invalid record"},       // raw taken byte
        {1, 29, 1, "invalid record"},       // raw padding
        {1, 31, 0x80, "invalid record"},    // raw padding
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(::testing::Message()
                     << "frame " << c.frame << " byte " << c.byte);
        const ChunkFrame &f = frames[c.frame];
        std::vector<unsigned char> bytes = intact;
        bytes[f.at(f.records / 2) + c.byte] = c.value;
        refreshCrc(bytes, f.off);
        writeFileBytes(path, bytes);
        test::expectThrows<TraceError>(
            [&] { drainNext(*openTraceReader(path)); }, c.needle);
        expectEveryReader(path, true, truth, slice(truth, 0, f.first));
    }
    // A raw chunk's entry must be all zero.
    std::vector<unsigned char> bytes = intact;
    bytes[frames[1].off + 20] = 1;
    refreshCrc(bytes, frames[1].off);
    writeFileBytes(path, bytes);
    test::expectThrows<TraceError>(
        [&] { drainNext(*openTraceReader(path)); },
        "raw chunk with a nonzero entry");
    std::remove(path.c_str());
}

TEST(TraceV4, TimingReplayOfAnOutOfRangeRegisterThrows)
{
    // A CRC-valid capture naming register 250: a timing core would
    // index its 32-entry scoreboard with it, so neither the shared
    // cache nor a private reader may deliver the record.
    std::string path = ::testing::TempDir() + "v4_badreg_replay.trc";
    writeTraceFile(path, syntheticStream(traceChunkRecords, 23));
    std::vector<unsigned char> bytes = readFileBytes(path);
    const ChunkFrame f = chunkFrames(bytes).front();
    bytes[f.at(10) + 7] = 250;
    refreshCrc(bytes, f.off);
    writeFileBytes(path, bytes);
    for (bool shared : {true, false}) {
        SCOPED_TRACE(::testing::Message() << "shared " << shared);
        TraceSpec trace = TraceSpec::file(path);
        trace.shared = shared;
        const RunSpec spec =
            RunSpec::builder().cmp(false).trace(trace).instrScale(0.01).build();
        TraceCache::instance().clear();
        test::expectThrows<TraceError>([&] { runSpec(spec); },
                                       "invalid record");
    }
    TraceCache::instance().clear();
    std::remove(path.c_str());
}

TEST(TraceCache, TolerantLoadDamagedInChunkKHoldsChunksBeforeK)
{
    // A damaged last record passes every frame check but the record
    // check: the load must keep the chunks before it and none of its
    // own.
    std::string path = ::testing::TempDir() + "cache_rollback.trc";
    const std::vector<InstrRecord> truth = packedRawPackedStream(29);
    writeTraceFile(path, truth);
    const std::vector<unsigned char> intact = readFileBytes(path);
    const std::vector<ChunkFrame> frames = chunkFrames(intact);
    ASSERT_EQ(frames.size(), 3u);

    for (const ChunkFrame &f : frames) {
        SCOPED_TRACE(::testing::Message() << "frame at " << f.off);
        std::vector<unsigned char> bytes = intact;
        bytes[f.at(f.records - 1) + (f.packed ? 7 : 28)] = 250;
        refreshCrc(bytes, f.off);
        writeFileBytes(path, bytes);

        TraceCache::instance().clear();
        auto t = TraceCache::instance().acquire(path,
                                                TraceReadMode::Tolerant);
        EXPECT_NE(t->corruptionDetail.find("invalid record"),
                  std::string::npos)
            << t->corruptionDetail;
        expectEveryReader(path, true, truth, slice(truth, 0, f.first));
    }
    std::remove(path.c_str());
}

namespace
{

/** The address and length of this process's mapping of @p path (as
 *  /proc/self/maps lists it), or {nullptr, 0}. */
std::pair<unsigned char *, std::size_t>
findMapping(const std::string &path)
{
    std::ifstream maps("/proc/self/maps");
    for (std::string line; std::getline(maps, line);) {
        if (!line.ends_with(" " + path))
            continue;
        unsigned long lo = 0, hi = 0;
        if (std::sscanf(line.c_str(), "%lx-%lx", &lo, &hi) == 2)
            return {reinterpret_cast<unsigned char *>(lo), hi - lo};
    }
    return {nullptr, 0};
}

/**
 * Pages of the mapping [@p at, @p at + @p bytes) of file @p fd that
 * this process holds resident. mincore() also reports pages that are
 * only in the page cache, so the file's unmapped pages are dropped from
 * it first; the file must be clean (synced) for that to work.
 */
std::size_t
residentMappedPages(int fd, unsigned char *at, std::size_t bytes)
{
    EXPECT_EQ(::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED), 0);
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    std::vector<unsigned char> vec((bytes + page - 1) / page);
    EXPECT_EQ(::mincore(at, bytes, vec.data()), 0);
    return static_cast<std::size_t>(
        std::count_if(vec.begin(), vec.end(),
                      [](unsigned char v) { return (v & 1) != 0; }));
}

} // namespace

TEST(TraceV4, StreamingReaderHoldsABoundedWindowOfTheFile)
{
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t window = (3u << 19) / page; // 1.5 release strides
    std::string path = ::testing::TempDir() + "v4_bounded.trc";
    writeTraceFile(path, syntheticStream(1'000'000, 3));
    const int fd = ::open(path.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::fdatasync(fd), 0);

    // Streaming the whole file, twice over a reset(), the reader holds
    // no more than about one release stride of it at any time. Its
    // mapping is made random-access first: readahead (as wide as the
    // device allows) would leave pages under I/O, which the probe
    // cannot drop from the page cache.
    auto reader = openTraceReader(path);
    auto [at, bytes] = findMapping(path);
    ASSERT_NE(at, nullptr);
    ASSERT_GT(bytes, 3 * window * page);
    ASSERT_EQ(::madvise(at, bytes, MADV_RANDOM), 0);
    std::vector<InstrRecord> buf(4096);
    std::size_t most = 0, records = 0, batches = 0;
    for (int pass = 0; pass < 2; ++pass) {
        reader->reset();
        for (std::size_t got = buf.size(); got == buf.size();) {
            got = reader->nextBatch(buf);
            records += got;
            if (++batches % 8 == 0)
                most = std::max(most, residentMappedPages(fd, at, bytes));
        }
    }
    EXPECT_EQ(records, 2'000'000u);
    EXPECT_GT(most, 0u);
    EXPECT_LE(most, window);
    reader.reset();

    // The probe itself: a mapping read end to end keeps every page,
    // and releaseBefore() past the end drops them all.
    MappedFile map(path);
    for (std::size_t off = 0; off < map.size(); off += page)
        static_cast<void>(
            *static_cast<const volatile unsigned char *>(map.data() + off));
    auto *mapped = const_cast<unsigned char *>(map.data());
    EXPECT_EQ(residentMappedPages(fd, mapped, map.size()),
              (map.size() + page - 1) / page);
    map.releaseBefore(map.size());
    EXPECT_LE(residentMappedPages(fd, mapped, map.size()), 1u);
    ::close(fd);
    std::remove(path.c_str());
}

// --- TraceCache -------------------------------------------------------

TEST(TraceCache, TolerantAcquireOfCraftedHeaderIsCorrupt)
{
    // The header's 2^40-record count must not size the decode buffer.
    std::string path = ::testing::TempDir() + "cache_crafted.trc";
    writeCraftedHeaderFile(path, 4096);
    TraceCache::instance().clear();
    auto t = TraceCache::instance().acquire(path,
                                            TraceReadMode::Tolerant);
    EXPECT_TRUE(t->corrupt);
    EXPECT_EQ(t->size(), 0u);
    EXPECT_EQ(t->headerCount, std::uint64_t{1} << 40);
    TraceCache::instance().clear();
    std::remove(path.c_str());
}

TEST(TraceCache, SharesOneDecodeAcrossAcquires)
{
    std::string path = ::testing::TempDir() + "cache_share.trc";
    std::vector<InstrRecord> truth = syntheticStream(500);
    writeTraceFile(path, truth);
    TraceCache::instance().clear();

    auto a = TraceCache::instance().acquire(path);
    auto b = TraceCache::instance().acquire(path);
    EXPECT_EQ(a.get(), b.get());
    TraceCache::Stats s = TraceCache::instance().stats();
    EXPECT_EQ(s.decodes, 1u);
    EXPECT_EQ(s.hits, 1u);

    CachedTraceSource src(a);
    expectSameRecords(drainBatch(src), truth);
    EXPECT_EQ(src.sizeHint(), truth.size());

    TraceCache::instance().clear();
    std::remove(path.c_str());
}

TEST(TraceCache, RewrittenFileIsReloaded)
{
    std::string path = ::testing::TempDir() + "cache_stale.trc";
    writeTraceFile(path, syntheticStream(100, 1));
    TraceCache::instance().clear();
    auto a = TraceCache::instance().acquire(path);
    EXPECT_EQ(a->size(), 100u);

    writeTraceFile(path, syntheticStream(150, 2));
    auto b = TraceCache::instance().acquire(path);
    EXPECT_EQ(b->size(), 150u);
    TraceCache::Stats s = TraceCache::instance().stats();
    EXPECT_EQ(s.decodes, 2u);
    EXPECT_EQ(s.staleReloads, 1u);
    // The old decode stays valid for holders of the old handle.
    EXPECT_EQ(a->size(), 100u);

    TraceCache::instance().clear();
    std::remove(path.c_str());
}

TEST(TraceCache, StrictAcquireOfDamagedFileThrows)
{
    std::string path = ::testing::TempDir() + "cache_damaged.trc";
    writeTraceFile(path, syntheticStream(1000));
    std::vector<unsigned char> bytes = readFileBytes(path);
    bytes[bytes.size() - 3] ^= 0x40;
    writeFileBytes(path, bytes);
    TraceCache::instance().clear();

    test::expectThrows<TraceError>(
        [&] { TraceCache::instance().acquire(path); }, "");
    // Tolerant acquire of the same entry salvages the prefix.
    auto t = TraceCache::instance().acquire(path,
                                            TraceReadMode::Tolerant);
    EXPECT_TRUE(t->corrupt);
    EXPECT_LT(t->size(), 1000u);

    TraceCache::instance().clear();
    std::remove(path.c_str());
}

TEST(TraceCache, ParallelBatchSharingOneTraceDecodesOnce)
{
    std::string path = ::testing::TempDir() + "cache_jobs.trc";
    writeTraceFile(path, syntheticStream(5000, 21));
    TraceCache::instance().clear();

    std::vector<RunSpec> specs;
    for (int i = 0; i < 8; ++i)
        specs.push_back(RunSpec::builder()
                            .cmp(false)
                            .functional()
                            .traceFile(path)
                            .instrScale(0.01)
                            .baseSeed(100 + i)
                            .build());

    BatchOptions batch;
    batch.jobs = 8;
    std::vector<RunOutcome> outcomes = runBatch(specs, batch);
    ASSERT_EQ(outcomes.size(), 8u);
    for (const RunOutcome &o : outcomes)
        EXPECT_TRUE(o.ok()) << o.error;

    // The acceptance assertion: 8 concurrent runs over one shared
    // trace perform exactly one decode; the rest are cache hits.
    TraceCache::Stats s = TraceCache::instance().stats();
    EXPECT_EQ(s.decodes, 1u);
    EXPECT_EQ(s.hits, 7u);

    // Sharing does not change results: the same spec unshared is
    // bit-identical.
    TraceSpec unshared = TraceSpec::file(path);
    unshared.shared = false;
    SimResults direct = runSpec(RunSpec::Builder(specs[0])
                                    .trace(unshared)
                                    .build());
    EXPECT_EQ(resultsToJson(direct),
              resultsToJson(outcomes[0].results));

    TraceCache::instance().clear();
    std::remove(path.c_str());
}

// --- packed TraceCache -------------------------------------------------

namespace
{

constexpr std::size_t kChunk = DecodedTrace::chunkRecords;

/** The first @p n records core 0 of preset @p kind walks. */
std::vector<InstrRecord>
presetStream(WorkloadKind kind, std::size_t n)
{
    auto wl = makeWorkload(kind, 0);
    std::vector<InstrRecord> recs(n);
    EXPECT_EQ(wl->nextBatch(recs), n);
    return recs;
}

std::int64_t
residentGauge()
{
    return metrics::registry()
        .gauge("ipref_trace_cache_resident_bytes")
        .value();
}

/**
 * Read @p trace through a CachedTraceSource and @p path through a
 * MappedTraceReader in lockstep, @p batch records a step (0: one
 * next() a step), requiring equal counts and records to the end.
 */
void
expectLockstep(const std::shared_ptr<const DecodedTrace> &trace,
               const std::string &path, TraceReadMode mode,
               std::size_t batch)
{
    SCOPED_TRACE(::testing::Message() << "batch " << batch);
    CachedTraceSource cached(trace);
    auto reader = openTraceReader(path, mode);
    std::vector<InstrRecord> got(std::max<std::size_t>(batch, 1));
    std::vector<InstrRecord> want(got.size());
    for (std::size_t step = 0;; ++step) {
        std::size_t n = 0;
        if (batch == 0) {
            n = cached.next(got[0]);
            ASSERT_EQ(reader->next(want[0]), n == 1) << "step " << step;
        } else {
            n = cached.nextBatch(got);
            ASSERT_EQ(reader->nextBatch(want), n) << "step " << step;
        }
        expectSameRecords(std::span(got).first(n),
                          std::span(want).first(n));
        if (n < got.size())
            return;
    }
}

/**
 * The packed cache entry for @p path must replay exactly what the
 * mmap reader delivers: at every batch size and via next(), again
 * after reset(), and across a LoopingTraceSource wrap.
 */
void
expectCacheMatchesReader(const std::string &path,
                         TraceReadMode mode = TraceReadMode::Strict)
{
    auto trace = TraceCache::instance().acquire(path, mode);
    for (std::size_t batch : {0u, 1u, 7u, 512u, 4097u})
        expectLockstep(trace, path, mode, batch);

    // A drained source rewinds to the same stream.
    CachedTraceSource cached(trace);
    auto reader = openTraceReader(path, mode);
    std::vector<InstrRecord> first = drainBatch(cached, 512);
    cached.reset();
    reader->reset();
    std::vector<InstrRecord> again = drainBatch(cached, 7);
    expectSameRecords(again, first);
    expectSameRecords(drainBatch(*reader, 7), first);

    // Looping wraps mid-batch at the trace's end.
    cached.reset();
    reader->reset();
    LoopingTraceSource loopCached(cached), loopReader(*reader);
    std::vector<InstrRecord> a(2 * trace->size() + 5), b(a.size());
    ASSERT_EQ(loopCached.nextBatch(a), a.size());
    ASSERT_EQ(loopReader.nextBatch(b), b.size());
    expectSameRecords(a, b);
}

/** Write @p recs, load the file into a cleared cache. */
std::shared_ptr<const DecodedTrace>
loadFresh(const std::string &path, const std::vector<InstrRecord> &recs)
{
    writeTraceFile(path, recs);
    TraceCache::instance().clear();
    return TraceCache::instance().acquire(path);
}

} // namespace

TEST(PackedTraceCache, PresetCapturesPackEveryChunk)
{
    const std::size_t n = 3 * kChunk + 321;
    std::vector<std::vector<InstrRecord>> streams;
    for (WorkloadKind kind : allWorkloadKinds())
        streams.push_back(presetStream(kind, n));
    streams.push_back(syntheticStream(n, 5));

    for (std::size_t i = 0; i < streams.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "stream " << i);
        std::string path = ::testing::TempDir() + "packed_preset.trc";
        auto t = loadFresh(path, streams[i]);
        ASSERT_EQ(t->size(), n);
        EXPECT_EQ(t->packedRecords(), n);
        EXPECT_LE(2 * t->residentBytes(), 17 * n); // <= 8.5 B/record
        EXPECT_EQ(residentGauge(),
                  static_cast<std::int64_t>(t->residentBytes()));
        expectSameRecords(unpackAll(*t), streams[i]);
        expectCacheMatchesReader(path);
        std::remove(path.c_str());
    }

    // Two entries add up in the gauge; clear() empties it.
    std::string a = ::testing::TempDir() + "packed_gauge_a.trc";
    std::string b = ::testing::TempDir() + "packed_gauge_b.trc";
    writeTraceFile(a, streams[0]);
    writeTraceFile(b, syntheticStream(100, 6));
    TraceCache::instance().clear();
    EXPECT_EQ(residentGauge(), 0);
    std::size_t bytes = TraceCache::instance().acquire(a)->residentBytes() +
                        TraceCache::instance().acquire(b)->residentBytes();
    EXPECT_EQ(residentGauge(), static_cast<std::int64_t>(bytes));
    TraceCache::instance().clear();
    EXPECT_EQ(residentGauge(), 0);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

namespace
{

constexpr Addr kTwo32 = Addr{1} << 32;

/** The pack rule written plainly: may chunk @p c use 8-byte records? */
bool
packsPlainly(std::span<const InstrRecord> c)
{
    Addr codeLo = ~Addr{0}, codeHi = 0, dataLo = ~Addr{0}, dataHi = 0;
    for (std::size_t i = 0; i < c.size(); ++i) {
        const InstrRecord &r = c[i];
        if (r.op >= OpClass::NumOpClasses)
            return false;
        if (i > 0 && r.pc != c[i - 1].nextPc())
            return false;
        if (r.isCti()) {
            codeLo = std::min(codeLo, r.target);
            codeHi = std::max(codeHi, r.target);
        } else if (r.target != 0) {
            return false;
        }
        if (r.isMem()) {
            dataLo = std::min(dataLo, r.dataAddr);
            dataHi = std::max(dataHi, r.dataAddr);
        } else if (r.dataAddr != 0) {
            return false;
        }
    }
    return (codeHi < codeLo || codeHi - codeLo < kTwo32) &&
           (dataHi < dataLo || dataHi - dataLo < kTwo32);
}

/** Records of @p recs that sit in chunks packsPlainly() accepts. */
std::size_t
plainlyPacked(const std::vector<InstrRecord> &recs)
{
    std::size_t packed = 0;
    for (std::size_t at = 0; at < recs.size(); at += kChunk) {
        std::span<const InstrRecord> c(
            recs.data() + at, std::min(kChunk, recs.size() - at));
        packed += packsPlainly(c) ? c.size() : 0;
    }
    return packed;
}

/** First index in @p c at or after @p from whose record @p pick
 *  accepts. */
template <typename Pick>
std::size_t
findRecord(const std::vector<InstrRecord> &c, Pick &&pick,
           std::size_t from = 0)
{
    for (std::size_t i = from; i < c.size(); ++i)
        if (pick(c[i]))
            return i;
    ADD_FAILURE() << "no such record";
    return from;
}

bool
isPlainOp(const InstrRecord &r)
{
    return r.op == OpClass::IntAlu;
}

bool
isLoad(const InstrRecord &r)
{
    return r.op == OpClass::Load;
}

/** A CTI that does not redirect, so its target is free to change. */
bool
isNotTakenBranch(const InstrRecord &r)
{
    return r.op == OpClass::CondBranch && !r.taken;
}

/** Move @p c's code by @p delta: pcs and CTI targets shift, so the pc
 *  chain inside the chunk still holds. */
void
translateCode(std::vector<InstrRecord> &c, Addr delta)
{
    for (InstrRecord &r : c) {
        r.pc += delta;
        if (r.isCti())
            r.target += delta;
    }
}

Addr
lowestDataAddr(const std::vector<InstrRecord> &c)
{
    Addr lo = ~Addr{0};
    for (const InstrRecord &r : c)
        if (r.isMem())
            lo = std::min(lo, r.dataAddr);
    return lo;
}

Addr
lowestTarget(const std::vector<InstrRecord> &c)
{
    Addr lo = ~Addr{0};
    for (const InstrRecord &r : c)
        if (r.isCti())
            lo = std::min(lo, r.target);
    return lo;
}

/**
 * A pc-chained stream of @p n records over every op class, any of
 * which may have its taken bit set; one CTI in eight has a zero target.
 */
std::vector<InstrRecord>
everyOpStream(std::size_t n, std::uint64_t seed, Addr pc = 0x10000000)
{
    std::mt19937_64 rng(seed);
    std::vector<InstrRecord> recs(n);
    for (InstrRecord &r : recs) {
        r.pc = pc;
        r.op = static_cast<OpClass>(
            rng() % static_cast<unsigned>(OpClass::NumOpClasses));
        r.taken = (rng() & 1) != 0;
        if (r.isCti() && rng() % 8 != 0)
            r.target = 0x10000000 + (rng() % (1u << 20)) * instrBytes;
        if (r.isMem())
            r.dataAddr = 0x1000000000ULL + rng() % (1u << 24);
        r.srcReg[0] = static_cast<std::uint8_t>(rng() % numRegs);
        r.srcReg[1] = static_cast<std::uint8_t>(rng() % numRegs);
        r.dstReg = static_cast<std::uint8_t>(rng() % numRegs);
        pc = r.nextPc();
    }
    return recs;
}

} // namespace

TEST(PackedTraceCache, AdversarialChunksFallBackToRaw)
{
    // One chunk per case, each its own stream, so every chunk's first
    // pc breaks the chain from the chunk before (which must not stop
    // it packing). A chunk packs only if its pc chain holds, each
    // record carries at most its op's address and both address kinds
    // span less than 2^32.
    std::vector<InstrRecord> recs;
    std::size_t expectPacked = 0;
    auto chunk = [&](bool packs, auto &&edit) {
        std::vector<InstrRecord> c =
            syntheticStream(kChunk, static_cast<std::uint32_t>(recs.size()));
        edit(c);
        EXPECT_EQ(packsPlainly(c), packs) << "chunk " << recs.size() / kChunk;
        recs.insert(recs.end(), c.begin(), c.end());
        expectPacked += packs ? c.size() : 0;
    };
    chunk(true, [](auto &) {});
    chunk(false, [](auto &c) { // a Load with a target
        c[findRecord(c, isLoad)].target = 0x400100;
    });
    chunk(false, [](auto &c) { // an IntAlu with a data address
        c[findRecord(c, isPlainOp, kChunk / 2)].dataAddr = 0x900080;
    });
    chunk(false, [](auto &c) { // a CTI with a data address
        c[findRecord(c, isNotTakenBranch)].dataAddr = 0x900080;
    });
    chunk(false, [](auto &c) { // a data span of exactly 2^32
        c[findRecord(c, isLoad, 17)].dataAddr = lowestDataAddr(c) + kTwo32;
    });
    chunk(true, [](auto &c) { // a data span of 2^32 - 1 still packs
        c[findRecord(c, isLoad, 9)].dataAddr =
            lowestDataAddr(c) + kTwo32 - 1;
    });
    chunk(false, [](auto &c) { // a target span of exactly 2^32
        c[findRecord(c, isNotTakenBranch, 17)].target =
            lowestTarget(c) + kTwo32;
    });
    chunk(true, [](auto &c) { // a target span of 2^32 - 1 still packs
        c[findRecord(c, isNotTakenBranch, 9)].target =
            lowestTarget(c) + kTwo32 - 1;
    });
    chunk(true, [](auto &c) { // zero-target CTIs pack
        for (InstrRecord &r : c)
            if (isNotTakenBranch(r))
                r.target = 0;
    });
    chunk(false, [](auto &c) { // a zero target and a kernel target
        c[findRecord(c, isNotTakenBranch)].target = 0;
        c[findRecord(c, isNotTakenBranch, kChunk / 2)].target =
            0xffffffff80000000ULL;
    });
    chunk(true, [](auto &c) { // kernel-half pcs, targets and data
        translateCode(c, 0xffffffff80000000ULL - 0x400000);
        for (InstrRecord &r : c)
            if (r.dataAddr != 0)
                r.dataAddr |= 0xffff800000000000ULL;
    });
    chunk(false, [](auto &c) { // a chain break inside the chunk
        c[kChunk / 2].pc += instrBytes;
    });
    chunk(false, [](auto &c) { // a chain break at its last record
        c[kChunk - 1].pc = 0xffffffff80000000ULL;
    });
    std::vector<InstrRecord> tail = syntheticStream(1000, 77);
    translateCode(tail, 0x1000); // the chain breaks into the tail
    recs.insert(recs.end(), tail.begin(), tail.end());
    expectPacked += tail.size();
    EXPECT_EQ(plainlyPacked(recs), expectPacked);

    std::string path = ::testing::TempDir() + "packed_adversarial.trc";
    auto t = loadFresh(path, recs);
    ASSERT_EQ(t->size(), recs.size());
    EXPECT_EQ(t->packedRecords(), expectPacked);
    const std::size_t raw = recs.size() - expectPacked;
    EXPECT_GE(t->residentBytes(), expectPacked * sizeof(PackedRecord) +
                                      raw * sizeof(InstrRecord));
    EXPECT_EQ(residentGauge(),
              static_cast<std::int64_t>(t->residentBytes()));
    expectSameRecords(unpackAll(*t), recs);
    expectCacheMatchesReader(path);
    TraceCache::instance().clear();
    std::remove(path.c_str());
}

TEST(PackedTraceCache, AllRawTraceCostsOnlyItsRecords)
{
    // No chunk packs, whether every record carries both addresses or
    // no record follows from the one before: the trace must cost its
    // 32 B records plus the chunk table, no more.
    std::vector<InstrRecord> bothAddrs = syntheticStream(3 * kChunk + 5, 41);
    for (InstrRecord &r : bothAddrs) {
        r.target |= 0x400000;
        r.dataAddr |= 0x900000;
    }
    std::vector<InstrRecord> unchained = syntheticStream(3 * kChunk + 5, 42);
    std::reverse(unchained.begin(), unchained.end());
    std::string path = ::testing::TempDir() + "packed_all_raw.trc";
    for (const auto *recs : {&bothAddrs, &unchained}) {
        const std::size_t chunks = (recs->size() + kChunk - 1) / kChunk;
        EXPECT_EQ(plainlyPacked(*recs), 0u);
        auto t = loadFresh(path, *recs);
        ASSERT_EQ(t->size(), recs->size());
        EXPECT_EQ(t->packedRecords(), 0u);
        EXPECT_GT(t->residentBytes(), recs->size() * sizeof(InstrRecord));
        EXPECT_LE(t->residentBytes(),
                  recs->size() * sizeof(InstrRecord) + chunks * 32);
        EXPECT_EQ(residentGauge(),
                  static_cast<std::int64_t>(t->residentBytes()));
        expectSameRecords(unpackAll(*t), *recs);
        expectCacheMatchesReader(path);
    }
    TraceCache::instance().clear();
    std::remove(path.c_str());
}

TEST(PackedTraceCache, RandomAndAdversarialStreamsMatchReader)
{
    // Chunk-sized pieces of every-op streams, each damaged one way
    // (or not at all): the cache must pack exactly the chunks the
    // plain rule accepts and replay every record as the reader does.
    std::mt19937_64 rng(2026);
    std::vector<InstrRecord> recs;
    for (unsigned piece = 0; piece < 24; ++piece) {
        std::vector<InstrRecord> c = everyOpStream(
            piece + 1 < 24 ? kChunk : 777, rng(),
            0x10000000 + (rng() % 64) * 0x1000);
        const std::size_t at = 1 + rng() % (c.size() - 1);
        switch (piece % 8) {
          case 0: // untouched: the chain breaks only at its edges
            break;
          case 1: // a chain break inside
            c[at].pc += instrBytes;
            break;
          case 2: // a data address 2^32 or more above another
            c[findRecord(c, isLoad, at)].dataAddr += kTwo32;
            break;
          case 3: // a target span above 2^32
            c[findRecord(c, isNotTakenBranch, at)].target |=
                0xffff800000000000ULL;
            break;
          case 4: // a record carrying both a target and a data address
            c[at].target |= 0x10000040;
            c[at].dataAddr |= 0x1000000040ULL;
            break;
          case 5: // zero targets on every non-redirecting CTI
            for (InstrRecord &r : c)
                if (r.isCti() && !r.redirects())
                    r.target = 0;
            break;
          case 6: // a plain op with a data address
            c[findRecord(c, isPlainOp, at)].dataAddr = 0x1000000100ULL;
            break;
          default: // a kernel-half copy of the stream
            translateCode(c, 0xffffffff00000000ULL);
            break;
        }
        recs.insert(recs.end(), c.begin(), c.end());
    }
    const std::size_t expectPacked = plainlyPacked(recs);
    EXPECT_GT(expectPacked, 0u);
    EXPECT_LT(expectPacked, recs.size());

    std::string path = ::testing::TempDir() + "packed_random.trc";
    auto t = loadFresh(path, recs);
    ASSERT_EQ(t->size(), recs.size());
    EXPECT_EQ(t->packedRecords(), expectPacked);
    expectSameRecords(unpackAll(*t), recs);
    expectCacheMatchesReader(path);

    // A truncated file: the tolerant cache holds the whole chunks
    // before the cut, exactly as the tolerant reader delivers them.
    std::vector<unsigned char> bytes = readFileBytes(path);
    const ChunkFrame cut = chunkFrames(bytes)[9];
    bytes.resize(cut.at(cut.records / 2) + 3);
    writeFileBytes(path, bytes);
    TraceCache::instance().clear();
    t = TraceCache::instance().acquire(path, TraceReadMode::Tolerant);
    EXPECT_TRUE(t->corrupt);
    ASSERT_EQ(t->size(), cut.first);
    expectSameRecords(unpackAll(*t), slice(recs, 0, cut.first));
    expectCacheMatchesReader(path, TraceReadMode::Tolerant);

    // An unknown op class never reaches a file.
    std::vector<InstrRecord> unknown = slice(recs, 0, 3 * kChunk);
    unknown[2 * kChunk + 5].op = OpClass::NumOpClasses;
    EXPECT_THROW(writeTraceFile(path, unknown), TraceError);
    TraceCache::instance().clear();
    std::remove(path.c_str());
}

TEST(PackedTraceCache, ChunkEdges)
{
    std::string path = ::testing::TempDir() + "packed_edges.trc";
    for (std::size_t n : {1u, 4095u, 4096u, 4097u, 8193u}) {
        SCOPED_TRACE(::testing::Message() << n << " records");
        std::vector<InstrRecord> truth =
            syntheticStream(n, static_cast<std::uint32_t>(n));
        auto t = loadFresh(path, truth);
        ASSERT_EQ(t->size(), n);
        EXPECT_EQ(t->packedRecords(), n);
        expectSameRecords(unpackAll(*t), truth);
        expectCacheMatchesReader(path);
    }
    TraceCache::instance().clear();
    std::remove(path.c_str());
}

TEST(PackedTraceCache, TolerantSalvageCutsMidChunk)
{
    // A file cut inside a chunk's records: the salvaged prefix is the
    // chunks before it and must replay exactly as the tolerant mmap
    // reader delivers it.
    std::string path = ::testing::TempDir() + "packed_salvage.trc";
    std::vector<InstrRecord> truth = syntheticStream(10'000, 31);
    writeTraceFile(path, truth);
    const std::vector<unsigned char> intact = readFileBytes(path);
    const std::vector<ChunkFrame> frames = chunkFrames(intact);
    ASSERT_EQ(frames.size(), 3u);

    for (const ChunkFrame &f : {frames[1], frames[2]}) { // none is empty
        SCOPED_TRACE(::testing::Message() << "chunk from " << f.first);
        writeFileBytes(path, std::vector<unsigned char>(
                                 intact.begin(),
                                 intact.begin() +
                                     static_cast<std::ptrdiff_t>(
                                         f.at(f.records / 2) + 5)));
        TraceCache::instance().clear();
        auto t = TraceCache::instance().acquire(path,
                                                TraceReadMode::Tolerant);
        EXPECT_TRUE(t->corrupt);
        ASSERT_EQ(t->size(), f.first);
        EXPECT_EQ(t->packedRecords(), t->size());
        expectSameRecords(unpackAll(*t), slice(truth, 0, f.first));
        expectCacheMatchesReader(path, TraceReadMode::Tolerant);
    }
    TraceCache::instance().clear();
    std::remove(path.c_str());
}

/**
 * Functional replay from the shared packed cache must be bit-identical
 * to replay through per-core MappedTraceReaders, for every registered
 * scheme on 1 and 4 cores, and at record batches of 1 and 512 alike.
 */
class SharedReplay
    : public ::testing::TestWithParam<std::tuple<std::string, bool /*cmp*/>>
{
  protected:
    static std::string
    path()
    {
        return ::testing::TempDir() + "shared_replay.trc";
    }

    /** A DB capture of three and a bit chunks; runs loop over it. */
    static void
    SetUpTestSuite()
    {
        writeTraceFile(path(), presetStream(WorkloadKind::DB,
                                            3 * kChunk + 321));
    }

    static void
    TearDownTestSuite()
    {
        TraceCache::instance().clear();
        std::remove(path().c_str());
    }
};

TEST_P(SharedReplay, MatchesUnsharedReaderAtEveryBatch)
{
    auto [scheme, cmp] = GetParam();
    auto run = [&](bool shared, unsigned batch) {
        TraceSpec trace = TraceSpec::file(path());
        trace.shared = shared;
        SystemConfig cfg = makeConfig(RunSpec::builder()
                                          .cmp(cmp)
                                          .functional()
                                          .trace(trace)
                                          .scheme(scheme)
                                          .instrScale(0.01)
                                          .build());
        cfg.core.fetchBlockRecords = batch;
        System system(cfg);
        return resultsToJson(system.run());
    };
    const std::string scalar = run(true, 1);
    EXPECT_EQ(run(false, 1), scalar);
    EXPECT_EQ(run(true, 512), scalar);
    EXPECT_EQ(run(false, 512), scalar);
}

INSTANTIATE_TEST_SUITE_P(
    EveryScheme, SharedReplay,
    ::testing::Combine(::testing::ValuesIn(test::allSchemeTokens()),
                       ::testing::Bool()),
    [](const auto &p) {
        return test::schemeTestName(std::get<0>(p.param)) +
               (std::get<1>(p.param) ? "_Cmp" : "_Single");
    });

// --- TraceSource API --------------------------------------------------

TEST(TraceSourceApi, NextAndNextBatchAgreeAcrossSources)
{
    std::vector<InstrRecord> truth = syntheticStream(701, 13);

    std::string path = ::testing::TempDir() + "agree.trc";
    writeTraceFile(path, truth);
    {
        auto a = openTraceReader(path);
        auto b = openTraceReader(path);
        expectSameRecords(drainNext(*a), drainBatch(*b));
    }

    VectorTraceSource vecNext(truth), vecBatch(truth);
    expectSameRecords(drainNext(vecNext), drainBatch(vecBatch));

    // Looping sources: compare a bounded prefix.
    VectorTraceSource innerA(truth), innerB(truth);
    LoopingTraceSource loopA(innerA), loopB(innerB);
    std::vector<InstrRecord> viaNext(1800), viaBatch(1800);
    for (auto &r : viaNext)
        ASSERT_TRUE(loopA.next(r));
    ASSERT_EQ(loopB.nextBatch(std::span<InstrRecord>(
                  viaBatch.data(), viaBatch.size())),
              viaBatch.size());
    expectSameRecords(viaBatch, viaNext);

    std::remove(path.c_str());
}

TEST(TraceSourceApi, SizeHintReportsHeaderCount)
{
    std::string path = ::testing::TempDir() + "hint.trc";
    std::vector<InstrRecord> truth = syntheticStream(321);
    writeTraceFile(path, truth);
    auto reader = openTraceReader(path);
    EXPECT_EQ(reader->sizeHint(), truth.size());
    std::remove(path.c_str());
}

TEST(TraceSourceApi, LoopingAnEmptySourceThrows)
{
    VectorTraceSource empty{std::vector<InstrRecord>{}};
    LoopingTraceSource loop(empty);
    InstrRecord r;
    test::expectThrows<TraceError>([&] { loop.next(r); },
                                   "empty trace source");

    VectorTraceSource empty2{std::vector<InstrRecord>{}};
    LoopingTraceSource loop2(empty2);
    std::vector<InstrRecord> buf(4);
    test::expectThrows<TraceError>(
        [&] {
            loop2.nextBatch(
                std::span<InstrRecord>(buf.data(), buf.size()));
        },
        "empty trace source");
}

// --- RunSpec::Builder -------------------------------------------------

TEST(RunSpecBuilder, BuildsEquivalentSpecToLooseFields)
{
    RunSpec loose;
    loose.cmp = true;
    loose.workloads = {WorkloadKind::TPCW};
    loose.schemeToken = "discontinuity";
    loose.degree = 2;
    loose.bypassL2 = true;
    loose.instrScale = 0.05;
    loose.baseSeed = 42;

    RunSpec built = RunSpec::builder()
                        .cmp(true)
                        .workload(WorkloadKind::TPCW)
                        .scheme("discontinuity")
                        .degree(2)
                        .bypassL2()
                        .instrScale(0.05)
                        .baseSeed(42)
                        .build();
    EXPECT_EQ(fingerprintSpec(loose), fingerprintSpec(built));
}

TEST(RunSpecBuilder, ValidationRejectsBadSpecs)
{
    test::expectThrows<ConfigError>(
        [] { RunSpec::builder().degree(0).scheme("nl-miss").build(); },
        "degree");
    // Non-finite or huge scales would make makeConfig's budget casts
    // undefined behaviour.
    for (double bad : {0.0, -1.0, std::nan(""),
                       std::numeric_limits<double>::infinity(), 1e30}) {
        test::expectThrows<ConfigError>(
            [bad] { RunSpec::builder().instrScale(bad).build(); },
            "instrScale");
    }
    for (double bad : {-1.0, std::nan(""),
                       std::numeric_limits<double>::infinity()}) {
        test::expectThrows<ConfigError>(
            [bad] { RunSpec::builder().memGbPerSec(bad).build(); },
            "memGbPerSec");
    }
    EXPECT_EQ(RunSpec::builder().instrScale(1e6).build().instrScale, 1e6);
    test::expectThrows<ConfigError>(
        [] {
            TraceSpec both = TraceSpec::file("/tmp/a.trc");
            both.preset = "db";
            RunSpec::builder().trace(both).build();
        },
        "mutually exclusive");
    test::expectThrows<ConfigError>(
        [] {
            RunSpec::builder()
                .trace(TraceSpec::workloadPreset("nonsense"))
                .build();
        },
        "");
    test::expectThrows<ConfigError>(
        [] { RunSpec::builder().scheme("warp-drive").build(); },
        "unknown prefetch scheme");
}

TEST(RunSpecBuilder, EnvScaleRejectsWhatIsNotAFinitePositiveNumber)
{
    for (const char *bad : {"inf", "nan", "0", "-2", "abc", "3x", ""}) {
        ::setenv("IPREF_SCALE", bad, 1);
        test::expectThrows<ConfigError>([] { envScale(); },
                                        "IPREF_SCALE");
    }
    ::setenv("IPREF_SCALE", "2.5", 1);
    EXPECT_EQ(envScale(), 2.5);
    ::unsetenv("IPREF_SCALE");
    EXPECT_EQ(envScale(), 1.0);
}

TEST(RunSpecBuilder, ValidationRejectsBadQueueAndHistorySizes)
{
    // A zero-slot queue used to reach PrefetchQueue's constructor and
    // abort the process; negative sizes other than -1 silently meant
    // the default.
    for (int q : {0, -2, -7}) {
        test::expectThrows<ConfigError>(
            [q] {
                RunSpec::builder().scheme("n4l").queueSize(q).build();
            },
            "queueSize");
    }
    for (int h : {-2, -7}) {
        test::expectThrows<ConfigError>(
            [h] {
                RunSpec::builder().scheme("n4l").historySize(h).build();
            },
            "historySize");
    }
    test::expectThrows<ConfigError>(
        [] { RunSpec::builder().scheme("n4l:queue_size=0").build(); },
        "queue_size");

    // The boundary values stay legal: one queue slot, no history
    // filter, and -1 for the defaults.
    RunSpec ok = RunSpec::builder()
                     .scheme("n4l")
                     .queueSize(1)
                     .historySize(0)
                     .build();
    EXPECT_EQ(ok.queueSize, 1);
    EXPECT_EQ(ok.historySize, 0);
    RunSpec defaults =
        RunSpec::builder().queueSize(-1).historySize(-1).build();
    EXPECT_EQ(defaults.queueSize, -1);
    EXPECT_EQ(defaults.historySize, -1);
}
