/**
 * @file
 * Tests for the v3 columnar trace format, the mmap reader, the shared
 * TraceCache and the redesigned TraceSource/RunSpec APIs: round-trip
 * fidelity, v2->v3 conversion replay equivalence, corruption fuzzing,
 * decode sharing under a parallel batch, and Builder validation.
 */

#include <gtest/gtest.h>

#include "error_helpers.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <random>
#include <vector>

#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "trace/trace_cache.hh"
#include "trace/trace_file.hh"
#include "trace/trace_source.hh"
#include "trace/trace_v3.hh"
#include "util/crc32.hh"
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
               const std::vector<InstrRecord> &recs,
               TraceFormat format = TraceFormat::V3,
               std::uint32_t blockRecords = 0,
               bool dataAddresses = true)
{
    TraceFileWriter writer(path, blockRecords, format, dataAddresses);
    for (const InstrRecord &rec : recs)
        writer.write(rec);
    writer.close();
}

void
expectSameRecords(const std::vector<InstrRecord> &got,
                  const std::vector<InstrRecord> &want)
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

TEST(TraceV3, WriterDefaultsToV3)
{
    std::string path = ::testing::TempDir() + "v3_default.trc";
    writeTraceFile(path, syntheticStream(100));
    auto reader = openTraceReader(path);
    EXPECT_EQ(reader->version(), 3u);
    EXPECT_NE(dynamic_cast<MappedTraceReader *>(reader.get()),
              nullptr);
    std::remove(path.c_str());
}

TEST(TraceV3, RoundTripAllColumns)
{
    std::string path = ::testing::TempDir() + "v3_rt.trc";
    // Multiple blocks plus a partial trailing block.
    std::vector<InstrRecord> truth =
        syntheticStream(3 * traceV3DefaultBlockRecords / 2);
    writeTraceFile(path, truth);

    auto reader = openTraceReader(path);
    EXPECT_EQ(reader->count(), truth.size());
    expectSameRecords(drainNext(*reader), truth);
    EXPECT_EQ(reader->delivered(), truth.size());
    EXPECT_FALSE(reader->corrupt());
    std::remove(path.c_str());
}

TEST(TraceV3, ResetRewinds)
{
    std::string path = ::testing::TempDir() + "v3_reset.trc";
    std::vector<InstrRecord> truth = syntheticStream(1000);
    writeTraceFile(path, truth, TraceFormat::V3, 64);
    auto reader = openTraceReader(path);
    expectSameRecords(drainNext(*reader), truth);
    reader->reset();
    expectSameRecords(drainBatch(*reader), truth);
    std::remove(path.c_str());
}

TEST(TraceV3, EmptyFileRoundTrips)
{
    std::string path = ::testing::TempDir() + "v3_empty.trc";
    writeTraceFile(path, {});
    auto reader = openTraceReader(path);
    EXPECT_EQ(reader->count(), 0u);
    InstrRecord r;
    EXPECT_FALSE(reader->next(r));
    std::remove(path.c_str());
}

TEST(TraceV3, SingleRecordAndTinyBlocks)
{
    std::string path = ::testing::TempDir() + "v3_tiny.trc";
    std::vector<InstrRecord> truth = syntheticStream(11, 7);
    writeTraceFile(path, truth, TraceFormat::V3, /*blockRecords=*/4);
    auto reader = openTraceReader(path);
    expectSameRecords(drainNext(*reader), truth);
    std::remove(path.c_str());
}

TEST(TraceV3, DroppedDataAddressColumn)
{
    std::string path = ::testing::TempDir() + "v3_nodata.trc";
    std::vector<InstrRecord> truth = syntheticStream(500);
    writeTraceFile(path, truth, TraceFormat::V3, 0,
                   /*dataAddresses=*/false);
    for (InstrRecord &r : truth)
        r.dataAddr = 0; // the column was dropped on write
    auto reader = openTraceReader(path);
    auto *mapped = dynamic_cast<MappedTraceReader *>(reader.get());
    ASSERT_NE(mapped, nullptr);
    EXPECT_FALSE(mapped->hasDataAddresses());
    expectSameRecords(drainNext(*reader), truth);
    std::remove(path.c_str());
}

TEST(TraceV3, StdioReaderRejectsV3Files)
{
    std::string path = ::testing::TempDir() + "v3_reject.trc";
    writeTraceFile(path, syntheticStream(10));
    test::expectThrows<TraceError>([&] { TraceFileReader r{path}; },
                                   "v3 trace file");
    std::remove(path.c_str());
}

TEST(TraceV3, SlicedCrcMatchesBytewise)
{
    std::mt19937 rng(99);
    std::vector<unsigned char> data(4099);
    for (auto &b : data)
        b = static_cast<unsigned char>(rng());
    for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 64u, 4099u}) {
        EXPECT_EQ(crc32Sliced(data.data(), n),
                  crc32(data.data(), n))
            << "n=" << n;
    }
    // Incremental seeding agrees too.
    std::uint32_t a = crc32(data.data(), 100);
    EXPECT_EQ(crc32Sliced(data.data() + 100, 999, a),
              crc32(data.data() + 100, 999, a));
}

// --- conversion golden ------------------------------------------------

TEST(TraceV3, ConvertedV2ReplaysBitIdentically)
{
    std::string v2 = ::testing::TempDir() + "conv_v2.trc";
    std::string v3 = ::testing::TempDir() + "conv_v3.trc";
    std::vector<InstrRecord> truth = syntheticStream(20000, 5);
    writeTraceFile(v2, truth, TraceFormat::V2);

    // Convert exactly as `ipref_trace convert` does.
    {
        auto reader = openTraceReader(v2);
        TraceFileWriter writer(v3);
        InstrRecord r;
        while (reader->next(r))
            writer.write(r);
        writer.close();
    }
    {
        auto r2 = openTraceReader(v2);
        auto r3 = openTraceReader(v3);
        expectSameRecords(drainBatch(*r3), drainBatch(*r2));
    }

    // Replaying either file produces bit-identical SimResults.
    auto replay = [](const std::string &path) {
        return runSpec(RunSpec::builder()
                           .cmp(false)
                           .functional()
                           .traceFile(path)
                           .instrScale(0.02)
                           .build());
    };
    SimResults a = replay(v2);
    SimResults b = replay(v3);
    EXPECT_EQ(resultsToJson(a), resultsToJson(b));
    std::remove(v2.c_str());
    std::remove(v3.c_str());
}

// --- damage -----------------------------------------------------------

TEST(TraceV3, TruncationStrictThrowsTolerantSalvages)
{
    std::string path = ::testing::TempDir() + "v3_trunc.trc";
    std::vector<InstrRecord> truth = syntheticStream(2000, 3);
    writeTraceFile(path, truth, TraceFormat::V3, 256);
    std::vector<unsigned char> intact = readFileBytes(path);

    // Clip at several depths, from mid-payload to mid-frame-header.
    for (std::size_t clip : {1u, 5u, 200u, 997u}) {
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
        // Whole blocks up to the damage decode exactly; never garbage.
        ASSERT_LE(got.size(), truth.size());
        EXPECT_EQ(got.size() % 256, 0u);
        expectSameRecords(got,
                          std::vector<InstrRecord>(
                              truth.begin(),
                              truth.begin() +
                                  static_cast<std::ptrdiff_t>(
                                      got.size())));
    }
    std::remove(path.c_str());
}

TEST(TraceV3, BitFlipFuzzNeverYieldsGarbage)
{
    std::string path = ::testing::TempDir() + "v3_fuzz.trc";
    std::vector<InstrRecord> truth = syntheticStream(3000, 11);
    writeTraceFile(path, truth, TraceFormat::V3, 128);
    std::vector<unsigned char> intact = readFileBytes(path);

    std::mt19937 rng(1234);
    for (int trial = 0; trial < 60; ++trial) {
        std::vector<unsigned char> bytes = intact;
        // Flip one bit anywhere past the header (header damage is
        // always fatal and covered separately).
        std::size_t at = traceV3HeaderBytes +
                         rng() % (bytes.size() - traceV3HeaderBytes);
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
        if (got.size() != truth.size())
            EXPECT_TRUE(reader->corrupt()) << "trial " << trial;
    }

    std::remove(path.c_str());
}

TEST(TraceV3, HeaderDamageIsFatalEvenTolerant)
{
    std::string path = ::testing::TempDir() + "v3_hdr.trc";
    writeTraceFile(path, syntheticStream(100));
    std::vector<unsigned char> bytes = readFileBytes(path);
    bytes[9] ^= 0xff; // record count, protected by the header CRC
    writeFileBytes(path, bytes);
    test::expectThrows<TraceError>(
        [&] { openTraceReader(path, TraceReadMode::Tolerant); },
        "header CRC");
    std::remove(path.c_str());
}

// --- TraceCache -------------------------------------------------------

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
    EXPECT_EQ(a->records.size(), 100u);

    writeTraceFile(path, syntheticStream(150, 2));
    auto b = TraceCache::instance().acquire(path);
    EXPECT_EQ(b->records.size(), 150u);
    TraceCache::Stats s = TraceCache::instance().stats();
    EXPECT_EQ(s.decodes, 2u);
    EXPECT_EQ(s.staleReloads, 1u);
    // The old decode stays valid for holders of the old handle.
    EXPECT_EQ(a->records.size(), 100u);

    TraceCache::instance().clear();
    std::remove(path.c_str());
}

TEST(TraceCache, StrictAcquireOfDamagedFileThrows)
{
    std::string path = ::testing::TempDir() + "cache_damaged.trc";
    writeTraceFile(path, syntheticStream(1000), TraceFormat::V3, 128);
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
    EXPECT_LT(t->records.size(), 1000u);

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

// --- TraceSource API --------------------------------------------------

TEST(TraceSourceApi, NextAndNextBatchAgreeAcrossSources)
{
    std::vector<InstrRecord> truth = syntheticStream(701, 13);

    std::string v2 = ::testing::TempDir() + "agree_v2.trc";
    std::string v3 = ::testing::TempDir() + "agree_v3.trc";
    writeTraceFile(v2, truth, TraceFormat::V2);
    writeTraceFile(v3, truth, TraceFormat::V3, 64);

    for (const std::string &path : {v2, v3}) {
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

    std::remove(v2.c_str());
    std::remove(v3.c_str());
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
