/**
 * @file
 * Fault-tolerance tests: trace-corruption fuzzing (truncation at
 * every record boundary, single-bit flips over every byte), the
 * crash-isolated batch runner (injected faults, retries, timeouts),
 * and campaign checkpoint/resume.
 */

#include <gtest/gtest.h>

#include "error_helpers.hh"

#include <cstdio>
#include <fstream>
#include <vector>

#include "sim/campaign.hh"
#include "sim/coordinator.hh"
#include "sim/experiment.hh"
#include "trace/trace_file.hh"
#include "util/json.hh"

using namespace ipref;

namespace
{

InstrRecord
makeInstr(Addr pc, OpClass op, bool taken = false, Addr target = 0)
{
    InstrRecord r;
    r.pc = pc;
    r.op = op;
    r.taken = taken;
    r.target = target;
    return r;
}

/** A varied but deterministic record stream for trace files. */
std::vector<InstrRecord>
sampleRecords(unsigned n)
{
    std::vector<InstrRecord> recs;
    recs.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        Addr pc = 0x400000 + 4u * i;
        if (i % 13 == 5)
            recs.push_back(makeInstr(pc, OpClass::CondBranch,
                                     i % 2 == 0, pc + 0x100));
        else if (i % 17 == 3)
            recs.push_back(
                makeInstr(pc, OpClass::Call, false, pc + 0x4000));
        else if (i % 7 == 1)
            recs.push_back(makeInstr(pc, OpClass::Load));
        else
            recs.push_back(makeInstr(pc, OpClass::IntAlu));
    }
    return recs;
}

void
writeTrace(const std::string &path,
           const std::vector<InstrRecord> &recs,
           std::uint32_t blockRecords)
{
    // These tests exercise the v2 stdio reader's damage semantics,
    // so pin the v2 format (the writer default is now v3).
    TraceFileWriter writer(path, blockRecords, TraceFormat::V2);
    for (const InstrRecord &rec : recs)
        writer.write(rec);
    writer.close();
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

/**
 * Drain @p reader, asserting every delivered record equals the
 * original stream (never garbage). @return records delivered before
 * the stream ended or threw.
 */
std::uint64_t
drainChecked(TraceFileReader &reader,
             const std::vector<InstrRecord> &truth, bool *threw)
{
    InstrRecord r;
    std::uint64_t n = 0;
    *threw = false;
    try {
        while (reader.next(r)) {
            if (n >= truth.size()) {
                ADD_FAILURE() << "more records than written";
                break;
            }
            EXPECT_EQ(r.pc, truth[n].pc);
            EXPECT_EQ(r.target, truth[n].target);
            EXPECT_EQ(static_cast<int>(r.op),
                      static_cast<int>(truth[n].op));
            EXPECT_EQ(r.taken, truth[n].taken);
            ++n;
        }
    } catch (const TraceError &) {
        *threw = true;
    }
    return n;
}

/** A cheap functional run spec for batch tests. */
RunSpec
quickSpec(std::uint64_t seed)
{
    RunSpec s;
    s.cmp = false;
    s.workloads = {WorkloadKind::WEB};
    s.functional = true;
    s.instrScale = 0.01;
    s.baseSeed = seed;
    return s;
}

} // namespace

TEST(FaultTolerance, MissGroupBadTransitionThrows)
{
    test::expectThrows<InvariantError>(
        [] { missGroup(static_cast<FetchTransition>(200)); },
        "bad transition");
}

TEST(FaultTolerance, TruncationFuzz)
{
    const unsigned kRecords = 64;
    const std::uint32_t kBlock = 8;
    std::string path = ::testing::TempDir() + "trunc_fuzz.trc";
    std::vector<InstrRecord> truth = sampleRecords(kRecords);
    writeTrace(path, truth, kBlock);
    std::vector<unsigned char> whole = readFileBytes(path);

    const std::size_t headerBytes = 44;
    const std::size_t blockBytes = kBlock * traceRecordBytes + 4;

    for (unsigned t = 0; t < kRecords; ++t) {
        // File offset of record t's boundary in the blocked layout.
        std::size_t off = headerBytes + (t / kBlock) * blockBytes +
                          (t % kBlock) * traceRecordBytes;
        ASSERT_LT(off, whole.size());
        writeFileBytes(path, std::vector<unsigned char>(
                                 whole.begin(),
                                 whole.begin() +
                                     static_cast<std::ptrdiff_t>(off)));

        // Strict: the promised record count cannot be delivered, so
        // the reader must throw — after a correct prefix only.
        {
            TraceFileReader reader(path, TraceReadMode::Strict);
            bool threw = false;
            std::uint64_t got = drainChecked(reader, truth, &threw);
            EXPECT_TRUE(threw) << "truncation at record " << t;
            EXPECT_LE(got, t);
        }
        // Tolerant: ends cleanly at the last intact block.
        {
            TraceFileReader reader(path, TraceReadMode::Tolerant);
            bool threw = false;
            std::uint64_t got = drainChecked(reader, truth, &threw);
            EXPECT_FALSE(threw) << "truncation at record " << t;
            EXPECT_TRUE(reader.corrupt());
            EXPECT_FALSE(reader.corruptionDetail().empty());
            EXPECT_LE(got, t);
            EXPECT_EQ(got % kBlock, 0u) << "partial block salvaged";
            EXPECT_EQ(got, reader.delivered());
        }
    }
    std::remove(path.c_str());
}

TEST(FaultTolerance, BitFlipFuzz)
{
    const unsigned kRecords = 64;
    const std::uint32_t kBlock = 8;
    std::string path = ::testing::TempDir() + "flip_fuzz.trc";
    std::vector<InstrRecord> truth = sampleRecords(kRecords);
    writeTrace(path, truth, kBlock);
    std::vector<unsigned char> whole = readFileBytes(path);

    for (std::size_t i = 0; i < whole.size(); ++i) {
        std::vector<unsigned char> damaged = whole;
        damaged[i] ^= 1u << (i % 8);
        writeFileBytes(path, damaged);

        // Strict: every byte is covered by the magic check, the
        // header CRC, or a block CRC — a flip anywhere must surface
        // as TraceError (from open or from a read), never as garbage.
        bool threw = false;
        try {
            TraceFileReader reader(path, TraceReadMode::Strict);
            drainChecked(reader, truth, &threw);
        } catch (const TraceError &) {
            threw = true;
        }
        EXPECT_TRUE(threw) << "undetected bit flip at byte " << i;

        // Tolerant: a damaged header still throws (nothing to
        // salvage); body damage ends the stream at a block boundary.
        try {
            TraceFileReader reader(path, TraceReadMode::Tolerant);
            bool tolerantThrew = false;
            std::uint64_t got =
                drainChecked(reader, truth, &tolerantThrew);
            EXPECT_FALSE(tolerantThrew);
            EXPECT_TRUE(reader.corrupt());
            EXPECT_EQ(got % kBlock, 0u);
        } catch (const TraceError &) {
            EXPECT_LT(i, 44u) << "only header damage may throw in "
                                 "tolerant mode (byte "
                              << i << ")";
        }
    }
    std::remove(path.c_str());
}

TEST(FaultTolerance, BatchIsolatesFailures)
{
    // A batch where one spec replays a corrupt trace and another
    // throws mid-run must complete the healthy runs bit-identically
    // to a clean sequential baseline.
    std::string corruptPath =
        ::testing::TempDir() + "batch_corrupt.trc";
    writeTrace(corruptPath, sampleRecords(2048), 256);
    std::vector<unsigned char> bytes = readFileBytes(corruptPath);
    bytes.resize(bytes.size() - 1000); // rip the tail off
    writeFileBytes(corruptPath, bytes);

    RunSpec good1 = quickSpec(11);
    RunSpec good2 = quickSpec(22);
    RunSpec corrupt = quickSpec(33);
    corrupt.trace = TraceSpec::file(corruptPath);
    RunSpec faulty = quickSpec(44);
    faulty.faultAtInstr = 5000;

    SimResults base1 = runSpec(good1);
    SimResults base2 = runSpec(good2);

    BatchOptions opt;
    opt.jobs = 4;
    opt.maxAttempts = 1;
    std::string reportPath =
        ::testing::TempDir() + "batch_report.json";
    ObservabilityOptions obs;
    obs.jsonPath = reportPath;
    setObservability(obs);
    std::vector<RunOutcome> outcomes =
        runBatch({good1, corrupt, faulty, good2}, opt);
    flushObservability();
    setObservability(ObservabilityOptions{});

    ASSERT_EQ(outcomes.size(), 4u);
    EXPECT_TRUE(outcomes[0].ok());
    EXPECT_TRUE(outcomes[3].ok());
    EXPECT_EQ(resultsToJson(outcomes[0].results),
              resultsToJson(base1));
    EXPECT_EQ(resultsToJson(outcomes[3].results),
              resultsToJson(base2));

    EXPECT_EQ(outcomes[1].status, RunStatus::Failed);
    EXPECT_EQ(outcomes[1].errorKind, SimError::Kind::Trace);
    EXPECT_NE(outcomes[1].error.find(corruptPath), std::string::npos);

    EXPECT_EQ(outcomes[2].status, RunStatus::Failed);
    EXPECT_NE(outcomes[2].error.find("injected fault"),
              std::string::npos);

    // The JSON report accounts for every spec: two full run reports
    // and two failure entries naming the error.
    std::ifstream in(reportPath);
    std::string report((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    std::size_t failureEntries = 0;
    for (std::size_t at = report.find("\"error_kind\"");
         at != std::string::npos;
         at = report.find("\"error_kind\"", at + 1))
        ++failureEntries;
    EXPECT_EQ(failureEntries, 2u);
    EXPECT_NE(report.find("\"trace\""), std::string::npos);
    EXPECT_NE(report.find("injected fault"), std::string::npos);
    std::remove(reportPath.c_str());
    std::remove(corruptPath.c_str());
}

TEST(FaultTolerance, TolerantTraceRunSalvages)
{
    // The same damaged trace succeeds when the spec opts into
    // tolerant reads: the valid prefix loops for the whole run.
    std::string path = ::testing::TempDir() + "tolerant_run.trc";
    writeTrace(path, sampleRecords(2048), 256);
    std::vector<unsigned char> bytes = readFileBytes(path);
    bytes.resize(bytes.size() - 1000);
    writeFileBytes(path, bytes);

    RunSpec spec = quickSpec(5);
    spec.trace = TraceSpec::file(path, /*tolerantRead=*/true);
    BatchOptions opt;
    opt.maxAttempts = 1;
    std::vector<RunOutcome> outcomes = runBatch({spec}, opt);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok()) << outcomes[0].error;
    EXPECT_GT(outcomes[0].results.instructions, 0u);
    std::remove(path.c_str());
}

TEST(FaultTolerance, RetryHonorsAttemptCounts)
{
    RunSpec spec = quickSpec(7);
    spec.faultAtInstr = 3000;
    spec.faultTransient = true;
    spec.faultAttempts = 2; // attempts 1 and 2 fail, 3 succeeds

    BatchOptions opt;
    opt.maxAttempts = 3;
    opt.retryBaseMs = 1;
    opt.retryCapMs = 2;

    std::vector<RunOutcome> outcomes = runBatch({spec}, opt);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok()) << outcomes[0].error;
    EXPECT_EQ(outcomes[0].attempts, 3u);

    // With the retry budget below the fault count the spec fails.
    opt.maxAttempts = 2;
    outcomes = runBatch({spec}, opt);
    EXPECT_EQ(outcomes[0].status, RunStatus::Failed);
    EXPECT_EQ(outcomes[0].attempts, 2u);

    // Non-transient faults are not retried at all.
    RunSpec hardFault = spec;
    hardFault.faultTransient = false;
    opt.maxAttempts = 3;
    outcomes = runBatch({hardFault}, opt);
    EXPECT_EQ(outcomes[0].status, RunStatus::Failed);
    EXPECT_EQ(outcomes[0].attempts, 1u);
}

TEST(FaultTolerance, ResumeSkipsCompletedRuns)
{
    std::string manifestPath =
        ::testing::TempDir() + "resume_campaign.json";
    std::remove(manifestPath.c_str());

    RunSpec good = quickSpec(101);
    RunSpec failing = quickSpec(202);
    failing.faultAtInstr = 3000;
    failing.faultTransient = true;
    failing.faultAttempts = 1; // only the first lifetime attempt fails

    BatchOptions opt;
    opt.maxAttempts = 1;
    opt.manifestPath = manifestPath;

    std::vector<RunOutcome> first = runBatch({good, failing}, opt);
    ASSERT_EQ(first.size(), 2u);
    EXPECT_TRUE(first[0].ok());
    EXPECT_EQ(first[1].status, RunStatus::Failed);
    EXPECT_EQ(first[1].attempts, 1u);

    // Resume: the completed spec is restored (not re-run); the failed
    // one re-runs as lifetime attempt 2, past its fault budget.
    opt.resume = true;
    std::vector<RunOutcome> second = runBatch({good, failing}, opt);
    ASSERT_EQ(second.size(), 2u);
    EXPECT_TRUE(second[0].ok());
    EXPECT_TRUE(second[0].fromCheckpoint);
    EXPECT_EQ(resultsToJson(second[0].results),
              resultsToJson(first[0].results));

    EXPECT_TRUE(second[1].ok()) << second[1].error;
    EXPECT_FALSE(second[1].fromCheckpoint);
    EXPECT_EQ(second[1].attempts, 2u);

    // The retried run matches a clean run of the same configuration.
    RunSpec clean = failing;
    clean.faultAtInstr = 0;
    clean.faultAttempts = 0;
    clean.faultTransient = false;
    EXPECT_EQ(resultsToJson(second[1].results),
              resultsToJson(runSpec(clean)));

    // A third resume restores everything from the checkpoint.
    std::vector<RunOutcome> third = runBatch({good, failing}, opt);
    EXPECT_TRUE(third[0].fromCheckpoint);
    EXPECT_TRUE(third[1].fromCheckpoint);
    EXPECT_EQ(resultsToJson(third[1].results),
              resultsToJson(second[1].results));
    std::remove(manifestPath.c_str());
}

TEST(FaultTolerance, ResumeRefusesAnotherManifestVersion)
{
    // A manifest written before the fingerprint bump: --resume must
    // fail loudly, in-process and on workers, and leave the file as
    // it was rather than starting fresh over it.
    std::string path = ::testing::TempDir() + "old_version.json";
    std::remove((path + ".lock").c_str());
    const std::string text =
        "{\n  \"version\": 1,\n  \"runs\": [\n    {\"fingerprint\": "
        "\"0x1\", \"status\": \"failed\", \"attempts\": 1, "
        "\"wall_ms\": 5, \"error_kind\": \"io\", \"error\": \"x\"}\n"
        "  ]\n}\n";
    const std::vector<unsigned char> old(text.begin(), text.end());
    writeFileBytes(path, old);

    BatchOptions opt;
    opt.maxAttempts = 1;
    opt.manifestPath = path;
    opt.resume = true;
    const std::string needle = "has version 1; this build reads version 2";
    test::expectThrows<ConfigError>(
        [&] { runBatch({quickSpec(1)}, opt); }, needle);

    CampaignOptions campaign;
    campaign.batch = opt;
    campaign.workers = 2;
    test::expectThrows<ConfigError>(
        [&] { runCampaign({quickSpec(1)}, campaign); }, needle);

    EXPECT_EQ(readFileBytes(path), old);
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

TEST(FaultTolerance, WatchdogTimesOutRunawayRuns)
{
    RunSpec runaway = quickSpec(9);
    runaway.instrScale = 500.0; // far longer than the deadline

    BatchOptions opt;
    opt.maxAttempts = 3; // timeouts must not be retried
    opt.runTimeoutMs = 50;

    std::vector<RunOutcome> outcomes = runBatch({runaway}, opt);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, RunStatus::TimedOut);
    EXPECT_EQ(outcomes[0].errorKind, SimError::Kind::Timeout);
    EXPECT_EQ(outcomes[0].attempts, 1u);
    EXPECT_LT(outcomes[0].wallMs, 30000u);
}

TEST(FaultTolerance, WatchdogTimesOutRunawayTimingRuns)
{
    // The timing loop sleeps stalled cores and runs long check-free
    // stretches; the RunControl poll must still come often enough to
    // stop the run promptly.
    RunSpec runaway = quickSpec(9);
    runaway.functional = false;
    runaway.instrScale = 500.0; // far longer than the deadline

    BatchOptions opt;
    opt.maxAttempts = 3;
    opt.runTimeoutMs = 50;

    std::vector<RunOutcome> outcomes = runBatch({runaway}, opt);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, RunStatus::TimedOut);
    EXPECT_EQ(outcomes[0].errorKind, SimError::Kind::Timeout);
    EXPECT_EQ(outcomes[0].attempts, 1u);
    EXPECT_LT(outcomes[0].wallMs, 2000u);
}

TEST(FaultTolerance, ManifestRoundTrip)
{
    std::string path = ::testing::TempDir() + "manifest_rt.json";
    std::remove(path.c_str());

    SimResults results = runSpec(quickSpec(3));

    ManifestEntry ok;
    ok.fingerprint = fingerprintSpec(quickSpec(3));
    ok.status = RunStatus::Ok;
    ok.attempts = 2;
    ok.wallMs = 17;
    ok.results = results;
    ok.jsonReport = "{\"x\": 1}\n";

    ManifestEntry failed;
    failed.fingerprint = 0xdeadbeef;
    failed.status = RunStatus::Failed;
    failed.attempts = 3;
    failed.errorKind = SimError::Kind::Trace;
    failed.errorMessage = "truncated trace file [/tmp/x.trc]";

    {
        CampaignManifest m(path);
        m.record(ok);
        m.record(failed);
    }

    Expected<CampaignManifest> loaded = CampaignManifest::load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().what();
    CampaignManifest &m = loaded.value();
    EXPECT_EQ(m.size(), 2u);

    const ManifestEntry *e = m.find(ok.fingerprint);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->status, RunStatus::Ok);
    EXPECT_EQ(e->attempts, 2u);
    EXPECT_EQ(e->wallMs, 17u);
    EXPECT_EQ(e->jsonReport, ok.jsonReport);
    EXPECT_EQ(resultsToJson(e->results), resultsToJson(results));
    EXPECT_EQ(e->results.ipc, results.ipc); // bit-exact recompute

    const ManifestEntry *f = m.find(0xdeadbeef);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->status, RunStatus::Failed);
    EXPECT_EQ(f->errorKind, SimError::Kind::Trace);
    EXPECT_EQ(f->errorMessage, failed.errorMessage);
    std::remove(path.c_str());
}

TEST(FaultTolerance, ManifestLoadErrorsAreValues)
{
    Expected<CampaignManifest> missing =
        CampaignManifest::load("/nonexistent/dir/campaign.json");
    EXPECT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().kind(), SimError::Kind::Io);

    std::string path = ::testing::TempDir() + "garbage_manifest.json";
    std::ofstream(path) << "{not json at all";
    Expected<CampaignManifest> corrupt = CampaignManifest::load(path);
    EXPECT_FALSE(corrupt.ok());
    EXPECT_NE(std::string(corrupt.error().what()).find("corrupt"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(FaultTolerance, ResultsJsonRoundTrip)
{
    SimResults r = runSpec(quickSpec(1));
    JsonValue doc = parseJson(resultsToJson(r));
    Expected<SimResults> back = resultsFromJson(doc);
    ASSERT_TRUE(back.ok()) << back.error().what();
    EXPECT_EQ(resultsToJson(back.value()), resultsToJson(r));
    EXPECT_EQ(back.value().ipc, r.ipc);

    // Missing counters surface as errors, not zeros.
    Expected<SimResults> bad = resultsFromJson(parseJson("{}"));
    EXPECT_FALSE(bad.ok());
}

TEST(FaultTolerance, RunSpecsSurfacesFirstFailureAfterDraining)
{
    RunSpec good = quickSpec(61);
    RunSpec bad = quickSpec(62);
    bad.faultAtInstr = 2000;
    test::expectThrows<SimError>(
        [&] { runSpecs({good, bad, good}, 2); }, "injected fault");
}

TEST(FaultTolerance, ExpectedBasics)
{
    Expected<int> v(42);
    EXPECT_TRUE(v.ok());
    EXPECT_EQ(v.value(), 42);
    EXPECT_EQ(v.valueOr(7), 42);

    Expected<int> e(SimError(SimError::Kind::Io, "nope", true));
    EXPECT_FALSE(e.ok());
    EXPECT_EQ(e.valueOr(7), 7);
    EXPECT_TRUE(e.error().transient());
    EXPECT_STREQ(errorKindName(e.error().kind()), "io");
    EXPECT_EQ(parseErrorKind("io"), SimError::Kind::Io);
}
