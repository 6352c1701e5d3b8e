/**
 * @file
 * Fault-tolerance tests: trace-corruption fuzzing (truncation at
 * every byte past the header, single-bit flips over every byte), the
 * crash-isolated batch runner (injected faults, retries, timeouts),
 * and campaign checkpoint/resume.
 */

#include <gtest/gtest.h>

#include "error_helpers.hh"
#include "results_helpers.hh"

#include <cstdio>
#include <fstream>
#include <vector>

#include "sim/campaign.hh"
#include "sim/coordinator.hh"
#include "sim/experiment.hh"
#include "trace/trace_file.hh"
#include "trace/trace_v3.hh"
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
    TraceFileWriter writer(path, blockRecords);
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

/** What draining one trace file delivered. */
struct Drained
{
    std::uint64_t records = 0; //!< delivered before the end or a throw
    bool threw = false;        //!< open or read raised TraceError
    bool corrupt = false;      //!< tolerant reader flagged damage
    std::string detail;        //!< the reader's corruption detail
    std::uint64_t delivered = 0; //!< the reader's own count
};

/**
 * Open @p path in @p mode and drain it, asserting every delivered
 * record equals the original stream (never garbage).
 */
Drained
drainChecked(const std::string &path, TraceReadMode mode,
             const std::vector<InstrRecord> &truth)
{
    Drained d;
    try {
        auto reader = openTraceReader(path, mode);
        InstrRecord r;
        while (reader->next(r)) {
            if (d.records >= truth.size()) {
                ADD_FAILURE() << "more records than written";
                break;
            }
            const InstrRecord &want = truth[d.records];
            EXPECT_EQ(r.pc, want.pc);
            EXPECT_EQ(r.target, want.target);
            EXPECT_EQ(r.dataAddr, want.dataAddr);
            EXPECT_EQ(static_cast<int>(r.op),
                      static_cast<int>(want.op));
            EXPECT_EQ(r.taken, want.taken);
            ++d.records;
        }
        d.corrupt = reader->corrupt();
        d.detail = reader->corruptionDetail();
        d.delivered = reader->delivered();
    } catch (const TraceError &) {
        d.threw = true;
    }
    return d;
}

/** File offset just past each block of the intact v3 file @p bytes. */
std::vector<std::size_t>
blockEnds(const std::vector<unsigned char> &bytes)
{
    std::vector<std::size_t> ends;
    std::size_t off = traceV3HeaderBytes;
    while (off + 8 <= bytes.size()) {
        std::size_t payload = bytes[off] | bytes[off + 1] << 8 |
                              bytes[off + 2] << 16 |
                              static_cast<std::size_t>(bytes[off + 3])
                                  << 24;
        off += 8 + payload;
        ends.push_back(off);
    }
    EXPECT_EQ(off, bytes.size());
    return ends;
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
    std::vector<std::size_t> ends = blockEnds(whole);
    ASSERT_EQ(ends.size(), kRecords / kBlock);

    // Cut the file at every byte past the header: inside a frame,
    // inside a payload, and exactly on each block boundary.
    for (std::size_t off = traceV3HeaderBytes; off < whole.size();
         ++off) {
        writeFileBytes(path, std::vector<unsigned char>(
                                 whole.begin(),
                                 whole.begin() +
                                     static_cast<std::ptrdiff_t>(off)));
        std::uint64_t intact = 0;
        for (std::size_t end : ends)
            intact += end <= off ? kBlock : 0;

        // Strict: the promised record count cannot be delivered, so
        // the reader must throw — after a correct prefix only.
        Drained strict = drainChecked(path, TraceReadMode::Strict, truth);
        EXPECT_TRUE(strict.threw) << "truncation at byte " << off;
        EXPECT_LE(strict.records, intact);

        // Tolerant: ends cleanly after the last intact block.
        Drained tolerant =
            drainChecked(path, TraceReadMode::Tolerant, truth);
        EXPECT_FALSE(tolerant.threw) << "truncation at byte " << off;
        EXPECT_TRUE(tolerant.corrupt);
        EXPECT_FALSE(tolerant.detail.empty());
        EXPECT_EQ(tolerant.records, intact) << "truncation at " << off;
        EXPECT_EQ(tolerant.records, tolerant.delivered);
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
        // header CRC, a block frame's bounds or a block CRC — a flip
        // anywhere must surface as TraceError (from open or from a
        // read), never as garbage.
        Drained strict = drainChecked(path, TraceReadMode::Strict, truth);
        EXPECT_TRUE(strict.threw) << "undetected bit flip at byte " << i;

        // Tolerant: a damaged header still throws (nothing to
        // salvage); body damage ends the stream at a block boundary.
        Drained tolerant =
            drainChecked(path, TraceReadMode::Tolerant, truth);
        if (tolerant.threw) {
            EXPECT_LT(i, traceV3HeaderBytes)
                << "only header damage may throw in tolerant mode "
                   "(byte "
                << i << ")";
        } else {
            EXPECT_TRUE(tolerant.corrupt) << "byte " << i;
            EXPECT_EQ(tolerant.records % kBlock, 0u) << "byte " << i;
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
    ok.outcome.status = RunStatus::Ok;
    ok.outcome.attempts = 2;
    ok.outcome.wallMs = 17;
    ok.outcome.results = results;
    ok.outcome.jsonReport = "{\"x\": 1}\n";

    ManifestEntry failed;
    failed.fingerprint = 0xdeadbeef;
    failed.outcome.status = RunStatus::Failed;
    failed.outcome.attempts = 3;
    failed.outcome.errorKind = SimError::Kind::Trace;
    failed.outcome.error = "truncated trace file [/tmp/x.trc]";

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
    EXPECT_EQ(e->outcome.status, RunStatus::Ok);
    EXPECT_EQ(e->outcome.attempts, 2u);
    EXPECT_EQ(e->outcome.wallMs, 17u);
    EXPECT_EQ(e->outcome.jsonReport, ok.outcome.jsonReport);
    test::expectIdentical(e->outcome.results, results);

    const ManifestEntry *f = m.find(0xdeadbeef);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->outcome.status, RunStatus::Failed);
    EXPECT_EQ(f->outcome.errorKind, SimError::Kind::Trace);
    EXPECT_EQ(f->outcome.error, failed.outcome.error);
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

    // So does a malformed one.
    JsonValue negative = parseJson(resultsToJson(r));
    negative.fields["l2i_misses"].str = "0x-1";
    EXPECT_FALSE(resultsFromJson(negative).ok());
}

// Every counter goes through the table: distinct values round-trip
// through the JSON form, and delta() subtracts each one but keeps the
// end level of the two metadata gauges.
TEST(FaultTolerance, ResultsTableCoversEveryCounter)
{
    SimResults start, end;
    std::uint64_t next = 1;
    std::size_t counters = 0;
    for (const ResultsField &f : kResultsFields) {
        for (std::uint64_t &v : f.in(start))
            v = next++;
        for (std::uint64_t &v : f.in(end))
            v = 1000 * next++;
        counters += f.count();
    }
    EXPECT_EQ(counters * sizeof(std::uint64_t) + sizeof(double),
              sizeof(SimResults));

    Expected<SimResults> back = resultsFromJson(parseJson(resultsToJson(end)));
    ASSERT_TRUE(back.ok()) << back.error().what();
    for (const ResultsField &f : kResultsFields)
        for (std::size_t i = 0; i < f.count(); ++i)
            EXPECT_EQ(f.in(back.value())[i], f.in(end)[i]) << f.name;

    SimResults d = SimResults::delta(end, start);
    for (const ResultsField &f : kResultsFields)
        for (std::size_t i = 0; i < f.count(); ++i)
            EXPECT_EQ(f.in(d)[i],
                      f.level ? f.in(end)[i]
                              : f.in(end)[i] - f.in(start)[i])
                << f.name;
    EXPECT_EQ(d.pfMetaEntries, end.pfMetaEntries);
    EXPECT_EQ(d.pfMetaBytes, end.pfMetaBytes);
    EXPECT_EQ(d.pfMetaOffChipReads,
              end.pfMetaOffChipReads - start.pfMetaOffChipReads);
    EXPECT_EQ(d.cpiStack.back(),
              end.cpiStack.back() - start.cpiStack.back());
    EXPECT_EQ(d.ipc, static_cast<double>(d.instructions) /
                         static_cast<double>(d.cycles));
}

TEST(FaultTolerance, ManifestWithAMalformedCounterIsNotRestored)
{
    SimResults r = runSpec(quickSpec(1));
    std::string results = resultsToJson(r);
    const std::string key = "\"l1i_misses\": \"";
    std::size_t at = results.find(key) + key.size();
    results.replace(at, results.find('"', at) - at, "0x-1");

    std::string path = ::testing::TempDir() + "bad_counter.json";
    std::ofstream(path)
        << "{\n  \"version\": 2,\n  \"runs\": [\n    {\"fingerprint\": "
           "\"0x1\", \"status\": \"ok\", \"attempts\": 1, \"wall_ms\": 5, "
           "\"results\": "
        << results << "}\n  ]\n}\n";
    Expected<CampaignManifest> m = CampaignManifest::load(path);
    ASSERT_FALSE(m.ok());
    EXPECT_NE(std::string(m.error().what()).find("0x-1"),
              std::string::npos)
        << m.error().what();
    std::remove(path.c_str());
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
