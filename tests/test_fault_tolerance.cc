/**
 * @file
 * Fault-tolerance tests: trace-corruption fuzzing (truncation at
 * every frame-header byte and record boundary, single-bit flips over
 * every byte of a packed and a raw frame), the
 * crash-isolated batch runner (injected faults, retries, timeouts),
 * and campaign checkpoint/resume.
 */

#include <gtest/gtest.h>

#include "error_helpers.hh"
#include "results_helpers.hh"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "sim/campaign.hh"
#include "sim/coordinator.hh"
#include "sim/experiment.hh"
#include "trace/trace_file.hh"
#include "util/fault_inject.hh"
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

/**
 * A varied but deterministic record stream for trace files: one
 * chunk of records whose pcs follow their taken branches and calls
 * (it packs), then @p tail records whose pcs step by 4 past taken
 * branches (a raw chunk).
 */
std::vector<InstrRecord>
sampleRecords(unsigned tail)
{
    const unsigned n = traceChunkRecords + tail;
    std::vector<InstrRecord> recs;
    recs.reserve(n);
    Addr pc = 0x400000;
    for (unsigned i = 0; i < n; ++i) {
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
        recs.back().dataAddr =
            recs.back().isMem() ? 0x900000 + 8u * i : 0;
        pc = i < traceChunkRecords ? recs.back().nextPc() : pc + 4;
    }
    return recs;
}

void
writeTrace(const std::string &path,
           const std::vector<InstrRecord> &recs)
{
    TraceFileWriter writer(path);
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
            if (r.pc != want.pc || r.target != want.target ||
                r.dataAddr != want.dataAddr || r.op != want.op ||
                r.taken != want.taken) {
                ADD_FAILURE() << "garbage record " << d.records;
                break;
            }
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

/** File offset just past each frame of the intact trace @p bytes. */
std::vector<std::size_t>
frameEnds(const std::vector<unsigned char> &bytes)
{
    std::vector<std::size_t> ends;
    std::size_t off = traceHeaderBytes;
    while (off + 8 <= bytes.size()) {
        std::size_t size = bytes[off] | bytes[off + 1] << 8 |
                           bytes[off + 2] << 16 |
                           static_cast<std::size_t>(bytes[off + 3]) << 24;
        off += 8 + size;
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
    std::string path = ::testing::TempDir() + "trunc_fuzz.trc";
    std::vector<InstrRecord> truth = sampleRecords(40);
    writeTrace(path, truth);
    std::vector<unsigned char> whole = readFileBytes(path);
    std::vector<std::size_t> ends = frameEnds(whole);
    ASSERT_EQ(ends.size(), 2u);
    ASSERT_EQ(ends[0], traceHeaderBytes + traceFrameBytes +
                           traceChunkRecords * sizeof(PackedRecord));
    ASSERT_EQ(ends[1] - ends[0],
              traceFrameBytes + 40 * sizeof(InstrRecord));

    // Cut the file at every byte of each frame's header and at every
    // record boundary (all records sit on 8-byte boundaries).
    std::vector<std::size_t> cuts;
    for (std::size_t start = traceHeaderBytes; std::size_t end : ends) {
        for (std::size_t off = start; off < end; ++off)
            if (off < start + traceFrameBytes || off % 8 == 0)
                cuts.push_back(off);
        start = end;
    }
    for (std::size_t off : cuts) {
        writeFileBytes(path, std::vector<unsigned char>(
                                 whole.begin(),
                                 whole.begin() +
                                     static_cast<std::ptrdiff_t>(off)));
        const std::uint64_t intact =
            off >= ends[0] ? traceChunkRecords : 0;

        // Strict: the promised record count cannot be delivered, so
        // the reader must throw — after a correct prefix only.
        Drained strict = drainChecked(path, TraceReadMode::Strict, truth);
        EXPECT_TRUE(strict.threw) << "truncation at byte " << off;
        EXPECT_LE(strict.records, intact);

        // Tolerant: ends cleanly after the last intact frame.
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
    std::string path = ::testing::TempDir() + "flip_fuzz.trc";
    std::vector<InstrRecord> truth = sampleRecords(40);
    writeTrace(path, truth);
    std::vector<unsigned char> whole = readFileBytes(path);
    const std::size_t firstEnd = frameEnds(whole).front();
    {
        // One packed frame, then one raw.
        auto reader = openTraceReader(path);
        std::vector<InstrRecord> all(truth.size() + 1);
        EXPECT_EQ(reader->nextBatch(all), truth.size());
        EXPECT_EQ(reader->packedChunks(), 1u);
        EXPECT_EQ(reader->rawChunks(), 1u);
    }

    for (std::size_t i = 0; i < whole.size(); ++i) {
        std::vector<unsigned char> damaged = whole;
        damaged[i] ^= 1u << (i % 8);
        writeFileBytes(path, damaged);

        // Strict: every byte is covered by the magic check, the
        // header CRC, a frame's size check or a frame CRC — a flip
        // anywhere must surface as TraceError (from open or from a
        // read), never as garbage.
        Drained strict = drainChecked(path, TraceReadMode::Strict, truth);
        EXPECT_TRUE(strict.threw) << "undetected bit flip at byte " << i;

        // Tolerant: a damaged header still throws (nothing to
        // salvage); body damage ends the stream before its frame.
        Drained tolerant =
            drainChecked(path, TraceReadMode::Tolerant, truth);
        if (tolerant.threw) {
            EXPECT_LT(i, traceHeaderBytes)
                << "only header damage may throw in tolerant mode "
                   "(byte "
                << i << ")";
        } else {
            EXPECT_TRUE(tolerant.corrupt) << "byte " << i;
            EXPECT_EQ(tolerant.records,
                      i < firstEnd ? 0u : traceChunkRecords)
                << "byte " << i;
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
    writeTrace(corruptPath, sampleRecords(2048));
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
    writeTrace(path, sampleRecords(2048));
    std::vector<unsigned char> bytes = readFileBytes(path);
    bytes.resize(bytes.size() - 1000); // the packed chunk survives
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
    // A whole-document manifest written before the journal format:
    // --resume must fail loudly, in-process and on workers, and leave
    // the file as it was rather than starting fresh over it.
    std::string path = ::testing::TempDir() + "old_version.json";
    for (int version : {1, 2}) {
        SCOPED_TRACE(version);
        const std::string text =
            "{\n  \"version\": " + std::to_string(version) +
            ",\n  \"runs\": [\n    {\"fingerprint\": "
            "\"0x1\", \"status\": \"failed\", \"attempts\": 1, "
            "\"wall_ms\": 5, \"error_kind\": \"io\", \"error\": \"x\"}\n"
            "  ]\n}\n";
        const std::vector<unsigned char> old(text.begin(), text.end());
        writeFileBytes(path, old);

        BatchOptions opt;
        opt.maxAttempts = 1;
        opt.manifestPath = path;
        opt.resume = true;
        const std::string needle = "has version " +
                                   std::to_string(version) +
                                   "; this build reads version 3";
        test::expectThrows<ConfigError>(
            [&] { runBatch({quickSpec(1)}, opt); }, needle);

        CampaignOptions campaign;
        campaign.batch = opt;
        campaign.workers = 2;
        test::expectThrows<ConfigError>(
            [&] { runCampaign({quickSpec(1)}, campaign); }, needle);

        EXPECT_EQ(readFileBytes(path), old);
    }
    std::remove(path.c_str());
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

TEST(FaultTolerance, SigtermDrainsAnInProcessBatch)
{
    // SIGTERM raises the same interrupt latch as SIGINT: the runaway
    // run unwinds Interrupted, the spec after it never starts, and the
    // batch returns instead of the process dying.
    RunSpec runaway = quickSpec(9);
    runaway.instrScale = 50000.0; // minutes: only the signal ends it
    BatchOptions opt;
    opt.jobs = 1;
    std::thread signaller([] {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        ::kill(::getpid(), SIGTERM);
    });
    std::vector<RunOutcome> outcomes =
        runBatch({runaway, quickSpec(10)}, opt);
    signaller.join();

    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].status, RunStatus::Interrupted);
    EXPECT_EQ(outcomes[0].errorKind, SimError::Kind::Interrupted);
    EXPECT_EQ(outcomes[1].status, RunStatus::Interrupted);
    EXPECT_EQ(outcomes[1].error, "batch interrupted before run");
}

namespace
{

/** A fresh, empty $TMPDIR for the test's lifetime; the old one comes
 *  back and the directory goes when it ends. */
struct ScratchTmpdir
{
    std::string dir;
    std::string old;
    bool hadOld = false;

    ScratchTmpdir()
    {
        std::string tmpl = ::testing::TempDir() + "spill_XXXXXX";
        dir = ::mkdtemp(tmpl.data()) ? tmpl : "";
        if (const char *t = std::getenv("TMPDIR")) {
            old = t;
            hadOld = true;
        }
        ::setenv("TMPDIR", dir.c_str(), 1);
    }

    ~ScratchTmpdir()
    {
        if (hadOld)
            ::setenv("TMPDIR", old.c_str(), 1);
        else
            ::unsetenv("TMPDIR");
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }

    bool empty() const { return std::filesystem::is_empty(dir); }
};

} // namespace

TEST(FaultTolerance, StreamSpillFaultsFailOnlyTheRunsTheyReach)
{
    ScratchTmpdir tmp;
    ASSERT_FALSE(tmp.dir.empty());
    struct FaultGuard
    {
        ~FaultGuard() { fault::reset(); }
    } faults;

    // a and b share their stream (the spill holds it); c's seed is
    // its own, so it walks its stream directly.
    RunSpec a = quickSpec(5);
    RunSpec b = quickSpec(5);
    b.schemeToken = "discontinuity";
    RunSpec c = quickSpec(6);
    SimResults wantB = runSpec(b);
    SimResults wantC = runSpec(c);
    BatchOptions opt;
    opt.jobs = 1;
    opt.maxAttempts = 1;

    // A lost write breaks the stream for every run that reaches it.
    fault::configure("spill.write@1");
    std::vector<RunOutcome> out = runBatch({a, b, c}, opt);
    ASSERT_EQ(out.size(), 3u);
    for (std::size_t i : {0, 1}) {
        EXPECT_EQ(out[i].status, RunStatus::Failed);
        EXPECT_EQ(out[i].errorKind, SimError::Kind::Io);
        EXPECT_NE(out[i].error.find(tmp.dir), std::string::npos)
            << out[i].error;
    }
    ASSERT_TRUE(out[2].ok()) << out[2].error;
    EXPECT_EQ(resultsToJson(out[2].results), resultsToJson(wantC));
    EXPECT_TRUE(tmp.empty());

    // A failed read fails its own run only.
    fault::configure("spill.read@2");
    out = runBatch({a, b, c}, opt);
    EXPECT_EQ(out[0].status, RunStatus::Failed);
    EXPECT_EQ(out[0].errorKind, SimError::Kind::Io);
    EXPECT_NE(out[0].error.find(tmp.dir), std::string::npos)
        << out[0].error;
    ASSERT_TRUE(out[1].ok()) << out[1].error;
    EXPECT_EQ(resultsToJson(out[1].results), resultsToJson(wantB));
    ASSERT_TRUE(out[2].ok()) << out[2].error;
    EXPECT_TRUE(tmp.empty());
    fault::reset();

    // An interrupted batch leaves nothing behind either; the spill's
    // files have no name even while it runs.
    RunSpec runaway = quickSpec(7);
    runaway.instrScale = 50000.0; // minutes: only the interrupt ends it
    RunSpec runaway2 = runaway;
    runaway2.schemeToken = "discontinuity";
    opt.jobs = 2;
    bool emptyWhileRunning = false;
    std::thread interrupter([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        emptyWhileRunning = tmp.empty();
        requestBatchInterrupt();
    });
    out = runBatch({runaway, runaway2}, opt);
    interrupter.join();
    for (const RunOutcome &o : out)
        EXPECT_EQ(o.status, RunStatus::Interrupted);
    EXPECT_TRUE(emptyWhileRunning);
    EXPECT_TRUE(tmp.empty());
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
        ManifestLock journal(path);
        journal.append(ok.fingerprint, ok.outcome);
        journal.append(failed.fingerprint, failed.outcome);
    }

    Expected<CampaignManifest> loaded = CampaignManifest::load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().what();
    CampaignManifest &m = loaded.value();
    EXPECT_EQ(m.size(), 2u);
    EXPECT_EQ(m.tornBytes(), 0u);

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

    // Garbage, an empty file, a journal with no header, and one whose
    // malformed line is not the last (so it is no torn append).
    std::string path = ::testing::TempDir() + "garbage_manifest.json";
    for (const char *text :
         {"{not json at all", "",
          "{\"fingerprint\": \"0x1\", \"status\": \"failed\", "
          "\"attempts\": 1, \"wall_ms\": 5}\n",
          "{\"version\": 3}\n{\"fingerprint\": \"0x1\"\n"
          "{\"fingerprint\": \"0x2\", \"status\": \"failed\", "
          "\"attempts\": 1, \"wall_ms\": 5}\n"}) {
        std::ofstream(path, std::ios::trunc) << text;
        Expected<CampaignManifest> corrupt = CampaignManifest::load(path);
        ASSERT_FALSE(corrupt.ok()) << text;
        EXPECT_EQ(corrupt.error().kind(), SimError::Kind::Io);
        EXPECT_NE(std::string(corrupt.error().what()).find("corrupt"),
                  std::string::npos)
            << corrupt.error().what();
    }
    std::remove(path.c_str());
}

namespace
{

/** FNV-1a 64 over @p bytes. */
std::uint64_t
fnv1a(const std::vector<unsigned char> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char b : bytes)
        h = (h ^ b) * 0x100000001b3ULL;
    return h;
}

/** Three fixed outcomes: Ok (every counter distinct, a report full
 *  of characters to escape), Failed and TimedOut. */
std::vector<ManifestEntry>
fixedEntries()
{
    ManifestEntry ok;
    ok.fingerprint = 0x0123456789abcdefULL;
    ok.outcome.status = RunStatus::Ok;
    ok.outcome.attempts = 2;
    ok.outcome.wallMs = 17;
    std::uint64_t next = 1;
    for (const ResultsField &f : kResultsFields)
        for (std::uint64_t &v : f.in(ok.outcome.results))
            v = 0x9e3779b97f4a7c15ULL * next++;
    ok.outcome.results.deriveIpc();
    ok.outcome.jsonReport = std::string(
        "{\"x\": \"a\\\"b\\\\c\"}\n\t\x01\x1f\x7f\xc3\xa9 end");
    ManifestEntry failed;
    failed.fingerprint = 0xdeadbeef;
    failed.outcome.status = RunStatus::Failed;
    failed.outcome.attempts = 3;
    failed.outcome.errorKind = SimError::Kind::Trace;
    failed.outcome.error = "truncated trace file [/tmp/x.trc] \"q\"\n";
    ManifestEntry timedOut;
    timedOut.fingerprint = 0;
    timedOut.outcome.status = RunStatus::TimedOut;
    timedOut.outcome.attempts = 1;
    timedOut.outcome.wallMs = 50;
    timedOut.outcome.errorKind = SimError::Kind::Timeout;
    return {ok, failed, timedOut};
}

/** Ledger options for @p path. */
BatchOptions
ledgerOptions(const std::string &path, bool resume)
{
    BatchOptions opt;
    opt.manifestPath = path;
    opt.resume = resume;
    return opt;
}

} // namespace

// The journal only grows: each record() appends one line, leaving the
// file it had as a byte prefix, and the lines are the whole-document
// manifest's entry objects (version 2, before the journal) without
// their indentation.
TEST(FaultTolerance, ManifestJournalAppendsTheOldEntryBytes)
{
    std::string path = ::testing::TempDir() + "journal_prefix.json";
    std::ofstream(path) << "stale bytes a fresh start must drop\n";
    {
        CampaignLedger ledger(ledgerOptions(path, false));
        EXPECT_TRUE(readFileBytes(path).empty());
        std::vector<unsigned char> before;
        for (const ManifestEntry &e : fixedEntries()) {
            ledger.record(e.fingerprint, e.outcome);
            std::vector<unsigned char> after = readFileBytes(path);
            ASSERT_GT(after.size(), before.size());
            EXPECT_TRUE(std::equal(before.begin(), before.end(),
                                   after.begin()));
            EXPECT_EQ(after.back(), '\n');
            before = std::move(after);
        }
    }
    std::vector<unsigned char> bytes = readFileBytes(path);
    std::string text(bytes.begin(), bytes.end());
    const std::string failedLine =
        "{\"fingerprint\": \"0xdeadbeef\", \"status\": \"failed\", "
        "\"attempts\": 3, \"wall_ms\": 0, \"error_kind\": \"trace\", "
        "\"error\": \"truncated trace file [/tmp/x.trc] \\\"q\\\"\\n\"}\n";
    EXPECT_EQ(text.rfind("{\"version\": 3}\n", 0), 0u) << text;
    EXPECT_NE(text.find("\n" + failedLine), std::string::npos) << text;
    // The digest of the version-2 writer's entries for the same
    // outcomes, one per line under the header.
    EXPECT_EQ(bytes.size(), 2594u);
    EXPECT_EQ(fnv1a(bytes), 0x5b35a6b60b15848dULL) << text;

    Expected<CampaignManifest> m = CampaignManifest::load(path);
    ASSERT_TRUE(m.ok()) << m.error().what();
    EXPECT_EQ(m.value().size(), 3u);
    EXPECT_EQ(m.value().completeBytes(), bytes.size());
    std::remove(path.c_str());
}

TEST(FaultTolerance, ManifestKeepsTheLastLineOfAFingerprint)
{
    std::string path = ::testing::TempDir() + "journal_last_wins.json";
    std::vector<ManifestEntry> e = fixedEntries();
    RunOutcome retried = e[1].outcome;
    retried.attempts = 4;
    retried.error = "again";
    {
        CampaignLedger ledger(ledgerOptions(path, false));
        for (const ManifestEntry &x : e)
            ledger.record(x.fingerprint, x.outcome);
        ledger.record(e[1].fingerprint, retried);
        ledger.record(e[0].fingerprint, e[0].outcome);
    }
    Expected<CampaignManifest> m = CampaignManifest::load(path);
    ASSERT_TRUE(m.ok()) << m.error().what();
    ASSERT_EQ(m.value().size(), 3u);
    std::vector<const ManifestEntry *> order = m.value().entriesInOrder();
    for (std::size_t i = 0; i < e.size(); ++i)
        EXPECT_EQ(order[i]->fingerprint, e[i].fingerprint);
    const ManifestEntry *f = m.value().find(e[1].fingerprint);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->outcome.attempts, 4u);
    EXPECT_EQ(f->outcome.error, "again");

    // A resume restores from the last line too.
    CampaignLedger resumed(ledgerOptions(path, true));
    RunOutcome out;
    unsigned prior = 0;
    EXPECT_FALSE(resumed.restore(e[1].fingerprint, out, prior));
    EXPECT_EQ(prior, 4u);
    EXPECT_TRUE(resumed.restore(e[0].fingerprint, out, prior));
    test::expectIdentical(out.results, e[0].outcome.results);
    std::remove(path.c_str());
}

// A coordinator killed mid-append leaves a last line without its
// '\n'. Cut there at every byte offset, the manifest still loads every
// earlier entry, and a resume cuts the torn bytes off before its first
// append, so the file stays well formed.
TEST(FaultTolerance, ManifestDropsATornLastLineAtEveryOffset)
{
    std::string path = ::testing::TempDir() + "journal_torn.json";
    std::vector<ManifestEntry> e = fixedEntries();
    {
        CampaignLedger ledger(ledgerOptions(path, false));
        for (std::size_t i : {1u, 2u, 0u})
            ledger.record(e[i].fingerprint, e[i].outcome);
    }
    const std::vector<unsigned char> full = readFileBytes(path);
    std::size_t lastLine = full.size() - 1;
    while (full[lastLine - 1] != '\n')
        --lastLine;

    for (std::size_t cut = lastLine; cut < full.size(); ++cut) {
        SCOPED_TRACE(cut);
        writeFileBytes(path, std::vector<unsigned char>(
                                 full.begin(), full.begin() + cut));
        Expected<CampaignManifest> m = CampaignManifest::load(path);
        ASSERT_TRUE(m.ok()) << m.error().what();
        EXPECT_EQ(m.value().size(), 2u);
        EXPECT_EQ(m.value().completeBytes(), lastLine);
        EXPECT_EQ(m.value().tornBytes(), cut - lastLine);
        EXPECT_EQ(m.value().find(e[0].fingerprint), nullptr);

        {
            CampaignLedger ledger(ledgerOptions(path, true));
            ledger.record(e[0].fingerprint, e[0].outcome);
        }
        EXPECT_EQ(readFileBytes(path), full);
    }
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
        << "{\"version\": 3}\n{\"fingerprint\": \"0x1\", \"status\": "
           "\"ok\", \"attempts\": 1, \"wall_ms\": 5, \"results\": "
        << results << "}\n";
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
