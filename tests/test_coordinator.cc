/**
 * @file
 * Distributed campaign tests: wire-protocol round trips, the fault
 * injection harness, manifest locking, and end-to-end coordinator /
 * worker runs under injected crashes, wedges, truncated writes and
 * poison specs — asserting that the surviving campaign's results stay
 * bit-identical to a single-process runBatch of the same specs.
 *
 * The end-to-end tests spawn the real ipref_worker binary; they skip
 * (not fail) when it cannot be found, so the suite still runs from an
 * install tree without the tools. ctest points IPREF_WORKER_BIN at
 * the built worker.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "scheme_params.hh"
#include "sim/campaign.hh"
#include "sim/campaign_proto.hh"
#include "sim/coordinator.hh"
#include "sim/experiment.hh"
#include "prefetch/scheme_registry.hh"
#include "util/fault_inject.hh"
#include "util/json.hh"

using namespace ipref;

namespace
{

/** A fast functional spec the end-to-end tests can run in ~10ms. */
RunSpec
quickSpec(const std::string &scheme = "nl-tagged", unsigned degree = 2,
          std::uint64_t seed = 1)
{
    return RunSpec::builder()
        .workload(WorkloadKind::DB)
        .scheme(scheme)
        .degree(degree)
        .functional(true)
        .instrScale(0.02)
        .baseSeed(seed)
        .build();
}

std::vector<RunSpec>
quickSpecs(std::size_t n)
{
    std::vector<RunSpec> specs;
    for (std::size_t i = 0; i < n; ++i)
        specs.push_back(quickSpec("nl-tagged",
                                  1u + static_cast<unsigned>(i % 4),
                                  1 + i / 4));
    return specs;
}

/** Unique temp path that does not exist yet. */
std::string
tmpPath(const std::string &tag)
{
    std::string p = testing::TempDir() + "ipref_coord_" + tag + "_" +
                    std::to_string(::getpid()) + ".json";
    std::remove(p.c_str());
    std::remove((p + ".lock").c_str());
    return p;
}

/** The whole of file @p path. */
std::string
readText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/** RAII: clear any armed fault schedule when a test ends. */
struct FaultGuard
{
    ~FaultGuard() { fault::reset(); }
};

/** Campaign defaults tuned for test speed (tight but CI-safe). */
CampaignOptions
testCampaign(unsigned workers)
{
    CampaignOptions opt;
    opt.workers = workers;
    opt.batch.maxAttempts = 3;
    opt.batch.retryBaseMs = 1;
    opt.batch.retryCapMs = 10;
    opt.heartbeatMs = 20;
    opt.heartbeatTimeoutMs = 10000; // only the wedge test tightens it
    return opt;
}

bool
haveWorker()
{
    return !findWorkerBinary().empty();
}

#define REQUIRE_WORKER()                                               \
    do {                                                               \
        if (!haveWorker())                                             \
            GTEST_SKIP()                                               \
                << "ipref_worker not found (set IPREF_WORKER_BIN)";    \
    } while (0)

// --- protocol ---------------------------------------------------------

TEST(CampaignProto, SpecRoundTripsEverySchemeExactly)
{
    for (const SchemeDescriptor *d : SchemeRegistry::instance().all()) {
        RunSpec spec = RunSpec::builder()
                           .workloads({WorkloadKind::WEB,
                                       WorkloadKind::JAPP})
                           .scheme(d->token)
                           .degree(3)
                           .tableEntries(4096)
                           .targetWays(1)
                           .bypassL2(true)
                           .confidenceFilter(true)
                           .historySize(16)
                           .queueSize(12)
                           .memGbPerSec(12.5)
                           .functional(true)
                           .instrScale(0.37)
                           .baseSeed(0xdeadbeefULL)
                           .build();
        Expected<RunSpec> back =
            specFromJson(parseJson(specToJson(spec)));
        ASSERT_TRUE(back.ok()) << back.error().what();
        EXPECT_EQ(fingerprintSpec(spec),
                  fingerprintSpec(back.value()))
            << "scheme " << d->token;
    }
}

TEST(CampaignProto, SpecRoundTripPreservesIdealEliminateAndFaults)
{
    RunSpec spec =
        RunSpec::builder()
            .eliminate(MissGroup::Sequential)
            .eliminate(MissGroup::Branch)
            .faultAt(1000, /*transient=*/true, /*attempts=*/2)
            .build();
    Expected<RunSpec> back = specFromJson(parseJson(specToJson(spec)));
    ASSERT_TRUE(back.ok()) << back.error().what();
    EXPECT_EQ(fingerprintSpec(spec), fingerprintSpec(back.value()));
    EXPECT_TRUE(back.value()
                    .idealEliminate[static_cast<std::size_t>(
                        MissGroup::Sequential)]);
    EXPECT_EQ(back.value().faultAtInstr, 1000u);
    EXPECT_TRUE(back.value().faultTransient);
    EXPECT_EQ(back.value().faultAttempts, 2u);
}

TEST(CampaignProto, SpecWithBadQueueOrHistorySizeIsAnIoError)
{
    // A campaign line reaches RunSpec::Builder::build() through
    // specFromJson; a bad size, or a scale or bandwidth whose raw bits
    // are not a usable double, must come back as an error the worker
    // reports, not abort the worker process.
    const std::string good = specToJson(RunSpec::builder()
                                            .scheme("n4l")
                                            .historySize(16)
                                            .queueSize(12)
                                            .build());
    ASSERT_TRUE(specFromJson(parseJson(good)).ok());
    struct Edit
    {
        std::string from, to, why;
    };
    std::vector<Edit> edits = {
        {"\"queue_size\": 12", "\"queue_size\": 0", "queueSize"},
        {"\"queue_size\": 12", "\"queue_size\": -7", "queueSize"},
        {"\"history_size\": 16", "\"history_size\": -3",
         "historySize"},
        // NaN, +inf, -inf and 1e30.
        {"\"instr_scale_bits\": \"0x3ff0000000000000\"",
         "\"instr_scale_bits\": \"0x7ff8000000000000\"", "instrScale"},
        {"\"instr_scale_bits\": \"0x3ff0000000000000\"",
         "\"instr_scale_bits\": \"0x7ff0000000000000\"", "instrScale"},
        {"\"instr_scale_bits\": \"0x3ff0000000000000\"",
         "\"instr_scale_bits\": \"0xfff0000000000000\"", "instrScale"},
        {"\"instr_scale_bits\": \"0x3ff0000000000000\"",
         "\"instr_scale_bits\": \"0x46293e5939a08cea\"", "instrScale"},
        {"\"mem_gb_bits\": \"0x0\"",
         "\"mem_gb_bits\": \"0x7ff8000000000000\"", "memGbPerSec"},
        {"\"mem_gb_bits\": \"0x0\"",
         "\"mem_gb_bits\": \"0x7ff0000000000000\"", "memGbPerSec"},
        // Integers are read strictly, range-checked to their field.
        {"\"history_size\": 16", "\"history_size\": 2147483648",
         "history_size"},
        {"\"queue_size\": 12", "\"queue_size\": 1.5", "queue_size"},
    };
    const std::pair<std::string, std::string> unsignedFields[] = {
        {"degree", "4"}, {"line_bytes", "64"}, {"fault_attempts", "0"}};
    for (const auto &[field, value] : unsignedFields) {
        const std::string key = "\"" + field + "\": ";
        for (const char *bad : {"-1", "4.5", "1e30", "4294967296"})
            edits.push_back({key + value, key + bad, field});
    }
    for (const auto &e : edits) {
        std::string line = good;
        std::size_t at = line.find(e.from);
        ASSERT_NE(at, std::string::npos) << e.from;
        line.replace(at, e.from.size(), e.to);
        Expected<RunSpec> back = specFromJson(parseJson(line));
        ASSERT_FALSE(back.ok()) << e.to;
        EXPECT_EQ(back.error().kind(), SimError::Kind::Io) << e.to;
        EXPECT_NE(std::string(back.error().what()).find(e.why),
                  std::string::npos)
            << back.error().what();
    }
}

TEST(CampaignProto, ControlMessagesRoundTrip)
{
    Expected<ProtoMessage> hello = parseProtoLine(helloLine());
    ASSERT_TRUE(hello.ok());
    EXPECT_EQ(hello.value().type, ProtoMessage::Type::Hello);

    WorkerConfig cfg;
    cfg.wantReport = true;
    cfg.maxAttempts = 5;
    cfg.retryBaseMs = 3;
    cfg.runTimeoutMs = 1234;
    cfg.heartbeatMs = 77;
    Expected<ProtoMessage> conf = parseProtoLine(configLine(cfg));
    ASSERT_TRUE(conf.ok());
    EXPECT_EQ(conf.value().type, ProtoMessage::Type::Config);
    EXPECT_TRUE(conf.value().config.wantReport);
    EXPECT_EQ(conf.value().config.maxAttempts, 5u);
    EXPECT_EQ(conf.value().config.runTimeoutMs, 1234u);
    EXPECT_EQ(conf.value().config.heartbeatMs, 77u);

    Expected<ProtoMessage> beat = parseProtoLine(heartbeatLine(9001));
    ASSERT_TRUE(beat.ok());
    EXPECT_EQ(beat.value().type, ProtoMessage::Type::Heartbeat);
    EXPECT_EQ(beat.value().instrs, 9001u);
}

TEST(CampaignProto, RunAndOutcomeRoundTripBitExactly)
{
    RunSpec spec = quickSpec();
    std::uint64_t fp = fingerprintSpec(spec);
    Expected<ProtoMessage> run =
        parseProtoLine(runLine(5, fp, 2, spec));
    ASSERT_TRUE(run.ok()) << run.error().what();
    EXPECT_EQ(run.value().type, ProtoMessage::Type::Run);
    EXPECT_EQ(run.value().id, 5);
    EXPECT_EQ(run.value().fingerprint, fp);
    EXPECT_EQ(run.value().priorAttempts, 2u);
    EXPECT_EQ(fingerprintSpec(run.value().spec), fp);

    // A real outcome (results and all) survives the wire bit-exactly.
    RunOutcome out = runIsolated(spec, BatchOptions{});
    ASSERT_TRUE(out.ok()) << out.error;
    Expected<ProtoMessage> echoed =
        parseProtoLine(outcomeLine(5, fp, out));
    ASSERT_TRUE(echoed.ok()) << echoed.error().what();
    EXPECT_EQ(echoed.value().outcome.status, RunStatus::Ok);
    EXPECT_EQ(echoed.value().outcome.attempts, out.attempts);
    EXPECT_EQ(resultsToJson(echoed.value().outcome.results),
              resultsToJson(out.results));

    RunOutcome fail;
    fail.status = RunStatus::Quarantined;
    fail.errorKind = SimError::Kind::Io;
    fail.error = "poison";
    fail.attempts = 4;
    Expected<ProtoMessage> failEchoed =
        parseProtoLine(outcomeLine(6, fp, fail));
    ASSERT_TRUE(failEchoed.ok());
    EXPECT_EQ(failEchoed.value().outcome.status,
              RunStatus::Quarantined);
    EXPECT_EQ(failEchoed.value().outcome.errorKind,
              SimError::Kind::Io);
    EXPECT_EQ(failEchoed.value().outcome.error, "poison");
}

TEST(CampaignProto, TruncatedAndGarbageLinesAreErrorsNotThrows)
{
    std::string line = runLine(1, 123, 0, quickSpec());
    for (std::size_t cut : {std::size_t(1), line.size() / 2,
                            line.size() - 1})
        EXPECT_FALSE(parseProtoLine(line.substr(0, cut)).ok());
    EXPECT_FALSE(parseProtoLine("not json at all").ok());
    EXPECT_FALSE(parseProtoLine("{\"type\":\"nonsense\"}").ok());
    EXPECT_FALSE(parseProtoLine("").ok());
}

/**
 * @p line without each of its object members in turn (at any depth),
 * one variant per key: `"key": value` and the comma joining it to a
 * neighbour go.
 */
std::vector<std::string>
withEachKeyDeleted(const std::string &line)
{
    // One past the end of the string or JSON value starting at @p i.
    auto skipString = [&](std::size_t i) {
        for (++i; i < line.size() && line[i] != '"'; ++i)
            i += line[i] == '\\';
        return i + 1;
    };
    auto skipValue = [&](std::size_t i) {
        if (line[i] == '"')
            return skipString(i);
        int depth = 0;
        for (; i < line.size(); ++i) {
            char c = line[i];
            if (c == '"') {
                i = skipString(i) - 1;
            } else if (c == '{' || c == '[') {
                ++depth;
            } else if (c == '}' || c == ']') {
                if (depth-- == 0)
                    break;
                if (depth == 0)
                    return i + 1;
            } else if (c == ',' && depth == 0) {
                break;
            }
        }
        return i;
    };
    std::vector<std::string> out;
    for (std::size_t i = 0; i < line.size(); ++i) {
        if (line[i] != '"')
            continue;
        std::size_t end = skipString(i);
        if (line.compare(end, 2, ": ") != 0) {
            i = end - 1; // a string value, not a key
            continue;
        }
        std::size_t from = i, to = skipValue(end + 2);
        if (from >= 2 && line.compare(from - 2, 2, ", ") == 0)
            from -= 2;
        else if (line.compare(to, 2, ", ") == 0)
            to += 2;
        out.push_back(line.substr(0, from) + line.substr(to));
        i = end - 1; // then the keys inside this member's value
    }
    return out;
}

/** A run or outcome message written back out; "" for other types. */
std::string
reserialize(const ProtoMessage &m)
{
    if (m.type == ProtoMessage::Type::Run)
        return runLine(m.id, m.fingerprint, m.priorAttempts, m.spec);
    if (m.type == ProtoMessage::Type::Outcome)
        return outcomeLine(m.id, m.fingerprint, m.outcome);
    return "";
}

// Seeded mutations of every message line: byte flips, every prefix and
// every member deleted. parseProtoLine never throws, and a run or
// outcome line it accepts writes back out as the same message.
TEST(CampaignProto, MutatedLinesNeverThrowAndRoundTripWhenAccepted)
{
    RunSpec spec = quickSpec();
    std::uint64_t fp = fingerprintSpec(spec);
    RunOutcome out = runIsolated(spec, BatchOptions{});
    ASSERT_TRUE(out.ok()) << out.error;
    out.jsonReport = "{\"report\": [1, \"two\"]}";
    RunOutcome fail;
    fail.status = RunStatus::Failed;
    fail.errorKind = SimError::Kind::Io;
    fail.error = "disk \"full\"";
    fail.attempts = 2;
    WorkerConfig cfg;
    cfg.wantReport = true;

    const std::vector<std::string> seeds = {
        helloLine(),          configLine(cfg),
        runLine(3, fp, 1, spec), outcomeLine(3, fp, out),
        outcomeLine(4, fp, fail), heartbeatLine(123456),
    };
    std::mt19937_64 rng(20051);
    std::size_t accepted = 0, mutants = 0;
    auto check = [&](const std::string &line) {
        ++mutants;
        Expected<ProtoMessage> m = ProtoMessage{};
        EXPECT_NO_THROW(m = parseProtoLine(line)) << line;
        if (!m.ok())
            return;
        ++accepted;
        std::string once = reserialize(m.value());
        if (once.empty())
            return;
        Expected<ProtoMessage> back = parseProtoLine(once);
        ASSERT_TRUE(back.ok()) << once << ": " << back.error().what();
        EXPECT_EQ(reserialize(back.value()), once) << line;
    };
    for (const std::string &seed : seeds) {
        ASSERT_TRUE(parseProtoLine(seed).ok()) << seed;
        std::string written = reserialize(parseProtoLine(seed).value());
        if (!written.empty()) {
            EXPECT_EQ(written, seed);
        }
        for (std::size_t cut = 0; cut < seed.size(); ++cut) {
            check(seed.substr(0, cut));
            EXPECT_FALSE(parseProtoLine(seed.substr(0, cut)).ok());
        }
        for (const std::string &line : withEachKeyDeleted(seed))
            check(line);
        for (int i = 0; i < 2000; ++i) {
            std::string line = seed;
            for (int flips = 1 + static_cast<int>(rng() % 3); flips > 0;
                 --flips)
                line[rng() % line.size()] ^=
                    static_cast<char>(1u << (rng() % 8));
            check(line);
        }
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(mutants, accepted);

    // The retired control messages are unknown types now.
    for (const char *type : {"abort", "shutdown", "bye"}) {
        Expected<ProtoMessage> m = parseProtoLine(
            std::string("{\"type\": \"") + type + "\"}");
        ASSERT_FALSE(m.ok()) << type;
        EXPECT_EQ(m.error().kind(), SimError::Kind::Io);
        EXPECT_NE(std::string(m.error().what())
                      .find("unknown message type"),
                  std::string::npos)
            << m.error().what();
    }
}

// --- fault injection --------------------------------------------------

TEST(FaultInject, ScheduleFiresOnExactHitWithParam)
{
    FaultGuard guard;
    fault::configure("worker.crash_run@2,worker.wedge_run@1:500");
    EXPECT_TRUE(fault::active());

    std::uint64_t param = 0;
    EXPECT_TRUE(fault::shouldFire("worker.wedge_run", &param));
    EXPECT_EQ(param, 500u);
    // Entry consumed: the next hit does not fire again.
    EXPECT_FALSE(fault::shouldFire("worker.wedge_run", &param));

    EXPECT_FALSE(fault::shouldFire("worker.crash_run")); // hit 1
    EXPECT_TRUE(fault::shouldFire("worker.crash_run"));  // hit 2
    EXPECT_FALSE(fault::shouldFire("worker.crash_run")); // hit 3
    EXPECT_EQ(fault::hitCount("worker.crash_run"), 3u);

    fault::reset();
    EXPECT_FALSE(fault::active());
    EXPECT_FALSE(fault::shouldFire("worker.crash_run"));
}

TEST(FaultInject, ArmNextFiresOnTheNextHitOnly)
{
    FaultGuard guard;
    fault::configure("worker.crash_run@5");
    EXPECT_FALSE(fault::shouldFire("coord.exit_record")); // hit 1
    // One point's firing places another's (coord.exit_after_death
    // arms coord.exit_record): the next hit fires, and only it.
    fault::armNext("coord.exit_record");
    EXPECT_TRUE(fault::shouldFire("coord.exit_record"));  // hit 2
    EXPECT_FALSE(fault::shouldFire("coord.exit_record")); // hit 3
}

TEST(FaultInject, UnscheduledFastPathSeesAConcurrentConfigure)
{
    // Four threads pass a point while nothing is installed (the early
    // return, no lock); a fifth installs a schedule for it meanwhile.
    // The entry fires exactly once.
    FaultGuard guard;
    fault::reset();
    std::atomic<bool> installed{false};
    std::atomic<int> fired{0};
    std::vector<std::thread> callers;
    for (int t = 0; t < 4; ++t)
        callers.emplace_back([&] {
            for (int after = 0; after < 2000;) {
                bool seen = installed.load();
                fired += fault::shouldFire("test.race");
                after += seen;
            }
        });
    std::thread installer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        fault::configure("test.race@1");
        installed = true;
    });
    installer.join();
    for (std::thread &c : callers)
        c.join();
    EXPECT_EQ(fired.load(), 1);
    EXPECT_GE(fault::hitCount("test.race"), 4u * 2000u);
}

TEST(FaultInject, SpawnFilterGatesOnWorkerSpawnOrdinal)
{
    FaultGuard guard;
    ::setenv("IPREF_WORKER_SPAWN", "1", 1);
    fault::configure("manifest.write@1/spawn0,coord.exit_record@1/1");
    // This process claims spawn 1: the spawn0 entry never matches...
    EXPECT_FALSE(fault::shouldFire("manifest.write"));
    EXPECT_FALSE(fault::shouldFire("manifest.write"));
    // ...but the spawn-1 entry (bare "/1" spelling) does.
    EXPECT_TRUE(fault::shouldFire("coord.exit_record"));
    ::unsetenv("IPREF_WORKER_SPAWN");
}

TEST(FaultInject, ManifestWritePointInjectsTransientIoError)
{
    FaultGuard guard;
    std::string path = tmpPath("faultwrite");
    ManifestLock journal(path);
    RunOutcome outcome;
    outcome.status = RunStatus::Failed;
    journal.append(6, outcome);
    const std::string before = readText(path);

    fault::configure("manifest.write@1");
    try {
        journal.append(7, outcome);
        FAIL() << "injected manifest.write fault did not throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Io);
        EXPECT_TRUE(e.transient());
    }
    EXPECT_EQ(readText(path), before);
    // The fault fires once; the retry (what runBatch would do for a
    // transient IoError) appends exactly one line.
    EXPECT_NO_THROW(journal.append(7, outcome));
    const std::string after = readText(path);
    ASSERT_EQ(after.compare(0, before.size(), before), 0);
    std::string added = after.substr(before.size());
    EXPECT_EQ(std::count(added.begin(), added.end(), '\n'), 1) << added;
    EXPECT_EQ(added.rfind("{\"fingerprint\": \"0x7\", ", 0), 0u) << added;
    std::remove(path.c_str());
}

// --- manifest lock ----------------------------------------------------

TEST(ManifestLockTest, SecondHolderFailsFastWithIoError)
{
    std::string path = tmpPath("lock");
    ManifestLock first(path);
    EXPECT_TRUE(first.held());
    try {
        ManifestLock second(path);
        FAIL() << "second ManifestLock acquired concurrently";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Io);
        EXPECT_NE(std::string(e.what()).find("locked"),
                  std::string::npos)
            << e.what();
    }
    first.release();
    EXPECT_FALSE(first.held());
    EXPECT_NO_THROW(ManifestLock{path});
    std::remove((path + ".lock").c_str());
}

TEST(ManifestLockTest, RunBatchRefusesALockedManifest)
{
    std::string path = tmpPath("lockbatch");
    ManifestLock held(path);
    BatchOptions opt;
    opt.manifestPath = path;
    EXPECT_THROW(runBatch({quickSpec()}, opt), SimError);
    held.release();
    std::remove((path + ".lock").c_str());
}

// --- worker process ---------------------------------------------------

/**
 * An ipref_worker started on two pipes as Fleet::spawn starts one,
 * with no coordinator behind them: the test plays its part.
 */
struct WorkerProc
{
    pid_t pid = -1;
    int toFd = -1;   //!< the worker's stdin
    int fromFd = -1; //!< the worker's stdout
    std::string rbuf;

    WorkerProc()
    {
        std::string bin = findWorkerBinary();
        std::vector<char *> argv = {bin.data(), nullptr};
        int to[2], from[2];
        if (::pipe2(to, O_CLOEXEC) != 0 || ::pipe2(from, O_CLOEXEC) != 0)
            return;
        pid = ::fork();
        if (pid == 0) {
            ::dup2(to[0], STDIN_FILENO);
            ::dup2(from[1], STDOUT_FILENO);
            ::execv(bin.c_str(), argv.data());
            ::_exit(127);
        }
        ::close(to[0]);
        ::close(from[1]);
        toFd = to[1];
        fromFd = from[0];
    }

    ~WorkerProc()
    {
        closeStdin();
        closeStdout();
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
        }
    }

    void closeStdin()
    {
        if (toFd >= 0)
            ::close(toFd);
        toFd = -1;
    }

    void closeStdout()
    {
        if (fromFd >= 0)
            ::close(fromFd);
        fromFd = -1;
    }

    bool send(const std::string &line)
    {
        return writeAll(toFd, line + "\n");
    }

    /** The worker's next message, or nullopt after @p ms of silence. */
    std::optional<ProtoMessage> next(int ms = 5000)
    {
        auto until =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
        for (;;) {
            std::size_t nl = rbuf.find('\n');
            if (nl != std::string::npos) {
                Expected<ProtoMessage> m = parseProtoLine(rbuf.substr(0, nl));
                rbuf.erase(0, nl + 1);
                if (!m.ok())
                    return std::nullopt;
                return m.value();
            }
            auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                until - std::chrono::steady_clock::now());
            pollfd p{fromFd, POLLIN, 0};
            char chunk[4096];
            ssize_t n = 0;
            if (left.count() <= 0 ||
                ::poll(&p, 1, static_cast<int>(left.count())) <= 0 ||
                (n = ::read(fromFd, chunk, sizeof(chunk))) <= 0)
                return std::nullopt;
            rbuf.append(chunk, static_cast<std::size_t>(n));
        }
    }

    /** The wait status once the worker exits within @p ms, else -1. */
    int waitExit(int ms)
    {
        auto until =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
        int status = 0;
        while (std::chrono::steady_clock::now() < until) {
            if (::waitpid(pid, &status, WNOHANG) == pid) {
                pid = -1;
                return status;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        return -1;
    }

    /** Threads the worker runs now (its /proc task entries). */
    std::size_t threads() const
    {
        std::size_t n = 0;
        std::string dir = "/proc/" + std::to_string(pid) + "/task";
        if (DIR *d = ::opendir(dir.c_str())) {
            while (const dirent *e = ::readdir(d))
                n += e->d_name[0] != '.';
            ::closedir(d);
        }
        return n;
    }
};

/** A config line with a 20 ms heartbeat. */
std::string
fastBeatConfig()
{
    WorkerConfig cfg;
    cfg.heartbeatMs = 20;
    return configLine(cfg);
}

bool
exitedZero(int status)
{
    return status != -1 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

TEST(WorkerProcess, IdleWorkerExitsWhenItsStdinCloses)
{
    REQUIRE_WORKER();
    WorkerProc w;
    ASSERT_GT(w.pid, 0);
    std::optional<ProtoMessage> hello = w.next();
    ASSERT_TRUE(hello && hello->type == ProtoMessage::Type::Hello);
    ASSERT_TRUE(w.send(fastBeatConfig()));
    std::optional<ProtoMessage> beat = w.next();
    ASSERT_TRUE(beat && beat->type == ProtoMessage::Type::Heartbeat);

    w.closeStdin();
    int status = w.waitExit(5000);
    EXPECT_TRUE(exitedZero(status)) << "wait status " << status;
}

TEST(WorkerProcess, DeadCoordinatorPipeEndsARunningWorker)
{
    REQUIRE_WORKER();
    WorkerProc w;
    ASSERT_GT(w.pid, 0);
    std::optional<ProtoMessage> hello = w.next();
    ASSERT_TRUE(hello && hello->type == ProtoMessage::Type::Hello);
    ASSERT_TRUE(w.send(fastBeatConfig()));

    // A run of many seconds: the worker is inside it for what follows.
    RunSpec spec = RunSpec::builder()
                       .workload(WorkloadKind::DB)
                       .scheme("discontinuity")
                       .instrScale(4.0)
                       .build();
    ASSERT_TRUE(w.send(runLine(0, fingerprintSpec(spec), 0, spec)));
    for (int beats = 0; beats < 5; ++beats) {
        std::optional<ProtoMessage> m = w.next();
        ASSERT_TRUE(m && m->type == ProtoMessage::Type::Heartbeat);
    }
    // Main and heartbeat; a TSan build adds its runtime's own thread.
#ifdef __SANITIZE_THREAD__
    EXPECT_EQ(w.threads(), 3u);
#else
    EXPECT_EQ(w.threads(), 2u);
#endif

    // The coordinator's end of the worker's stdout goes, as when the
    // coordinator dies: the next heartbeat write fails with EPIPE,
    // the run unwinds and the worker exits by itself, stdin still open.
    w.closeStdout();
    int status = w.waitExit(3000);
    EXPECT_TRUE(exitedZero(status)) << "wait status " << status;
}

TEST(WorkerProcess, SigtermEndsAWorkerWaitingForConfig)
{
    REQUIRE_WORKER();
    WorkerProc w;
    ASSERT_GT(w.pid, 0);
    std::optional<ProtoMessage> hello = w.next();
    ASSERT_TRUE(hello && hello->type == ProtoMessage::Type::Hello);
    // Past its hello the worker blocks in read(2) for the config.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::kill(w.pid, SIGTERM);
    int status = w.waitExit(2000);
    EXPECT_TRUE(exitedZero(status)) << "wait status " << status;
}

// --- end to end -------------------------------------------------------

TEST(CampaignE2E, MatchesSingleProcessRunBatchBitExactly)
{
    REQUIRE_WORKER();
    std::vector<RunSpec> specs = quickSpecs(6);

    BatchOptions seq;
    seq.jobs = 1;
    std::vector<RunOutcome> baseline = runBatch(specs, seq);

    std::vector<RunOutcome> dist =
        runCampaign(specs, testCampaign(2));

    ASSERT_EQ(dist.size(), baseline.size());
    for (std::size_t i = 0; i < dist.size(); ++i) {
        ASSERT_EQ(dist[i].status, RunStatus::Ok)
            << "spec " << i << ": " << dist[i].error;
        EXPECT_EQ(resultsToJson(dist[i].results),
                  resultsToJson(baseline[i].results))
            << "spec " << i;
        EXPECT_EQ(dist[i].attempts, baseline[i].attempts);
    }
}

// The outcome wire carries the SimResults counters of every scheme
// intact: one 1-core timing run per registered scheme on two workers
// equals the same spec run in-process.
TEST(CampaignE2E, EverySchemeMatchesRunBatchOnTwoWorkers)
{
    REQUIRE_WORKER();
    std::vector<RunSpec> specs;
    for (const std::string &token : test::allSchemeTokens())
        specs.push_back(RunSpec::builder()
                            .cmp(false)
                            .workload(WorkloadKind::DB)
                            .scheme(token)
                            .instrScale(0.01)
                            .build());

    BatchOptions seq;
    seq.jobs = 1;
    std::vector<RunOutcome> baseline = runBatch(specs, seq);
    std::vector<RunOutcome> dist = runCampaign(specs, testCampaign(2));

    ASSERT_EQ(dist.size(), specs.size());
    for (std::size_t i = 0; i < dist.size(); ++i) {
        ASSERT_EQ(dist[i].status, RunStatus::Ok)
            << specs[i].schemeToken << ": " << dist[i].error;
        ASSERT_EQ(baseline[i].status, RunStatus::Ok)
            << specs[i].schemeToken << ": " << baseline[i].error;
        EXPECT_GT(dist[i].results.cpiStackTotal(), 0u)
            << specs[i].schemeToken;
        EXPECT_EQ(resultsToJson(dist[i].results),
                  resultsToJson(baseline[i].results))
            << specs[i].schemeToken;
    }
}

TEST(CampaignE2E, EmptySpecListIsANoOp)
{
    EXPECT_TRUE(runCampaign({}, testCampaign(2)).empty());
}

TEST(CampaignE2E, WorkerSigkillMidCampaignRequeuesItsSpec)
{
    REQUIRE_WORKER();
    std::vector<RunSpec> specs = quickSpecs(3);

    BatchOptions seq;
    seq.jobs = 1;
    std::vector<RunOutcome> baseline = runBatch(specs, seq);

    // One worker; it SIGKILLs itself (no unwinding, no goodbye) as
    // its second dispatched run starts. The coordinator must requeue
    // that spec onto a respawn and finish the campaign.
    CampaignOptions opt = testCampaign(1);
    opt.workerFaults = "worker.crash_run@2/spawn0";
    std::vector<RunOutcome> dist = runCampaign(specs, opt);

    ASSERT_EQ(dist.size(), 3u);
    for (std::size_t i = 0; i < dist.size(); ++i) {
        ASSERT_EQ(dist[i].status, RunStatus::Ok)
            << "spec " << i << ": " << dist[i].error;
        EXPECT_EQ(resultsToJson(dist[i].results),
                  resultsToJson(baseline[i].results))
            << "spec " << i;
    }
    // The killed spec consumed the dead worker's attempt plus the
    // respawn's successful one; its neighbours ran once.
    EXPECT_EQ(dist[0].attempts, 1u);
    EXPECT_EQ(dist[1].attempts, 2u);
    EXPECT_EQ(dist[2].attempts, 1u);
}

TEST(CampaignE2E, TruncatedOutcomeLineCountsAsDeathAndRequeues)
{
    REQUIRE_WORKER();
    std::vector<RunSpec> specs = {quickSpec()};

    BatchOptions seq;
    seq.jobs = 1;
    std::vector<RunOutcome> baseline = runBatch(specs, seq);

    CampaignOptions opt = testCampaign(1);
    opt.workerFaults = "worker.truncate_outcome@1/spawn0";
    std::vector<RunOutcome> dist = runCampaign(specs, opt);

    ASSERT_EQ(dist.size(), 1u);
    ASSERT_EQ(dist[0].status, RunStatus::Ok) << dist[0].error;
    EXPECT_EQ(resultsToJson(dist[0].results),
              resultsToJson(baseline[0].results));
    EXPECT_EQ(dist[0].attempts, 2u);
}

TEST(CampaignE2E, HeartbeatDeadlineKillsWedgedWorker)
{
    REQUIRE_WORKER();
    std::vector<RunSpec> specs = {quickSpec()};

    // Spawn 0 wedges its first run for 60s AND stalls its heartbeat
    // thread, so only deadline-based death detection can save the
    // campaign. The wedge far exceeds the timeout: if detection
    // failed, this test would time out rather than pass slowly.
    CampaignOptions opt = testCampaign(1);
    opt.workerFaults = "worker.wedge_run@1/spawn0:60000,"
                       "worker.heartbeat_stall@1/spawn0";
    opt.heartbeatMs = 20;
    opt.heartbeatTimeoutMs = 400;
    std::vector<RunOutcome> dist = runCampaign(specs, opt);

    ASSERT_EQ(dist.size(), 1u);
    ASSERT_EQ(dist[0].status, RunStatus::Ok) << dist[0].error;
    EXPECT_EQ(dist[0].attempts, 2u);
}

TEST(CampaignE2E, PoisonSpecIsQuarantinedAfterRepeatedDeaths)
{
    REQUIRE_WORKER();
    std::vector<RunSpec> specs = {quickSpec()};

    // Every spawn crashes on its first dispatched run: the lone spec
    // kills three workers in a row and must be quarantined, not
    // retried forever and not allowed to exhaust the fleet.
    CampaignOptions opt = testCampaign(1);
    opt.batch.maxAttempts = 10; // quarantine must trip first
    opt.workerFaults = "worker.crash_run@1/spawn0,"
                       "worker.crash_run@1/spawn1,"
                       "worker.crash_run@1/spawn2";
    std::string manifest = tmpPath("quarantine");
    opt.batch.manifestPath = manifest;

    std::vector<RunOutcome> dist = runCampaign(specs, opt);
    ASSERT_EQ(dist.size(), 1u);
    EXPECT_EQ(dist[0].status, RunStatus::Quarantined);
    EXPECT_EQ(dist[0].attempts, 3u);
    EXPECT_NE(dist[0].error.find("quarantined"), std::string::npos)
        << dist[0].error;

    // The manifest remembers the quarantine...
    Expected<CampaignManifest> loaded = CampaignManifest::load(manifest);
    ASSERT_TRUE(loaded.ok());
    const ManifestEntry *entry =
        loaded.value().find(fingerprintSpec(specs[0]));
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->outcome.status, RunStatus::Quarantined);

    // ...and a --resume re-runs it like any failed entry, succeeding
    // now that no faults are scheduled.
    CampaignOptions retry = testCampaign(1);
    retry.batch.manifestPath = manifest;
    retry.batch.resume = true;
    std::vector<RunOutcome> resumed = runCampaign(specs, retry);
    ASSERT_EQ(resumed.size(), 1u);
    EXPECT_EQ(resumed[0].status, RunStatus::Ok) << resumed[0].error;
    EXPECT_EQ(resumed[0].attempts, 4u); // numbering spans the resume
    std::remove(manifest.c_str());
    std::remove((manifest + ".lock").c_str());
}

TEST(CampaignE2E, SpentRespawnBudgetFailsTheRestAndReturns)
{
    REQUIRE_WORKER();
    std::vector<RunSpec> specs = quickSpecs(5);

    // Every spawn crashes on its first run: spec 0 kills three
    // workers and is quarantined, spec 1 spends the last of the five
    // spawns one worker is allowed, and with no worker left and none
    // to spawn the rest fail instead of waiting forever.
    CampaignOptions opt = testCampaign(1);
    opt.workerFaults = "worker.crash_run@1";
    std::vector<RunOutcome> dist = runCampaign(specs, opt);

    ASSERT_EQ(dist.size(), 5u);
    EXPECT_EQ(dist[0].status, RunStatus::Quarantined) << dist[0].error;
    for (std::size_t i = 1; i < dist.size(); ++i) {
        EXPECT_EQ(dist[i].status, RunStatus::Failed) << "spec " << i;
        EXPECT_NE(dist[i].error.find("no workers left"),
                  std::string::npos)
            << "spec " << i << ": " << dist[i].error;
    }
}

TEST(CampaignE2E, SigintDrainsTheFleetWithinTheGrace)
{
    REQUIRE_WORKER();
    std::vector<RunSpec> specs = quickSpecs(8);

    // Spawn 1 wedges its first run for 3 s; SIGINT lands while it is
    // wedged. Runs finished before it stay Ok, the wedged one answers
    // its abort with Interrupted, the queue ends Interrupted, and the
    // call returns within the 5 s drain grace with every worker
    // reaped.
    CampaignOptions opt = testCampaign(2);
    opt.workerFaults = "worker.wedge_run@1/spawn1:3000";
    std::thread signaller([] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        ::kill(::getpid(), SIGINT);
    });
    auto t0 = std::chrono::steady_clock::now();
    std::vector<RunOutcome> dist = runCampaign(specs, opt);
    auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    signaller.join();

    ASSERT_EQ(dist.size(), specs.size());
    std::size_t interrupted = 0;
    for (std::size_t i = 0; i < dist.size(); ++i) {
        EXPECT_TRUE(dist[i].status == RunStatus::Ok ||
                    dist[i].status == RunStatus::Interrupted)
            << "spec " << i << ": " << runStatusName(dist[i].status)
            << " " << dist[i].error;
        interrupted += dist[i].status == RunStatus::Interrupted;
    }
    EXPECT_GE(interrupted, 1u);
    EXPECT_LT(ms, 300 + 5000 + 1500);

    int status = 0;
    errno = 0;
    EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
}

TEST(CampaignE2E, ResumeRestoresCompletedRunsWithoutWorkers)
{
    REQUIRE_WORKER();
    std::vector<RunSpec> specs = quickSpecs(4);
    std::string manifest = tmpPath("resume");

    CampaignOptions opt = testCampaign(2);
    opt.batch.manifestPath = manifest;
    std::vector<RunOutcome> first = runCampaign(specs, opt);
    for (const RunOutcome &o : first)
        ASSERT_EQ(o.status, RunStatus::Ok) << o.error;

    // Second run resumes everything from the manifest: no worker is
    // needed at all, so break discovery to prove none is spawned.
    CampaignOptions again = testCampaign(2);
    again.batch.manifestPath = manifest;
    again.batch.resume = true;
    again.workerCmd = "/nonexistent/worker/binary";
    std::vector<RunOutcome> second = runCampaign(specs, again);

    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < second.size(); ++i) {
        EXPECT_TRUE(second[i].fromCheckpoint) << "spec " << i;
        EXPECT_EQ(second[i].status, RunStatus::Ok);
        EXPECT_EQ(resultsToJson(second[i].results),
                  resultsToJson(first[i].results));
    }
    std::remove(manifest.c_str());
    std::remove((manifest + ".lock").c_str());
}

} // namespace
