#include "sim/worker.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <string>
#include <thread>

#include <unistd.h>

#include "sim/campaign_proto.hh"
#include "util/fault_inject.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/parse.hh"

namespace ipref
{

namespace
{

/** Signal latch (async-signal-safe: flags only). */
volatile std::sig_atomic_t g_workerSignal = 0;

void
workerSignalHandler(int)
{
    g_workerSignal = 1;
    // Unwinds any in-flight run with Interrupted; setting the batch
    // latch is a plain sig_atomic_t store, so this is signal-safe.
    requestBatchInterrupt();
}

/** Everything the worker's three threads share. */
struct WorkerState
{
    std::mutex mu;
    std::condition_variable cv;

    bool haveConfig = false;
    WorkerConfig config;

    std::deque<ProtoMessage> runs; //!< dispatched, not yet started

    bool abortRequested = false;  //!< abort msg / signal / dead pipe
    bool shutdownRequested = false;

    std::int64_t runningId = -1;  //!< for heartbeats
    bool heartbeatStop = false;

    int protoOut = -1;
    std::mutex writeMu; //!< outcome and heartbeat writes interleave
};

/** Serialize one line onto the protocol pipe. */
bool
sendLine(WorkerState &st, const std::string &line)
{
    std::string framed = line + "\n";
    std::lock_guard<std::mutex> lock(st.writeMu);
    return writeAll(st.protoOut, framed);
}

/** Pipe-reader thread: parse lines, sort them into the state. */
void
readerLoop(WorkerState &st)
{
    std::string buf;
    char chunk[4096];
    for (;;) {
        ssize_t n = ::read(STDIN_FILENO, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break; // EOF: the coordinator is gone
        buf.append(chunk, static_cast<std::size_t>(n));
        for (const std::string &line : takeLines(buf)) {
            Expected<ProtoMessage> msg = parseProtoLine(line);
            if (!msg.ok()) {
                ipref_warn("worker: dropping bad protocol line: %s",
                           msg.error().what());
                continue;
            }
            ProtoMessage &m = msg.value();
            std::lock_guard<std::mutex> lock(st.mu);
            switch (m.type) {
              case ProtoMessage::Type::Config:
                st.config = m.config;
                st.haveConfig = true;
                break;
              case ProtoMessage::Type::Run:
                st.runs.push_back(std::move(m));
                break;
              case ProtoMessage::Type::Abort:
                st.abortRequested = true;
                requestBatchInterrupt();
                break;
              case ProtoMessage::Type::Shutdown:
                st.shutdownRequested = true;
                break;
              default:
                break; // coordinator-bound types: ignore
            }
            st.cv.notify_all();
        }
    }
    std::lock_guard<std::mutex> lock(st.mu);
    st.abortRequested = true;
    requestBatchInterrupt();
    st.cv.notify_all();
}

/** Heartbeat thread: one liveness line per period. */
void
heartbeatLoop(WorkerState &st, std::uint64_t periodMs)
{
    metrics::Counter &instrs = metrics::registry().counter(
        "ipref_sim_instructions_total");
    int pid = static_cast<int>(::getpid());
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(st.mu);
            st.cv.wait_for(lock, std::chrono::milliseconds(periodMs),
                           [&] { return st.heartbeatStop; });
            if (st.heartbeatStop)
                return;
        }
        if (fault::shouldFire("worker.heartbeat_stall"))
            return; // beats stop; the coordinator must notice
        std::int64_t running;
        {
            std::lock_guard<std::mutex> lock(st.mu);
            running = st.runningId;
        }
        if (!sendLine(st,
                      heartbeatLine(pid, instrs.value(), running))) {
            // Dead pipe: the coordinator died. Stop working.
            std::lock_guard<std::mutex> lock(st.mu);
            st.abortRequested = true;
            requestBatchInterrupt();
            st.cv.notify_all();
            return;
        }
    }
}

/** Leave without tearing down blocked threads. */
[[noreturn]] void
workerExit(int code)
{
    // The reader thread may be parked in read(2) forever; a normal
    // exit() would run static destructors under it. _exit is the
    // honest way out of a process whose lifetime the coordinator
    // owns.
    ::_exit(code);
}

} // namespace

void
workerMain(const Options &)
{
    unsigned spawn = 0;
    if (const char *s = std::getenv("IPREF_WORKER_SPAWN")) {
        auto v = readUint(s);
        spawn = static_cast<unsigned>(valueOrThrow(
            v && *v <= UINT_MAX ? v : std::nullopt, "IPREF_WORKER_SPAWN", s));
    }

    // The protocol owns stdout. Re-route fd 1 to stderr so any stray
    // printf from library code lands in the log, not the stream.
    int protoOut = ::dup(STDOUT_FILENO);
    if (protoOut < 0)
        ::_exit(3);
    ::dup2(STDERR_FILENO, STDOUT_FILENO);

    std::signal(SIGPIPE, SIG_IGN);
    std::signal(SIGINT, workerSignalHandler);
    std::signal(SIGTERM, workerSignalHandler);

    WorkerState st;
    st.protoOut = protoOut;

    std::thread reader([&st] { readerLoop(st); });
    reader.detach();

    if (!sendLine(st, helloLine(static_cast<int>(::getpid()), spawn)))
        workerExit(0);

    // The coordinator writes config before the first run, so this
    // wait resolves immediately in practice.
    WorkerConfig cfg;
    {
        std::unique_lock<std::mutex> lock(st.mu);
        st.cv.wait(lock, [&] {
            return st.haveConfig || st.abortRequested ||
                   st.shutdownRequested || g_workerSignal;
        });
        if (!st.haveConfig)
            workerExit(0);
        cfg = st.config;
    }

    ObservabilityOptions obs;
    obs.forceReports = cfg.wantReport;
    obs.intervalInstrs = cfg.intervalInstrs;
    obs.traceCapacity = cfg.traceCapacity;
    obs.profileSites = cfg.profileSites;
    setObservability(obs);

    BatchOptions runOpts;
    runOpts.maxAttempts = cfg.maxAttempts;
    runOpts.retryBaseMs = cfg.retryBaseMs;
    runOpts.retryCapMs = cfg.retryCapMs;
    runOpts.runTimeoutMs = cfg.runTimeoutMs;

    std::thread heartbeat;
    if (cfg.heartbeatMs > 0)
        heartbeat = std::thread(
            [&st, &cfg] { heartbeatLoop(st, cfg.heartbeatMs); });

    auto stopHeartbeat = [&] {
        if (!heartbeat.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(st.mu);
            st.heartbeatStop = true;
        }
        st.cv.notify_all();
        heartbeat.join();
    };

    for (;;) {
        ProtoMessage run;
        {
            std::unique_lock<std::mutex> lock(st.mu);
            st.cv.wait(lock, [&] {
                return !st.runs.empty() || st.abortRequested ||
                       st.shutdownRequested || g_workerSignal;
            });
            if (st.abortRequested || g_workerSignal ||
                (st.shutdownRequested && st.runs.empty())) {
                break;
            }
            run = std::move(st.runs.front());
            st.runs.pop_front();
            st.runningId = run.id;
        }

        // Chaos hooks: die or wedge exactly as dispatched run N
        // starts. The crash is a SIGKILL — no unwinding, no goodbye —
        // which is precisely what the coordinator must survive.
        std::uint64_t param = 0;
        if (fault::shouldFire("worker.crash_run"))
            std::raise(SIGKILL);
        if (fault::shouldFire("worker.wedge_run", &param))
            std::this_thread::sleep_for(std::chrono::milliseconds(
                param ? param : 60000));

        RunOutcome outcome;
        if (fingerprintSpec(run.spec) != run.fingerprint) {
            // Serialization drift between coordinator and worker
            // builds: refuse loudly instead of checkpointing results
            // under a key the coordinator did not dispatch.
            outcome.status = RunStatus::Failed;
            outcome.errorKind = SimError::Kind::Invariant;
            outcome.error = "worker: spec fingerprint mismatch "
                            "(coordinator/worker build drift?)";
            outcome.attempts = run.priorAttempts + 1;
        } else {
            outcome =
                runIsolated(run.spec, runOpts, run.priorAttempts);
        }

        {
            std::lock_guard<std::mutex> lock(st.mu);
            st.runningId = -1;
        }

        std::string line =
            outcomeLine(run.id, run.fingerprint, outcome) + "\n";
        if (fault::shouldFire("worker.truncate_outcome")) {
            // Protocol-truncation chaos: half a line, then vanish.
            std::lock_guard<std::mutex> lock(st.writeMu);
            writeAll(st.protoOut,
                     std::string_view(line).substr(0, line.size() / 2));
            ::_exit(3);
        }
        {
            std::lock_guard<std::mutex> lock(st.writeMu);
            if (!writeAll(st.protoOut, line))
                break; // coordinator gone
        }
    }

    stopHeartbeat();
    sendLine(st, byeLine()); // best effort
    workerExit(0);
}

} // namespace ipref
