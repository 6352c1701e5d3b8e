#include "sim/worker.hh"

#include <cerrno>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include <pthread.h>
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

void
workerSignalHandler(int)
{
    // Unwinds an in-flight run with Interrupted and ends the loop;
    // the latch is a lock-free atomic store, so this is signal-safe.
    requestBatchInterrupt();
}

/**
 * The protocol pipe's write side, shared by the main thread
 * (outcomes) and the heartbeat thread, which waits on it to stop.
 */
struct Channel
{
    int fd = -1;
    std::mutex mu; //!< one line at a time; guards `stop`
    std::condition_variable cv;
    bool stop = false;

    /** Write @p line and its newline; false on a dead pipe. */
    bool send(const std::string &line)
    {
        std::lock_guard<std::mutex> lock(mu);
        return writeAll(fd, line + "\n");
    }
};

/**
 * The next @p want message on stdin; other lines are dropped with a
 * warning. Nullopt at EOF (the coordinator closed the pipe or died)
 * or once the interrupt latch is up: the signal handlers are
 * installed without SA_RESTART, so a signal ends a blocked read.
 */
std::optional<ProtoMessage>
nextMessage(std::string &buf, ProtoMessage::Type want)
{
    for (;;) {
        if (batchInterrupted())
            return std::nullopt;
        std::size_t nl = buf.find('\n');
        if (nl == std::string::npos) {
            char chunk[4096];
            ssize_t n = ::read(STDIN_FILENO, chunk, sizeof(chunk));
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return std::nullopt;
            buf.append(chunk, static_cast<std::size_t>(n));
            continue;
        }
        std::string line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        if (line.empty())
            continue;
        Expected<ProtoMessage> msg = parseProtoLine(line);
        if (msg.ok() && msg.value().type == want)
            return std::move(msg.value());
        ipref_warn("worker: dropping protocol line: %s",
                   msg.ok() ? "unexpected message type"
                            : msg.error().what());
    }
}

/**
 * The heartbeat thread, for this object's lifetime: one liveness line
 * per period on the channel. A failed write means the coordinator is
 * gone, so it raises the interrupt latch: the run in flight unwinds
 * and the main loop ends. The thread blocks SIGINT and SIGTERM, so
 * they land on the main thread, the one whose read they must
 * interrupt.
 */
class Heartbeat
{
  public:
    Heartbeat(Channel &ch, std::uint64_t periodMs) : ch_(ch)
    {
        sigset_t sigs, old;
        sigemptyset(&sigs);
        sigaddset(&sigs, SIGINT);
        sigaddset(&sigs, SIGTERM);
        ::pthread_sigmask(SIG_BLOCK, &sigs, &old);
        thread_ = std::thread([this, periodMs] { beat(periodMs); });
        ::pthread_sigmask(SIG_SETMASK, &old, nullptr);
    }

    ~Heartbeat()
    {
        {
            std::lock_guard<std::mutex> lock(ch_.mu);
            ch_.stop = true;
        }
        ch_.cv.notify_all();
        thread_.join();
    }

    Heartbeat(const Heartbeat &) = delete;
    Heartbeat &operator=(const Heartbeat &) = delete;

  private:
    void beat(std::uint64_t periodMs)
    {
        metrics::Counter &instrs = metrics::registry().counter(
            "ipref_sim_instructions_total");
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(ch_.mu);
                if (ch_.cv.wait_for(lock,
                                    std::chrono::milliseconds(periodMs),
                                    [&] { return ch_.stop; }))
                    return;
            }
            if (fault::shouldFire("worker.heartbeat_stall"))
                return; // beats stop; the coordinator must notice
            if (!ch_.send(heartbeatLine(instrs.value()))) {
                requestBatchInterrupt();
                return;
            }
        }
    }

    Channel &ch_;
    std::thread thread_;
};

/**
 * The request/reply loop: read one `run` at a time, run it and write
 * its outcome, until stdin ends, a signal arrives or the pipe dies.
 */
void
serveRuns(Channel &ch, std::string &inbuf, const BatchOptions &runOpts)
{
    while (std::optional<ProtoMessage> run =
               nextMessage(inbuf, ProtoMessage::Type::Run)) {
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
        if (fingerprintSpec(run->spec) != run->fingerprint) {
            // Serialization drift between coordinator and worker
            // builds: refuse loudly instead of checkpointing results
            // under a key the coordinator did not dispatch.
            outcome.status = RunStatus::Failed;
            outcome.errorKind = SimError::Kind::Invariant;
            outcome.error = "worker: spec fingerprint mismatch "
                            "(coordinator/worker build drift?)";
            outcome.attempts = run->priorAttempts + 1;
        } else {
            outcome = runIsolated(run->spec, runOpts, run->priorAttempts);
        }

        std::string line = outcomeLine(run->id, run->fingerprint, outcome);
        if (fault::shouldFire("worker.truncate_outcome")) {
            // Protocol-truncation chaos: half a line, then vanish.
            std::lock_guard<std::mutex> lock(ch.mu);
            writeAll(ch.fd,
                     std::string_view(line).substr(0, line.size() / 2));
            ::_exit(3);
        }
        if (!ch.send(line))
            break; // coordinator gone
    }
}

} // namespace

void
workerMain(const Options &)
{
    // The fault schedule's /spawnS filter reads the ordinal; refuse a
    // malformed one before any run.
    if (const char *s = std::getenv("IPREF_WORKER_SPAWN")) {
        auto v = readUint(s);
        valueOrThrow(v && *v <= UINT_MAX ? v : std::nullopt,
                     "IPREF_WORKER_SPAWN", s);
    }

    // The protocol owns stdout. Re-route fd 1 to stderr so any stray
    // printf from library code lands in the log, not the stream.
    Channel ch;
    ch.fd = ::dup(STDOUT_FILENO);
    if (ch.fd < 0)
        ::_exit(3);
    ::dup2(STDERR_FILENO, STDOUT_FILENO);

    std::signal(SIGPIPE, SIG_IGN);
    struct sigaction sa = {};
    sa.sa_handler = workerSignalHandler; // no SA_RESTART (nextMessage)
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);

    std::string inbuf;
    std::optional<ProtoMessage> config;
    if (ch.send(helloLine()))
        config = nextMessage(inbuf, ProtoMessage::Type::Config);
    if (!config)
        std::exit(0);
    const WorkerConfig &cfg = config->config;

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

    {
        Heartbeat heartbeat(ch, cfg.heartbeatMs);
        serveRuns(ch, inbuf, runOpts);
    }
    std::exit(0);
}

} // namespace ipref
