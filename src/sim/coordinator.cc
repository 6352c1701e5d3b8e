#include "sim/coordinator.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sim/campaign_proto.hh"
#include "util/fault_inject.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

extern char **environ;

namespace ipref
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Campaign-level fleet telemetry (ipref_top renders these). */
struct CampMetricRefs
{
    metrics::Counter &spawns;
    metrics::Counter &deaths;
    metrics::Counter &requeues;
    metrics::Counter &quarantined;
    metrics::Counter &dispatches;
    metrics::Counter &heartbeats;
    metrics::Counter &protoErrors;
    metrics::Gauge &workersAlive;
};

CampMetricRefs &
campMetrics()
{
    static CampMetricRefs refs{
        metrics::registry().counter(
            "ipref_campaign_worker_spawns_total",
            "worker processes spawned (incl. respawns)"),
        metrics::registry().counter(
            "ipref_campaign_worker_deaths_total",
            "workers that died or were killed by the coordinator"),
        metrics::registry().counter(
            "ipref_campaign_requeues_total",
            "in-flight specs requeued after a worker death"),
        metrics::registry().counter(
            "ipref_campaign_quarantined_total",
            "specs quarantined after repeated worker deaths"),
        metrics::registry().counter(
            "ipref_campaign_dispatches_total",
            "run messages sent to workers"),
        metrics::registry().counter(
            "ipref_campaign_heartbeats_total",
            "heartbeat messages received"),
        metrics::registry().counter(
            "ipref_campaign_protocol_errors_total",
            "undecodable or unexpected protocol lines"),
        metrics::registry().gauge("ipref_campaign_workers_alive",
                                  "live worker processes"),
    };
    return refs;
}

/** Campaign signal latch (async-signal-safe: flag only). */
volatile std::sig_atomic_t g_campaignSignal = 0;

void
campaignSignalHandler(int)
{
    g_campaignSignal = 1;
}

/** Full write with EINTR retry; false on a dead pipe. */
bool
writeAll(int fd, const std::string &data)
{
    const char *p = data.data();
    std::size_t len = data.size();
    while (len > 0) {
        ssize_t n = ::write(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

std::string
selfExePath()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "";
    buf[n] = '\0';
    return buf;
}

/** One fleet slot; respawns reuse the slot with a fresh ordinal. */
struct WorkerProc
{
    pid_t pid = -1;
    int toFd = -1;   //!< coordinator -> worker
    int fromFd = -1; //!< worker -> coordinator
    unsigned spawn = 0;
    std::string rbuf;
    std::int64_t runningIdx = -1; //!< dispatched spec index, -1 idle
    Clock::time_point lastBeat;
    std::uint64_t lastInstrs = 0;
    bool helloSeen = false;
    bool shutdownSent = false;
    bool abortSent = false;
    bool byeSeen = false;

    bool alive() const { return pid > 0; }
};

/** A requeued spec waiting out its backoff. */
struct Delayed
{
    std::size_t idx;
    Clock::time_point eligibleAt;
};

/** The whole in-flight campaign; one per runCampaign call. */
class Coordinator
{
  public:
    Coordinator(const std::vector<RunSpec> &specs,
                const CampaignOptions &opt)
        : specs_(specs), opt_(opt),
          workers_(std::max(1u, opt.workers)), ledger_(opt.batch)
    {}

    std::vector<RunOutcome> run();

  private:
    void spawnWorker(std::size_t slot);
    void dispatch();
    void pump(int timeoutMs);
    void handleLine(std::size_t slot, const std::string &line);
    void handleOutcome(std::size_t slot, ProtoMessage &m);
    void handleWorkerDeath(std::size_t slot, const char *why);
    void checkDeadlines();
    void reapExited();
    void beginDrain();
    void finalize(std::size_t idx, RunOutcome outcome);
    void requeueAfterDeath(std::size_t idx, const char *why);
    void closeWorker(WorkerProc &w);
    void shutdownFleet();

    const std::vector<RunSpec> &specs_;
    const CampaignOptions &opt_;
    std::vector<WorkerProc> fleet_;
    unsigned workers_;
    unsigned spawnOrdinal_ = 0;
    unsigned respawnBudget_ = 0;
    std::string workerBin_;

    std::vector<std::uint64_t> fingerprints_;
    std::vector<RunOutcome> outcomes_;
    std::vector<bool> finalized_;
    std::vector<unsigned> priorAttempts_; //!< consumed before dispatch
    std::vector<unsigned> deathCount_;    //!< worker deaths on spec
    std::deque<std::size_t> pending_;
    std::vector<Delayed> delayed_;
    std::size_t remaining_ = 0;

    CampaignLedger ledger_;
    bool draining_ = false;
    Clock::time_point drainDeadline_;
    bool exitAtNextRecord_ = false; //!< coord.exit_after_death fired
};

void
Coordinator::spawnWorker(std::size_t slot)
{
    WorkerProc &w = fleet_[slot];
    unsigned spawn = spawnOrdinal_++;

    int toPipe[2] = {-1, -1};
    int fromPipe[2] = {-1, -1};
    if (::pipe2(toPipe, O_CLOEXEC) != 0 ||
        ::pipe2(fromPipe, O_CLOEXEC) != 0) {
        if (toPipe[0] >= 0) {
            ::close(toPipe[0]);
            ::close(toPipe[1]);
        }
        throw SimError(SimError::Kind::Io,
                       std::string("campaign: pipe2 failed: ") +
                           std::strerror(errno),
                       isTransientErrno(errno));
    }

    // argv / envp are fully built before fork(): the child must not
    // allocate between fork and exec (the coordinator may be
    // multithreaded via the metrics sampler).
    std::vector<std::string> argStore;
    argStore.push_back(workerBin_);
    argStore.push_back("--worker-mode");
    if (!opt_.workerMetricsPrefix.empty()) {
        argStore.push_back("--worker-metrics-out");
        argStore.push_back(opt_.workerMetricsPrefix + ".w" +
                           std::to_string(spawn) + ".jsonl");
        argStore.push_back("--worker-metrics-interval-ms");
        argStore.push_back(
            std::to_string(opt_.workerMetricsIntervalMs));
    }
    std::vector<char *> argv;
    for (std::string &a : argStore)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    std::vector<std::string> envStore;
    for (char **e = environ; *e; ++e) {
        // The worker gets its own fault schedule (or none): the
        // coordinator's must not leak into it.
        if (std::strncmp(*e, "IPREF_WORKER_SPAWN=", 19) == 0 ||
            std::strncmp(*e, "IPREF_FAULTS=", 13) == 0)
            continue;
        envStore.push_back(*e);
    }
    envStore.push_back("IPREF_WORKER_SPAWN=" + std::to_string(spawn));
    if (!opt_.workerFaults.empty())
        envStore.push_back("IPREF_FAULTS=" + opt_.workerFaults);
    std::vector<char *> envp;
    for (std::string &e : envStore)
        envp.push_back(e.data());
    envp.push_back(nullptr);

    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(toPipe[0]);
        ::close(toPipe[1]);
        ::close(fromPipe[0]);
        ::close(fromPipe[1]);
        throw SimError(SimError::Kind::Io,
                       std::string("campaign: fork failed: ") +
                           std::strerror(errno),
                       isTransientErrno(errno));
    }
    if (pid == 0) {
        // Child: protocol on stdin/stdout, then exec. Only
        // async-signal-safe calls from here to execve.
        ::dup2(toPipe[0], STDIN_FILENO);
        ::dup2(fromPipe[1], STDOUT_FILENO);
        ::execve(workerBin_.c_str(), argv.data(), envp.data());
        ::_exit(127);
    }

    ::close(toPipe[0]);
    ::close(fromPipe[1]);
    int flags = ::fcntl(fromPipe[0], F_GETFL, 0);
    ::fcntl(fromPipe[0], F_SETFL, flags | O_NONBLOCK);

    w = WorkerProc{};
    w.pid = pid;
    w.toFd = toPipe[1];
    w.fromFd = fromPipe[0];
    w.spawn = spawn;
    w.lastBeat = Clock::now(); // startup grace = heartbeat timeout

    WorkerConfig cfg;
    cfg.wantReport = !observability().jsonPath.empty() ||
                     observability().forceReports;
    cfg.intervalInstrs = observability().intervalInstrs;
    cfg.traceCapacity = observability().traceCapacity;
    cfg.profileSites = observability().profileSites;
    cfg.maxAttempts =
        opt_.batch.maxAttempts ? opt_.batch.maxAttempts : 1;
    cfg.retryBaseMs = opt_.batch.retryBaseMs;
    cfg.retryCapMs = opt_.batch.retryCapMs;
    cfg.runTimeoutMs = opt_.batch.runTimeoutMs;
    cfg.heartbeatMs = opt_.heartbeatMs;
    if (!writeAll(w.toFd, configLine(cfg) + "\n")) {
        handleWorkerDeath(slot, "died before config");
        return;
    }

    campMetrics().spawns.add(1);
    campMetrics().workersAlive.add(1);
}

void
Coordinator::closeWorker(WorkerProc &w)
{
    if (w.toFd >= 0)
        ::close(w.toFd);
    if (w.fromFd >= 0)
        ::close(w.fromFd);
    w.toFd = w.fromFd = -1;
    w.pid = -1;
}

void
Coordinator::finalize(std::size_t idx, RunOutcome outcome)
{
    if (finalized_[idx])
        return;
    outcomes_[idx] = std::move(outcome);
    finalized_[idx] = true;
    --remaining_;

    CampaignLedger::countFinal(outcomes_[idx].status);
    ledger_.record(fingerprints_[idx], outcomes_[idx]);
    // Chaos hook: the coordinator dies right after persisting an
    // outcome — the worst moment short of mid-rename (which the
    // temp+rename write already makes atomic).
    if (!opt_.batch.manifestPath.empty() &&
        (exitAtNextRecord_ || fault::shouldFire("coord.exit_record")))
        ::_exit(137);
}

void
Coordinator::requeueAfterDeath(std::size_t idx, const char *why)
{
    priorAttempts_[idx] += 1; // the attempt the dead worker consumed
    deathCount_[idx] += 1;

    unsigned maxAttempts =
        opt_.batch.maxAttempts ? opt_.batch.maxAttempts : 1;

    if (opt_.quarantineAfter > 0 &&
        deathCount_[idx] >= opt_.quarantineAfter) {
        RunOutcome o;
        o.status = RunStatus::Quarantined;
        o.errorKind = SimError::Kind::Invariant;
        o.error = std::string("quarantined after ") +
                  std::to_string(deathCount_[idx]) +
                  " worker deaths on this spec (last: " + why + ")";
        o.attempts = priorAttempts_[idx];
        ipref_warn("campaign: quarantining spec %zu (%s)", idx, why);
        campMetrics().quarantined.add(1);
        finalize(idx, std::move(o));
        return;
    }
    if (priorAttempts_[idx] >= maxAttempts) {
        RunOutcome o;
        o.status = RunStatus::Failed;
        o.errorKind = SimError::Kind::Io;
        o.error = std::string("worker died while running spec (") +
                  why + "); attempt budget exhausted";
        o.attempts = priorAttempts_[idx];
        finalize(idx, std::move(o));
        return;
    }
    campMetrics().requeues.add(1);
    Delayed d;
    d.idx = idx;
    d.eligibleAt = Clock::now() +
                   std::chrono::milliseconds(CampaignLedger::backoffMs(
                       opt_.batch, fingerprints_[idx],
                       priorAttempts_[idx]));
    delayed_.push_back(d);
}

void
Coordinator::handleWorkerDeath(std::size_t slot, const char *why)
{
    WorkerProc &w = fleet_[slot];
    if (!w.alive())
        return;
    pid_t pid = w.pid;
    std::int64_t inFlight = w.runningIdx;
    closeWorker(w);

    // Reap without blocking forever: the process is either already a
    // zombie (crash/EOF) or was just SIGKILLed by a deadline check.
    int status = 0;
    for (int i = 0; i < 500; ++i) {
        pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid || (r < 0 && errno == ECHILD))
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    campMetrics().deaths.add(1);
    campMetrics().workersAlive.sub(1);
    ipref_warn("campaign: worker spawn %u (pid %d) died (%s)%s",
               w.spawn, static_cast<int>(pid), why,
               inFlight >= 0 ? "; requeueing its spec" : "");
    // Chaos hook: arm the coordinator's own death for the next
    // outcome it records. Counted in worker deaths rather than
    // outcomes, it lands after the worker faults it is scheduled
    // behind however fast the host runs specs.
    if (fault::shouldFire("coord.exit_after_death"))
        exitAtNextRecord_ = true;

    if (inFlight >= 0) {
        std::size_t idx = static_cast<std::size_t>(inFlight);
        if (draining_) {
            RunOutcome o;
            o.status = RunStatus::Interrupted;
            o.errorKind = SimError::Kind::Interrupted;
            o.error = "campaign draining; worker terminated";
            o.attempts = priorAttempts_[idx] + 1;
            finalize(idx, std::move(o));
        } else {
            requeueAfterDeath(idx, why);
        }
    }

    // Respawn into this slot while there is (or may become) work and
    // budget. Dying before hello repeatedly burns the budget, so a
    // totally broken worker binary cannot respawn-loop forever.
    bool workLeft = !pending_.empty() || !delayed_.empty();
    if (!draining_ && workLeft && respawnBudget_ > 0) {
        --respawnBudget_;
        spawnWorker(slot);
    }
}

void
Coordinator::handleOutcome(std::size_t slot, ProtoMessage &m)
{
    WorkerProc &w = fleet_[slot];
    if (m.id < 0 || m.id != w.runningIdx ||
        static_cast<std::size_t>(m.id) >= specs_.size() ||
        m.fingerprint != fingerprints_[static_cast<std::size_t>(
            m.id)]) {
        campMetrics().protoErrors.add(1);
        ipref_warn("campaign: dropping unexpected outcome (id %lld "
                   "from spawn %u)",
                   static_cast<long long>(m.id), w.spawn);
        return;
    }
    std::size_t idx = static_cast<std::size_t>(m.id);
    w.runningIdx = -1;
    w.lastBeat = Clock::now();

    BatchMetrics &bm = batchMetrics();
    unsigned consumed =
        m.outcome.attempts > priorAttempts_[idx]
            ? m.outcome.attempts - priorAttempts_[idx]
            : 1;
    bm.attempts.add(consumed);
    if (consumed > 1)
        bm.retries.add(consumed - 1);
    bm.wallMs.observe(static_cast<double>(m.outcome.wallMs));

    finalize(idx, std::move(m.outcome));
}

void
Coordinator::handleLine(std::size_t slot, const std::string &line)
{
    WorkerProc &w = fleet_[slot];
    Expected<ProtoMessage> msg = parseProtoLine(line);
    if (!msg.ok()) {
        campMetrics().protoErrors.add(1);
        ipref_warn("campaign: bad line from worker spawn %u: %s",
                   w.spawn, msg.error().what());
        return;
    }
    ProtoMessage &m = msg.value();
    switch (m.type) {
      case ProtoMessage::Type::Hello:
        w.helloSeen = true;
        w.lastBeat = Clock::now();
        break;
      case ProtoMessage::Type::Heartbeat: {
        w.lastBeat = Clock::now();
        campMetrics().heartbeats.add(1);
        // Fold worker progress into the process-wide instruction
        // counter and a per-slot gauge so ipref_top sees the fleet
        // even without per-worker metrics files.
        if (m.instrs >= w.lastInstrs) {
            metrics::registry()
                .counter("ipref_sim_instructions_total")
                .add(m.instrs - w.lastInstrs);
            w.lastInstrs = m.instrs;
        }
        metrics::registry()
            .gauge("ipref_campaign_worker" + std::to_string(slot) +
                   "_instrs")
            .set(static_cast<std::int64_t>(m.instrs));
        break;
      }
      case ProtoMessage::Type::Outcome:
        handleOutcome(slot, m);
        break;
      case ProtoMessage::Type::Bye:
        w.byeSeen = true;
        break;
      default:
        campMetrics().protoErrors.add(1);
        break;
    }
}

void
Coordinator::dispatch()
{
    if (draining_)
        return;

    // Promote requeued specs whose backoff has elapsed.
    auto now = Clock::now();
    for (std::size_t i = 0; i < delayed_.size();) {
        if (delayed_[i].eligibleAt <= now) {
            pending_.push_back(delayed_[i].idx);
            delayed_[i] = delayed_.back();
            delayed_.pop_back();
        } else {
            ++i;
        }
    }

    bool anyAlive = false;
    for (std::size_t slot = 0; slot < fleet_.size(); ++slot) {
        WorkerProc &w = fleet_[slot];
        if (!w.alive())
            continue;
        anyAlive = true;
        if (!w.helloSeen || w.runningIdx >= 0)
            continue;
        if (pending_.empty()) {
            // Nothing now — and nothing in backoff either means this
            // worker is done for good.
            if (delayed_.empty() && !w.shutdownSent) {
                if (writeAll(w.toFd, shutdownLine() + "\n"))
                    w.shutdownSent = true;
                else
                    handleWorkerDeath(slot, "pipe closed");
            }
            continue;
        }
        std::size_t idx = pending_.front();
        pending_.pop_front();
        std::string line =
            runLine(static_cast<std::int64_t>(idx),
                    fingerprints_[idx], priorAttempts_[idx],
                    specs_[idx]) +
            "\n";
        w.runningIdx = static_cast<std::int64_t>(idx);
        batchMetrics().started.add(1);
        campMetrics().dispatches.add(1);
        if (!writeAll(w.toFd, line))
            handleWorkerDeath(slot, "pipe closed on dispatch");
    }

    // Every worker dead with work still queued: respawn if we can,
    // else fail the queue rather than spinning forever.
    if (!anyAlive && (!pending_.empty() || !delayed_.empty())) {
        if (respawnBudget_ > 0) {
            --respawnBudget_;
            spawnWorker(0);
            return;
        }
        while (!delayed_.empty()) {
            pending_.push_back(delayed_.back().idx);
            delayed_.pop_back();
        }
        while (!pending_.empty()) {
            std::size_t idx = pending_.front();
            pending_.pop_front();
            RunOutcome o;
            o.status = RunStatus::Failed;
            o.errorKind = SimError::Kind::Io;
            o.error = "campaign: no workers left (respawn budget "
                      "exhausted)";
            o.attempts = priorAttempts_[idx];
            finalize(idx, std::move(o));
        }
    }
}

void
Coordinator::pump(int timeoutMs)
{
    std::vector<pollfd> fds;
    std::vector<std::size_t> slots;
    for (std::size_t slot = 0; slot < fleet_.size(); ++slot) {
        if (!fleet_[slot].alive())
            continue;
        pollfd p{};
        p.fd = fleet_[slot].fromFd;
        p.events = POLLIN;
        fds.push_back(p);
        slots.push_back(slot);
    }
    if (fds.empty()) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(timeoutMs));
        return;
    }
    int n = ::poll(fds.data(), fds.size(), timeoutMs);
    if (n <= 0)
        return;

    for (std::size_t i = 0; i < fds.size(); ++i) {
        if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
            continue;
        std::size_t slot = slots[i];
        WorkerProc &w = fleet_[slot];
        if (!w.alive())
            continue; // a death handler ran earlier this pass
        bool eof = false;
        char chunk[8192];
        for (;;) {
            ssize_t r = ::read(w.fromFd, chunk, sizeof(chunk));
            if (r > 0) {
                w.rbuf.append(chunk,
                              static_cast<std::size_t>(r));
                continue;
            }
            if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            if (r < 0 && errno == EINTR)
                continue;
            eof = true; // 0 = closed; other errors treated the same
            break;
        }
        std::size_t start = 0;
        for (;;) {
            std::size_t nl = w.rbuf.find('\n', start);
            if (nl == std::string::npos)
                break;
            std::string line = w.rbuf.substr(start, nl - start);
            start = nl + 1;
            if (!line.empty())
                handleLine(slot, line);
            if (!w.alive())
                break; // handleLine may have killed the slot
        }
        if (w.alive())
            w.rbuf.erase(0, start);
        if (eof && w.alive()) {
            if (!w.rbuf.empty()) {
                // A partial trailing line is a truncated message —
                // the worker died mid-write.
                campMetrics().protoErrors.add(1);
                ipref_warn("campaign: worker spawn %u left a "
                           "truncated protocol line (%zu bytes)",
                           w.spawn, w.rbuf.size());
            }
            if (w.byeSeen && w.runningIdx < 0) {
                // Clean exit after shutdown/abort: not a death.
                int status = 0;
                ::waitpid(w.pid, &status, 0);
                closeWorker(w);
                campMetrics().workersAlive.sub(1);
            } else {
                handleWorkerDeath(slot, "pipe EOF");
            }
        }
    }
}

void
Coordinator::reapExited()
{
    for (std::size_t slot = 0; slot < fleet_.size(); ++slot) {
        WorkerProc &w = fleet_[slot];
        if (!w.alive())
            continue;
        int status = 0;
        pid_t r = ::waitpid(w.pid, &status, WNOHANG);
        if (r != w.pid)
            continue;
        // Drain any outcome it managed to write before dying so a
        // completed run is not requeued (results are idempotent
        // anyway — same fingerprint — but attempts would inflate).
        char chunk[8192];
        for (;;) {
            ssize_t n = ::read(w.fromFd, chunk, sizeof(chunk));
            if (n <= 0)
                break;
            w.rbuf.append(chunk, static_cast<std::size_t>(n));
        }
        std::size_t start = 0;
        for (;;) {
            std::size_t nl = w.rbuf.find('\n', start);
            if (nl == std::string::npos)
                break;
            std::string line = w.rbuf.substr(start, nl - start);
            start = nl + 1;
            if (!line.empty())
                handleLine(slot, line);
        }
        w.pid = -1; // already reaped; death handler must not waitpid
        if (w.byeSeen && w.runningIdx < 0) {
            closeWorker(w);
            campMetrics().workersAlive.sub(1);
        } else {
            w.pid = r; // restore for logging; waitpid will ECHILD
            handleWorkerDeath(slot, WIFSIGNALED(status)
                                        ? "killed by signal"
                                        : "exited");
        }
    }
}

void
Coordinator::checkDeadlines()
{
    if (opt_.heartbeatMs == 0 || opt_.heartbeatTimeoutMs == 0)
        return;
    auto now = Clock::now();
    for (std::size_t slot = 0; slot < fleet_.size(); ++slot) {
        WorkerProc &w = fleet_[slot];
        if (!w.alive())
            continue;
        auto silent =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - w.lastBeat)
                .count();
        if (silent < 0 ||
            static_cast<std::uint64_t>(silent) <
                opt_.heartbeatTimeoutMs)
            continue;
        ipref_warn("campaign: worker spawn %u silent for %lld ms; "
                   "killing it",
                   w.spawn, static_cast<long long>(silent));
        ::kill(w.pid, SIGKILL);
        handleWorkerDeath(slot, "heartbeat deadline");
    }
}

void
Coordinator::beginDrain()
{
    if (draining_)
        return;
    draining_ = true;
    drainDeadline_ = Clock::now() + std::chrono::milliseconds(
                                        opt_.drainGraceMs);
    ipref_warn("campaign: interrupt received; draining %zu "
               "unfinished run(s)",
               remaining_);

    // Everything not yet dispatched is Interrupted immediately.
    while (!delayed_.empty()) {
        pending_.push_back(delayed_.back().idx);
        delayed_.pop_back();
    }
    while (!pending_.empty()) {
        std::size_t idx = pending_.front();
        pending_.pop_front();
        RunOutcome o;
        o.status = RunStatus::Interrupted;
        o.errorKind = SimError::Kind::Interrupted;
        o.error = "campaign interrupted before dispatch";
        o.attempts = priorAttempts_[idx];
        finalize(idx, std::move(o));
    }

    // In-flight runs get an abort: the worker interrupts the run and
    // reports an Interrupted outcome, then exits.
    for (std::size_t slot = 0; slot < fleet_.size(); ++slot) {
        WorkerProc &w = fleet_[slot];
        if (!w.alive() || w.abortSent)
            continue;
        if (writeAll(w.toFd, abortLine() + "\n"))
            w.abortSent = true;
        else
            handleWorkerDeath(slot, "pipe closed on abort");
    }
}

void
Coordinator::shutdownFleet()
{
    for (WorkerProc &w : fleet_) {
        if (w.alive() && !w.shutdownSent)
            writeAll(w.toFd, shutdownLine() + "\n");
    }
    auto deadline = Clock::now() + std::chrono::milliseconds(
                                       opt_.drainGraceMs);
    for (WorkerProc &w : fleet_) {
        if (!w.alive())
            continue;
        int status = 0;
        for (;;) {
            pid_t r = ::waitpid(w.pid, &status, WNOHANG);
            if (r == w.pid || (r < 0 && errno == ECHILD))
                break;
            if (Clock::now() >= deadline) {
                ::kill(w.pid, SIGKILL);
                ::waitpid(w.pid, &status, 0);
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
        closeWorker(w);
        campMetrics().workersAlive.sub(1);
    }
}

std::vector<RunOutcome>
Coordinator::run()
{
    fingerprints_.reserve(specs_.size());
    for (const RunSpec &spec : specs_)
        fingerprints_.push_back(fingerprintSpec(spec));
    outcomes_.resize(specs_.size());
    finalized_.assign(specs_.size(), false);
    priorAttempts_.assign(specs_.size(), 0);
    deathCount_.assign(specs_.size(), 0);

    batchMetrics().specs.add(specs_.size());

    // The ledger (locked, and loaded on resume, at construction)
    // restores Ok entries; the rest re-run with their lifetime
    // attempt counts. Quarantine death counters reset: a resume is a
    // fresh chance.
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        if (ledger_.restore(fingerprints_[i], outcomes_[i],
                            priorAttempts_[i]))
            finalized_[i] = true;
        else
            pending_.push_back(i);
    }
    remaining_ = pending_.size();

    if (remaining_ > 0) {
        workerBin_ =
            opt_.workerCmd.empty() ? findWorkerBinary() : opt_.workerCmd;
        if (workerBin_.empty())
            workerBin_ = selfExePath();
        if (workerBin_.empty())
            throw SimError(SimError::Kind::Config,
                           "campaign: no worker binary (set "
                           "IPREF_WORKER_BIN or "
                           "CampaignOptions::workerCmd)");

        respawnBudget_ = opt_.respawnLimit ? opt_.respawnLimit
                                           : workers_ * 4;
        fleet_.resize(workers_);

        g_campaignSignal = 0;
        auto prevInt = std::signal(SIGINT, campaignSignalHandler);
        auto prevTerm = std::signal(SIGTERM, campaignSignalHandler);
        auto prevPipe = std::signal(SIGPIPE, SIG_IGN);

        unsigned initial = static_cast<unsigned>(
            std::min<std::size_t>(workers_, remaining_));
        for (unsigned slot = 0; slot < initial; ++slot)
            spawnWorker(slot);

        while (remaining_ > 0) {
            if (g_campaignSignal)
                beginDrain();
            if (draining_ && Clock::now() >= drainDeadline_) {
                // Workers that did not drain in time are killed; the
                // death handler finalizes their specs Interrupted.
                for (std::size_t slot = 0; slot < fleet_.size();
                     ++slot) {
                    if (fleet_[slot].alive()) {
                        ::kill(fleet_[slot].pid, SIGKILL);
                        handleWorkerDeath(slot, "drain deadline");
                    }
                }
                continue;
            }
            dispatch();
            if (remaining_ == 0)
                break;
            pump(20);
            reapExited();
            checkDeadlines();
        }

        shutdownFleet();
        std::signal(SIGINT, prevInt);
        std::signal(SIGTERM, prevTerm);
        std::signal(SIGPIPE, prevPipe);
    }

    // Observability commits happen once, in input order, exactly as
    // runBatch does — so the flushed report array is byte-identical
    // to the single-process one.
    for (std::size_t i = 0; i < specs_.size(); ++i)
        commitOutcomeReport(fingerprints_[i], outcomes_[i]);
    return outcomes_;
}

} // namespace

std::string
findWorkerBinary()
{
    if (const char *env = std::getenv("IPREF_WORKER_BIN"))
        if (*env)
            return env;
    std::string exe = selfExePath();
    if (!exe.empty()) {
        std::size_t slash = exe.rfind('/');
        std::string dir =
            slash == std::string::npos ? "." : exe.substr(0, slash);
        for (const std::string &cand :
             {dir + "/ipref_worker", dir + "/../tools/ipref_worker"}) {
            if (::access(cand.c_str(), X_OK) == 0)
                return cand;
        }
    }
    return "";
}

std::vector<RunOutcome>
runCampaign(const std::vector<RunSpec> &specs,
            const CampaignOptions &opt)
{
    if (specs.empty())
        return {};
    Coordinator coordinator(specs, opt);
    return coordinator.run();
}

} // namespace ipref
