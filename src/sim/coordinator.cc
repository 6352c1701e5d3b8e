#include "sim/coordinator.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
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

/** Worker deaths on one spec before it is quarantined. */
constexpr unsigned kQuarantineAfter = 3;

/** Spawns per worker: the first one plus four respawns. */
constexpr std::size_t kSpawnsPerWorker = 5;

/** How long a worker may take to exit once told to, before SIGKILL. */
constexpr std::chrono::milliseconds kGrace{5000};

/** How often a waiting task looks at the interrupt latch. */
constexpr int kPollMs = 20;

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
    metrics::Counter &instructions;
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
        metrics::registry().counter("ipref_sim_instructions_total"),
        metrics::registry().gauge("ipref_campaign_workers_alive",
                                  "live worker processes"),
    };
    return refs;
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

/**
 * One live worker process, held by the fleet or by one task. Its
 * destructor reaps it.
 */
struct Worker
{
    Worker(pid_t p, int to, int from) : pid(p), toFd(to), fromFd(from)
    {
        campMetrics().spawns.add(1);
        campMetrics().workersAlive.add(1);
    }

    ~Worker();

    Worker(const Worker &) = delete;
    Worker &operator=(const Worker &) = delete;

    pid_t pid;
    int toFd;   //!< coordinator -> worker (-1 once closed)
    int fromFd; //!< worker -> coordinator (non-blocking)
    unsigned spawn = 0;
    std::size_t slot = 0;
    std::string rbuf;
    std::uint64_t lastInstrs = 0;
    /** ipref_campaign_worker<slot>_instrs: last heartbeat's count. */
    metrics::Gauge *instrsGauge = nullptr;
};

/** How a wait on a worker's pipe ended. */
struct Reply
{
    std::optional<RunOutcome> outcome; //!< the awaited outcome
    const char *death = nullptr;       //!< or why the worker is dead
};

/** Append what @p w's pipe holds to its buffer; true at EOF. */
bool
readPipe(Worker &w)
{
    char chunk[8192];
    for (;;) {
        ssize_t r = ::read(w.fromFd, chunk, sizeof(chunk));
        if (r > 0) {
            w.rbuf.append(chunk, static_cast<std::size_t>(r));
            continue;
        }
        if (r < 0 && errno == EINTR)
            continue;
        // 0 = closed; errors other than "nothing yet" count the same.
        return !(r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
    }
}

/**
 * Close the worker's stdin (an idle worker exits on it) and wait for
 * the process, draining its pipe meanwhile so a heartbeat write cannot
 * hold up its exit; SIGKILL it past the grace.
 */
Worker::~Worker()
{
    if (toFd >= 0)
        ::close(toFd);
    auto killAt = Clock::now() + kGrace;
    int status = 0;
    while (::waitpid(pid, &status, WNOHANG) == 0) {
        if (Clock::now() >= killAt) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            break;
        }
        pollfd p{};
        p.fd = fromFd;
        p.events = POLLIN;
        if (::poll(&p, 1, 5) > 0 && readPipe(*this))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        rbuf.clear();
    }
    ::close(fromFd);
    campMetrics().workersAlive.sub(1);
}

/** An outcome for a spec no worker finished. */
RunOutcome
unfinished(RunStatus status, SimError::Kind kind, std::string error,
           unsigned attempts)
{
    RunOutcome o;
    o.status = status;
    o.errorKind = kind;
    o.error = std::move(error);
    o.attempts = attempts;
    return o;
}

/**
 * The worker processes of one campaign: at most one per slot alive,
 * each leased to one task at a time. Tasks spawn workers on demand,
 * within kSpawnsPerWorker spawns per slot in all.
 */
class Fleet
{
  public:
    Fleet(const CampaignOptions &opt, std::string bin)
        : opt_(opt), bin_(std::move(bin)),
          slots_(std::max(1u, opt.workers), false),
          spawnsLeft_(slots_.size() * kSpawnsPerWorker)
    {}

    /**
     * Close every worker's stdin, so they exit side by side; idle_'s
     * destruction then reaps them. All are idle once the batch is done.
     */
    ~Fleet()
    {
        for (std::unique_ptr<Worker> &w : idle_) {
            ::close(w->toFd);
            w->toFd = -1;
        }
    }

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    /**
     * Run spec @p index on leased workers until its outcome is final:
     * a worker's outcome, or the verdict on the deaths it caused.
     */
    RunOutcome run(std::size_t index, const RunSpec &spec,
                   std::uint64_t fingerprint, unsigned priorAttempts);

  private:
    std::unique_ptr<Worker> lease(bool &noneLeft);
    std::unique_ptr<Worker> spawn(std::size_t slot, unsigned ordinal);
    Reply listen(Worker &w, std::int64_t id, std::uint64_t fingerprint);
    void giveBack(std::unique_ptr<Worker> w);
    void bury(std::unique_ptr<Worker> w, const char *why);
    void freeSlot(std::size_t slot);

    const CampaignOptions &opt_;
    const std::string bin_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<std::unique_ptr<Worker>> idle_;
    std::vector<bool> slots_; //!< true while the slot's worker lives
    std::size_t spawnsLeft_;
    unsigned nextSpawn_ = 0;
};

/**
 * An idle live worker, else a fresh spawn into a free slot while the
 * budget lasts, else wait for one. Null when the batch is interrupted,
 * or with @p noneLeft set when no worker lives and none may spawn.
 */
std::unique_ptr<Worker>
Fleet::lease(bool &noneLeft)
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!batchInterrupted()) {
        if (!idle_.empty()) {
            std::unique_ptr<Worker> w = std::move(idle_.back());
            idle_.pop_back();
            return w;
        }
        auto free = std::find(slots_.begin(), slots_.end(), false);
        if (free != slots_.end() && spawnsLeft_ > 0) {
            --spawnsLeft_;
            *free = true;
            auto slot = static_cast<std::size_t>(free - slots_.begin());
            unsigned ordinal = nextSpawn_++;
            lock.unlock();
            if (std::unique_ptr<Worker> w = spawn(slot, ordinal))
                return w;
            lock.lock(); // died before hello; the spawn is spent
            continue;
        }
        if (std::find(slots_.begin(), slots_.end(), true) ==
            slots_.end()) {
            noneLeft = true;
            return nullptr;
        }
        cv_.wait_for(lock, std::chrono::milliseconds(kPollMs));
    }
    return nullptr;
}

void
Fleet::giveBack(std::unique_ptr<Worker> w)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        idle_.push_back(std::move(w));
    }
    cv_.notify_one();
}

void
Fleet::freeSlot(std::size_t slot)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        slots_[slot] = false;
    }
    cv_.notify_all();
}

/**
 * Fork/exec a worker into @p slot and wait for its hello. Null when
 * it died first (counted as a death). Throws SimError(Io) when no
 * process can be made.
 */
std::unique_ptr<Worker>
Fleet::spawn(std::size_t slot, unsigned ordinal)
{
    // argv / envp are fully built before fork(): the child must not
    // allocate between fork and exec (other threads may hold the
    // allocator's locks).
    std::vector<std::string> argStore = {bin_, "--worker-mode"};
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
    envStore.push_back("IPREF_WORKER_SPAWN=" + std::to_string(ordinal));
    if (!opt_.workerFaults.empty())
        envStore.push_back("IPREF_FAULTS=" + opt_.workerFaults);
    std::vector<char *> envp;
    for (std::string &e : envStore)
        envp.push_back(e.data());
    envp.push_back(nullptr);

    // O_CLOEXEC: a worker spawned by another task at the same moment
    // must not inherit this one's pipe ends.
    int toPipe[2] = {-1, -1};
    int fromPipe[2] = {-1, -1};
    pid_t pid = -1;
    if (::pipe2(toPipe, O_CLOEXEC) == 0 &&
        ::pipe2(fromPipe, O_CLOEXEC) == 0)
        pid = ::fork();
    if (pid < 0) {
        int err = errno;
        for (int fd : {toPipe[0], toPipe[1], fromPipe[0], fromPipe[1]})
            if (fd >= 0)
                ::close(fd);
        freeSlot(slot);
        throw SimError(SimError::Kind::Io,
                       std::string("campaign: cannot spawn a worker: ") +
                           std::strerror(err),
                       isTransientErrno(err));
    }
    if (pid == 0) {
        // Child: protocol on stdin/stdout, then exec. Only
        // async-signal-safe calls from here to execve.
        ::dup2(toPipe[0], STDIN_FILENO);
        ::dup2(fromPipe[1], STDOUT_FILENO);
        ::execve(bin_.c_str(), argv.data(), envp.data());
        ::_exit(127);
    }

    ::close(toPipe[0]);
    ::close(fromPipe[1]);
    ::fcntl(fromPipe[0], F_SETFL,
            ::fcntl(fromPipe[0], F_GETFL, 0) | O_NONBLOCK);
    auto w = std::make_unique<Worker>(pid, toPipe[1], fromPipe[0]);
    w->spawn = ordinal;
    w->slot = slot;
    w->instrsGauge = &metrics::registry().gauge(
        "ipref_campaign_worker" + std::to_string(slot) + "_instrs");

    WorkerConfig cfg;
    cfg.wantReport = !observability().jsonPath.empty() ||
                     observability().forceReports;
    cfg.intervalInstrs = observability().intervalInstrs;
    cfg.traceCapacity = observability().traceCapacity;
    cfg.profileSites = observability().profileSites;
    cfg.maxAttempts = opt_.batch.maxAttempts ? opt_.batch.maxAttempts : 1;
    cfg.retryBaseMs = opt_.batch.retryBaseMs;
    cfg.retryCapMs = opt_.batch.retryCapMs;
    cfg.runTimeoutMs = opt_.batch.runTimeoutMs;
    cfg.heartbeatMs = opt_.heartbeatMs;
    // A write to a dead worker fails, and its pipe then reads EOF.
    writeAll(w->toFd, configLine(cfg) + "\n");
    Reply hello = listen(*w, -1, 0);
    if (hello.death) {
        bury(std::move(w), hello.death);
        return nullptr;
    }
    return w;
}

/**
 * Read @p w's pipe until the outcome of run @p id arrives (id < 0:
 * until its hello) or the worker is dead: pipe EOF, a truncated last
 * line, silence past the heartbeat deadline, or no answer within the
 * grace after the interrupt latch sent it an abort. A worker past a
 * deadline is SIGKILLed here.
 */
Reply
Fleet::listen(Worker &w, std::int64_t id, std::uint64_t fingerprint)
{
    Reply reply;
    auto lastBeat = Clock::now();
    std::optional<Clock::time_point> killAt; // set once abort is sent
    const auto silence = std::chrono::milliseconds(opt_.heartbeatTimeoutMs);
    const bool watchBeats = opt_.heartbeatMs > 0 && silence.count() > 0;
    bool hello = false;
    for (;;) {
        if (!killAt && batchInterrupted()) {
            killAt = Clock::now() + kGrace;
            writeAll(w.toFd, abortLine() + "\n");
        }
        auto now = Clock::now();
        if (killAt && now >= *killAt) {
            ::kill(w.pid, SIGKILL);
            reply.death = "drain deadline";
            return reply;
        }
        if (watchBeats && now - lastBeat >= silence) {
            ipref_warn("campaign: worker spawn %u silent for %lld ms; "
                       "killing it",
                       w.spawn, static_cast<long long>(silence.count()));
            ::kill(w.pid, SIGKILL);
            reply.death = "heartbeat deadline";
            return reply;
        }

        pollfd p{};
        p.fd = w.fromFd;
        p.events = POLLIN;
        if (::poll(&p, 1, kPollMs) <= 0)
            continue;
        bool eof = readPipe(w);
        for (const std::string &line : takeLines(w.rbuf)) {
            Expected<ProtoMessage> msg = parseProtoLine(line);
            if (!msg.ok()) {
                campMetrics().protoErrors.add(1);
                ipref_warn("campaign: bad line from worker spawn %u: %s",
                           w.spawn, msg.error().what());
                continue;
            }
            ProtoMessage &m = msg.value();
            switch (m.type) {
              case ProtoMessage::Type::Hello:
                hello = true;
                lastBeat = Clock::now();
                break;
              case ProtoMessage::Type::Heartbeat:
                lastBeat = Clock::now();
                campMetrics().heartbeats.add(1);
                // Fold worker progress into the process-wide
                // instruction counter and the slot's gauge: this
                // stream is the fleet view ipref_top renders.
                if (m.instrs >= w.lastInstrs) {
                    campMetrics().instructions.add(m.instrs -
                                                   w.lastInstrs);
                    w.lastInstrs = m.instrs;
                }
                w.instrsGauge->set(static_cast<std::int64_t>(m.instrs));
                break;
              case ProtoMessage::Type::Outcome:
                if (id >= 0 && m.id == id &&
                    m.fingerprint == fingerprint) {
                    reply.outcome = std::move(m.outcome);
                    break;
                }
                campMetrics().protoErrors.add(1);
                ipref_warn("campaign: dropping unexpected outcome (id "
                           "%lld from spawn %u)",
                           static_cast<long long>(m.id), w.spawn);
                break;
              case ProtoMessage::Type::Bye:
                break;
              default:
                campMetrics().protoErrors.add(1);
                break;
            }
        }
        if (reply.outcome || (id < 0 && hello))
            return reply;
        if (eof) {
            if (!w.rbuf.empty()) {
                // A partial trailing line is a truncated message:
                // the worker died mid-write.
                campMetrics().protoErrors.add(1);
                ipref_warn("campaign: worker spawn %u left a "
                           "truncated protocol line (%zu bytes)",
                           w.spawn, w.rbuf.size());
            }
            reply.death = "pipe EOF";
            return reply;
        }
    }
}

/** A worker died (or was killed): count it, reap it, free its slot. */
void
Fleet::bury(std::unique_ptr<Worker> w, const char *why)
{
    campMetrics().deaths.add(1);
    ipref_warn("campaign: worker spawn %u (pid %d) died (%s)", w->spawn,
               static_cast<int>(w->pid), why);
    // Chaos hook: arm the coordinator's own death for the next
    // outcome it records. Counted in worker deaths rather than
    // outcomes, it lands after the worker faults it is scheduled
    // behind however fast the host runs specs.
    if (fault::shouldFire("coord.exit_after_death"))
        fault::armNext("coord.exit_record");
    std::size_t slot = w->slot;
    w.reset();
    freeSlot(slot);
}

RunOutcome
Fleet::run(std::size_t index, const RunSpec &spec,
           std::uint64_t fingerprint, unsigned priorAttempts)
{
    const unsigned maxAttempts =
        opt_.batch.maxAttempts ? opt_.batch.maxAttempts : 1;
    const auto id = static_cast<std::int64_t>(index);
    unsigned deaths = 0;
    for (;;) {
        bool noneLeft = false;
        std::unique_ptr<Worker> w = lease(noneLeft);
        if (w && batchInterrupted())
            giveBack(std::move(w));
        if (!w && noneLeft)
            return unfinished(RunStatus::Failed, SimError::Kind::Io,
                              "campaign: no workers left (respawn "
                              "budget exhausted)",
                              priorAttempts);
        if (!w)
            return unfinished(RunStatus::Interrupted,
                              SimError::Kind::Interrupted,
                              "campaign interrupted before dispatch",
                              priorAttempts);

        batchMetrics().started.add(1);
        campMetrics().dispatches.add(1);
        writeAll(w->toFd,
                 runLine(id, fingerprint, priorAttempts, spec) + "\n");
        Reply reply = listen(*w, id, fingerprint);
        if (reply.outcome) {
            giveBack(std::move(w));
            unsigned consumed = reply.outcome->attempts > priorAttempts
                                    ? reply.outcome->attempts -
                                          priorAttempts
                                    : 1;
            BatchMetrics &bm = batchMetrics();
            bm.attempts.add(consumed);
            if (consumed > 1)
                bm.retries.add(consumed - 1);
            return std::move(*reply.outcome);
        }

        // The dead worker consumed the attempt it was running.
        bury(std::move(w), reply.death);
        ++priorAttempts;
        ++deaths;
        if (batchInterrupted())
            return unfinished(RunStatus::Interrupted,
                              SimError::Kind::Interrupted,
                              "campaign draining; worker terminated",
                              priorAttempts);
        if (deaths >= kQuarantineAfter) {
            ipref_warn("campaign: quarantining spec %zu (%s)", index,
                       reply.death);
            campMetrics().quarantined.add(1);
            return unfinished(
                RunStatus::Quarantined, SimError::Kind::Invariant,
                "quarantined after " + std::to_string(deaths) +
                    " worker deaths on this spec (last: " + reply.death +
                    ")",
                priorAttempts);
        }
        if (priorAttempts >= maxAttempts)
            return unfinished(RunStatus::Failed, SimError::Kind::Io,
                              std::string("worker died while running "
                                          "spec (") +
                                  reply.death +
                                  "); attempt budget exhausted",
                              priorAttempts);

        // Redispatch after the same backoff an in-process retry waits.
        campMetrics().requeues.add(1);
        auto until = Clock::now() +
                     std::chrono::milliseconds(CampaignLedger::backoffMs(
                         opt_.batch, fingerprint, priorAttempts));
        while (!batchInterrupted() && Clock::now() < until)
            std::this_thread::sleep_for(std::min<Clock::duration>(
                std::chrono::milliseconds(kPollMs),
                until - Clock::now()));
    }
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
    std::string bin =
        opt.workerCmd.empty() ? findWorkerBinary() : opt.workerCmd;
    if (bin.empty())
        bin = selfExePath();
    if (bin.empty())
        throw SimError(SimError::Kind::Config,
                       "campaign: no worker binary (set "
                       "IPREF_WORKER_BIN or CampaignOptions::workerCmd)");

    // The fleet outlives the driver: once every task is done, all its
    // workers are idle and its destructor reaps them.
    Fleet fleet(opt, bin);
    return driveBatch(specs, opt.batch, std::max(1u, opt.workers),
                      [&](std::size_t i, std::uint64_t fingerprint,
                          unsigned prior) {
                          return fleet.run(i, specs[i], fingerprint,
                                           prior);
                      });
}

} // namespace ipref
