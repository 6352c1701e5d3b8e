/**
 * @file
 * perfbench_harness — runs one benchmark workload and writes what it
 * measured as JSON. perfbench/run.py builds and starts it:
 *
 *   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
 *                     --dir DIR [--git-sha SHA]
 *
 * Order of work: set-up (repeated, median reported), untraced passes
 * until S seconds have elapsed, the first of which gives each spec the
 * SimResults every later pass must reproduce, then with --trace 1 a
 * separate traced pass. Writes DIR/result.json, plus DIR/spans.jsonl when
 * traced. The harness is also its own campaign worker (--worker-mode).
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "grids.hh"
#include "outside_in.hh"
#include "sim/campaign.hh"
#include "sim/coordinator.hh"
#include "sim/worker.hh"
#include "spans.hh"
#include "trace/trace_cache.hh"
#include "util/json.hh"
#include "util/metrics.hh"
#include "util/options.hh"
#include "util/trace_event.hh"

using namespace ipref;
using namespace perfbench;

namespace
{

/**
 * Set-up repetitions per run; set-up time is their median. The first
 * precedes every spec; one follows each measured pass, so one slow
 * stretch of the host does not skew them all, and any still missing
 * follow the last measured pass.
 */
constexpr std::size_t kSetupReps = 9;

/** Untraced passes per run at least, however short --seconds is. */
constexpr std::size_t kMinPasses = 3;

std::string
num(double v)
{
    std::ostringstream os;
    os << std::setprecision(17) << (std::isfinite(v) ? v : 0.0);
    return os.str();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

std::string
selfExe()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "";
    buf[n] = '\0';
    return buf;
}

std::uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    std::uintmax_t n = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
}

/** FNV-1a over the exact counter serialization of @p r. */
std::string
digest(const SimResults &r)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : resultsToJson(r)) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << h;
    return os.str();
}

/**
 * Counts runs and failures. The first successful result of each spec
 * is its reference; every later result of the spec, from any pass,
 * must reproduce it bit for bit.
 */
class Checker
{
  public:
    explicit Checker(const Grid &g)
        : grid_(g), digests_(g.specs.size()), first_(g.specs.size())
    {}

    void
    outcome(std::size_t i, const RunOutcome &o, const char *pass)
    {
        if (!o.ok()) {
            ++attempted_;
            fail(i, pass, std::string(runStatusName(o.status)) + ": " +
                              o.error);
            return;
        }
        result(i, o.results, pass);
    }

    void
    result(std::size_t i, const SimResults &r, const char *pass)
    {
        ++attempted_;
        std::string d = digest(r);
        if (digests_[i].empty()) {
            digests_[i] = d;
            first_[i] = r;
        } else if (d != digests_[i]) {
            fail(i, pass, "SimResults differ from the first pass");
        }
    }

    void
    fail(std::size_t i, const char *pass, const std::string &why)
    {
        ++failed_;
        if (messages_.size() < 20)
            messages_.push_back(std::string(pass) + " " +
                                grid_.labels[i] + ": " + why);
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &messages() const { return messages_; }
    const std::vector<std::string> &digests() const { return digests_; }
    /** First-pass results (all-zero for specs that never ran). */
    const std::vector<SimResults> &results() const { return first_; }

  private:
    const Grid &grid_;
    std::vector<std::string> digests_;
    std::vector<SimResults> first_;
    std::vector<std::string> messages_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

struct Pass
{
    double wallSeconds = 0.0;
    std::vector<double> runSeconds; //!< RunOutcome::wallMs, per spec
};

/**
 * One untraced pass of @p g on @p slots pool threads or workers. The
 * wall time runs from submitting the first spec to collecting the
 * last outcome. A campaign pass then writes its JSON report; with a
 * span log, the campaign's two calls are logged under a "pass" root.
 */
Pass
runPass(const Grid &g, unsigned slots, const std::string &dir,
        Checker &check, const char *name, SpanLog *log = nullptr)
{
    std::vector<RunOutcome> outcomes;
    Pass p;
    if (g.runner == Runner::Campaign) {
        // A fresh report sink per pass, so the flushed file holds one
        // pass's reports.
        ObservabilityOptions obs;
        obs.jsonPath = dir + "/stats.json";
        setObservability(obs);
        CampaignOptions c;
        c.batch.maxAttempts = 1;
        c.batch.manifestPath = dir + "/manifest.json";
        c.workers = slots;
        c.workerCmd = selfExe();
        int root = log ? log->open("pass", SpanLog::noParent) : 0;
        int coord = log ? log->open("sim.coordinator", root) : 0;
        std::int64_t t0 = nowNs();
        outcomes = runCampaign(g.specs, c);
        p.wallSeconds = static_cast<double>(nowNs() - t0) * 1e-9;
        if (log) {
            log->close(coord);
            int flush = log->open("sim.report_flush", root);
            flushObservability();
            log->close(flush);
            log->close(root);
        } else {
            flushObservability();
        }
    } else {
        BatchOptions b;
        b.jobs = slots;
        b.maxAttempts = 1;
        std::int64_t t0 = nowNs();
        outcomes = runBatch(g.specs, b);
        p.wallSeconds = static_cast<double>(nowNs() - t0) * 1e-9;
    }
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        p.runSeconds.push_back(static_cast<double>(outcomes[i].wallMs) *
                               1e-3);
        check.outcome(i, outcomes[i], name);
    }
    return p;
}

/** Records delivered by the input layer of an in-process traced pass. */
struct TracedTotals
{
    std::uint64_t inputRecords = 0;
    std::uint64_t instructions = 0; //!< warm-up + measure budgets
};

/**
 * The traced pass of a pool grid: every spec in turn on this thread,
 * through the outside-in drivers, under one "pass" root span with one
 * "run" span per spec.
 */
TracedTotals
tracedPoolPass(const Grid &g, SpanLog &log, Checker &check)
{
    TracedTotals t;
    int root = log.open("pass", SpanLog::noParent);
    for (std::size_t i = 0; i < g.specs.size(); ++i) {
        SpanScope run(log, "run", root);
        try {
            TracedRun tr =
                g.functionalReplay
                    ? tracedFunctionalRun(g.specs[i], log, run.id())
                    : tracedTimingRun(g.specs[i], log, run.id());
            check.result(i, tr.results, "traced pass");
            t.inputRecords += tr.inputRecords;
            t.instructions += simulatedInstructions(g.specs[i]);
        } catch (const std::exception &e) {
            check.fail(i, "traced pass", e.what());
        }
    }
    log.close(root);
    return t;
}

double
peakRssMib()
{
    rusage self{}, children{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self.ru_maxrss,
                                        children.ru_maxrss)) /
           1024.0;
}

std::string
provenance(const std::string &gitSha, const std::string &workload,
           std::uint64_t seed, std::size_t specs)
{
    std::ostringstream os;
    os << "{\"git_sha\": " << jsonString(gitSha)
       << ", \"compiler\": " << jsonString(__VERSION__)
#ifdef NDEBUG
       << ", \"ndebug\": true"
#else
       << ", \"ndebug\": false"
#endif
       << ", \"ipref_metrics\": "
       << (metrics::kCompiled ? "true" : "false")
       << ", \"ipref_trace_events\": "
       << (IPREF_TRACE_EVENTS ? "true" : "false")
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"workload\": " << jsonString(workload)
       << ", \"seed\": " << seed << ", \"spec_count\": " << specs
       << ", \"model\": "
       << jsonString("unvalidated against real hardware; no error "
                     "figure is given")
       << "}";
    return os.str();
}

/** Sums of the simulated counters over every spec's first result. */
struct SimTotals
{
    double instructions = 0, l1iMisses = 0, l2iMisses = 0, l1dMisses = 0;
    double branchMispredicts = 0, timingInstructions = 0;
    double pfIssued = 0, pfUseful = 0, pfCandidates = 0, pfFiltered = 0;
    double covered = 0, memReads = 0, memQueueDelay = 0;
};

SimTotals
simTotals(const Grid &g, const std::vector<SimResults> &results)
{
    SimTotals t;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SimResults &r = results[i];
        auto d = [](std::uint64_t v) { return static_cast<double>(v); };
        t.instructions += d(r.instructions);
        if (!g.specs[i].functional)
            t.timingInstructions += d(r.instructions);
        t.l1iMisses += d(r.l1iMisses);
        t.l2iMisses += d(r.l2iMisses);
        t.l1dMisses += d(r.l1dMisses);
        t.branchMispredicts += d(r.branchMispredicts);
        t.pfIssued += d(r.pfIssued);
        t.pfUseful += d(r.pfUseful);
        t.pfCandidates += d(r.pfCandidates);
        t.pfFiltered += d(r.pfFiltered);
        t.covered += d(r.l1iFirstUseHits + r.l1iLateHits);
        t.memReads += d(r.memReads);
        t.memQueueDelay += d(r.memQueueDelayCycles);
    }
    return t;
}

double
ratio(double a, double b)
{
    return b > 0.0 ? a / b : 0.0;
}

int
runWorkload(const Options &opts)
{
    const std::string workload = opts.getString("workload");
    const std::uint64_t seed = opts.getUint("seed", 1);
    const double seconds = opts.getDouble("seconds", 10.0);
    const bool traced = opts.getUint("trace", 0) != 0;
    const std::string dir = opts.getString("dir");
    const std::string gitSha = opts.getString("git-sha", "unavailable");
    if (dir.empty())
        ipref_raise(ConfigError, "--dir is required");
    std::filesystem::create_directories(dir);

    Setup setup = planSetup(workload, seed, dir);
    runSetup(setup);
    Grid grid = makeGrid(workload, seed, setup);
    std::vector<double> specInstrs;
    for (const RunSpec &s : grid.specs)
        specInstrs.push_back(
            static_cast<double>(simulatedInstructions(s)));

    if (grid.runner == Runner::Campaign) {
        metrics::MetricsOptions m;
        m.intervalMs = 50;
        m.jsonlPath = dir + "/metrics.jsonl";
        metrics::configureMetrics(m);
    }

    // No warm-up pass: set-up has already built the programs and
    // decoded the traces, and the median over passes drops a slower
    // first one.
    Checker check(grid);
    std::vector<Pass> passes;
    const std::int64_t start = nowNs();
    while (passes.size() < kMinPasses ||
           static_cast<double>(nowNs() - start) * 1e-9 < seconds) {
        passes.push_back(
            runPass(grid, grid.slots, dir, check, "measured pass"));
        if (setup.seconds.size() < kSetupReps)
            runSetup(setup);
    }
    while (setup.seconds.size() < kSetupReps)
        runSetup(setup);

    std::vector<double> walls, minstr, busy, runSeconds;
    for (const Pass &p : passes) {
        walls.push_back(p.wallSeconds);
        minstr.push_back(ratio(sum(specInstrs), sum(p.runSeconds)) *
                         1e-6);
        busy.push_back(ratio(sum(p.runSeconds),
                             p.wallSeconds * grid.slots));
        runSeconds.insert(runSeconds.end(), p.runSeconds.begin(),
                          p.runSeconds.end());
    }

    std::map<std::string, double> e2e = {
        {"wall_s", median(walls)},
        {"minstr_per_s", median(minstr)},
        {"setup_s", median(setup.seconds)},
        {"peak_rss_mib", peakRssMib()},
    };

    std::map<std::string, double> layer;
    std::string spanError;
    if (traced) {
        // The untraced counterpart of the traced pass runs at the same
        // concurrency: in-process traced passes are sequential.
        double untracedWall = median(walls);
        if (grid.runner == Runner::Pool && grid.slots > 1)
            untracedWall = runPass(grid, 1, dir, check,
                                   "sequential pass")
                               .wallSeconds;

        SpanLog log;
        TracedTotals tt;
        if (grid.runner == Runner::Campaign)
            runPass(grid, grid.slots, dir, check, "traced pass", &log);
        else
            tt = tracedPoolPass(grid, log, check);
        const double tracedWall = log.seconds(0);
        spanError = log.check();

        std::map<std::string, double> self = log.selfSeconds();
        std::map<std::string, std::uint64_t> calls = log.calls();

        auto s = [&](const char *n) {
            auto it = self.find(n);
            return it == self.end() ? 0.0 : it->second;
        };
        auto c = [&](const char *n) {
            auto it = calls.find(n);
            return it == calls.end() ? 0.0
                                     : static_cast<double>(it->second);
        };
        SimTotals st = simTotals(grid, check.results());
        const double cacheS =
            s("cache.fetch_access") + s("cache.data_access");
        const double pfS = s("prefetch.on_demand_fetch") +
                           s("prefetch.tick") + s("prefetch.on_event");
        layer = {
            {"workload.next_batch_s", s("workload.next_batch")},
            {"workload.ns_per_record",
             ratio(s("workload.next_batch"), tt.inputRecords) * 1e9},
            {"trace.next_batch_s", s("trace.next_batch")},
            {"trace.ns_per_record",
             ratio(s("trace.next_batch"), tt.inputRecords) * 1e9},
            {"trace.capture_s",
             setup.replay ? median(setup.captureSeconds) : 0.0},
            {"trace.cache_hit_frac",
             [] {
                 TraceCache::Stats tc = TraceCache::instance().stats();
                 return ratio(static_cast<double>(tc.hits),
                              static_cast<double>(tc.hits + tc.decodes));
             }()},
            {"cpu.tick_s", s("cpu.tick")},
            {"cpu.ns_per_instr",
             ratio(s("cpu.tick"), tt.instructions) * 1e9},
            {"cpu.branch_mpki",
             ratio(st.branchMispredicts, st.timingInstructions) * 1e3},
            {"cache.fetch_access_s", s("cache.fetch_access")},
            {"cache.data_access_s", s("cache.data_access")},
            {"cache.ns_per_call",
             ratio(cacheS, c("cache.fetch_access") +
                               c("cache.data_access")) *
                 1e9},
            {"cache.l1i_mpki", ratio(st.l1iMisses, st.instructions) * 1e3},
            {"cache.l2i_mpki", ratio(st.l2iMisses, st.instructions) * 1e3},
            {"cache.l1d_mpki", ratio(st.l1dMisses, st.instructions) * 1e3},
            {"prefetch.on_demand_fetch_s", s("prefetch.on_demand_fetch")},
            {"prefetch.tick_s", s("prefetch.tick")},
            {"prefetch.on_event_s", s("prefetch.on_event")},
            {"prefetch.ns_per_call",
             ratio(pfS, c("prefetch.on_demand_fetch") +
                            c("prefetch.tick") + c("prefetch.on_event")) *
                 1e9},
            {"prefetch.issued", st.pfIssued},
            {"prefetch.accuracy", ratio(st.pfUseful, st.pfIssued)},
            {"prefetch.coverage",
             ratio(st.covered, st.covered + st.l1iMisses)},
            {"prefetch.filtered_frac", ratio(st.pfFiltered, st.pfCandidates)},
            {"memory.reads", st.memReads},
            {"memory.queue_delay_per_read",
             ratio(st.memQueueDelay, st.memReads)},
            {"sim.run_s_p50", median(runSeconds)},
            {"sim.run_s_max",
             *std::max_element(runSeconds.begin(), runSeconds.end())},
            {"sim.pool_busy_frac", median(busy)},
            {"sim.system_build_s", s("sim.system_build")},
            {"sim.func_loop_s", s("sim.func_loop")},
            {"sim.coordinator_s", s("sim.coordinator")},
            {"sim.report_flush_s", s("sim.report_flush")},
            {"sim.report_bytes",
             static_cast<double>(fileBytes(dir + "/stats.json"))},
            {"sim.manifest_bytes",
             static_cast<double>(fileBytes(dir + "/manifest.json"))},
            {"sim.unattributed_s", s("pass") + s("run")},
            {"sim.unattributed_frac",
             ratio(s("pass") + s("run"), tracedWall)},
            {"trace_overhead_frac", ratio(tracedWall, untracedWall)},
            {"traced_wall_s", tracedWall},
        };

        std::ofstream spans(dir + "/spans.jsonl");
        spans << "{\"kind\": \"provenance\", \"provenance\": "
              << provenance(gitSha, workload, seed, grid.specs.size())
              << "}\n";
        log.writeJsonLines(spans);
    }
    if (grid.runner == Runner::Campaign)
        metrics::shutdownMetrics();

    std::ofstream out(dir + "/result.json");
    out << "{\n  \"provenance\": "
        << provenance(gitSha, workload, seed, grid.specs.size())
        << ",\n  \"attempted\": " << check.attempted()
        << ",\n  \"failed\": " << check.failed()
        << ",\n  \"span_error\": " << jsonString(spanError)
        << ",\n  \"failures\": [";
    for (std::size_t i = 0; i < check.messages().size(); ++i)
        out << (i ? ", " : "") << jsonString(check.messages()[i]);
    out << "],\n  \"passes\": " << passes.size()
        << ",\n  \"pass_wall_s\": [";
    for (std::size_t i = 0; i < walls.size(); ++i)
        out << (i ? ", " : "") << num(walls[i]);
    out << "],\n  \"run_wall_ms\": {\"min\": "
        << num(*std::min_element(runSeconds.begin(), runSeconds.end()) * 1e3)
        << ", \"median\": " << num(median(runSeconds) * 1e3) << "}";
    out << ",\n  \"setup_s\": [";
    for (std::size_t i = 0; i < setup.seconds.size(); ++i)
        out << (i ? ", " : "") << num(setup.seconds[i]);
    out << "],\n  \"end_to_end\": {";
    bool first = true;
    for (const auto &[name, v] : e2e) {
        out << (first ? "" : ", ") << jsonString(name) << ": " << num(v);
        first = false;
    }
    out << "},\n  \"per_layer\": {";
    first = true;
    for (const auto &[name, v] : layer) {
        out << (first ? "" : ", ") << jsonString(name) << ": " << num(v);
        first = false;
    }
    out << "},\n  \"digests\": {";
    for (std::size_t i = 0; i < grid.labels.size(); ++i)
        out << (i ? ", " : "") << "\n    " << jsonString(grid.labels[i])
            << ": " << jsonString(check.digests()[i]);
    out << "\n  }\n}\n";
    return out ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    // The campaign coordinator re-executes this binary as its worker.
    if (opts.getBool("worker-mode"))
        workerMain(opts); // never returns
    try {
        return runWorkload(opts);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_harness: " << e.what() << "\n";
        return 1;
    }
}
