/**
 * @file
 * ipref_top — live campaign monitor.
 *
 * Tails the JSON-lines telemetry stream a campaign writes with
 * `--metrics-out` and renders a refreshing progress panel: runs done
 * / total with failure counts, aggregate simulation speed (Minstr/s,
 * instantaneous and cumulative), worker-pool occupancy, trace-cache
 * hit rate and an ETA. Point it at the same files the campaign is
 * writing:
 *
 *   bench_throughput --jobs 8 --metrics-interval-ms 100 \
 *       --metrics-out metrics.jsonl &
 *   ipref_top --jsonl metrics.jsonl
 *
 * Flags:
 *   --jsonl FILE       JSON-lines telemetry stream (default
 *                      metrics.jsonl)
 *   --manifest FILE    campaign checkpoint; adds a wall-time-based
 *                      per-run average to the ETA estimate
 *   --total N          expected total runs (default: the campaign's
 *                      ipref_batch_specs_total counter)
 *   --refresh-ms N     redraw period (default 1000)
 *   --once             render one frame and exit (scripts / CI)
 *
 * Fleet mode (distributed campaigns): aggregate the per-worker
 * telemetry streams a coordinator spawns with
 * `--worker-metrics-prefix P` into one panel, one row per worker,
 * with dead workers marked by snapshot staleness:
 *
 *   ipref_campaign --workers 4 --worker-metrics-prefix /tmp/camp &
 *   ipref_top --fleet '/tmp/camp.w*.jsonl'
 *
 *   --fleet GLOB       per-worker JSON-lines files (shell-quote the
 *                      glob so ipref_top expands it each refresh —
 *                      workers appear as they spawn)
 *   --stale-ms N       mark a worker DEAD when its newest snapshot
 *                      lags the fleet-wide newest by more than N ms
 *                      (default 3000)
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <glob.h>

#include "sim/campaign.hh"
#include "sim/cycle_ledger.hh"
#include "util/error.hh"
#include "util/json.hh"
#include "util/metrics.hh"
#include "util/options.hh"

using namespace ipref;

namespace
{

/** Parse every well-formed snapshot line in @p path (oldest first). */
std::vector<metrics::Snapshot>
readJsonl(const std::string &path)
{
    std::vector<metrics::Snapshot> out;
    std::ifstream in(path);
    if (!in)
        return out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        try {
            out.push_back(metrics::parseSnapshotLine(line));
        } catch (const std::exception &) {
            // A partially written tail line (the writer flushes per
            // record, but we may race the write) is not an error.
        }
    }
    return out;
}

std::uint64_t
counterOr(const metrics::Snapshot &s, const std::string &name,
          std::uint64_t fallback = 0)
{
    const std::uint64_t *v = s.counter(name);
    return v ? *v : fallback;
}

std::int64_t
gaugeOr(const metrics::Snapshot &s, const std::string &name,
        std::int64_t fallback = 0)
{
    const std::int64_t *v = s.gauge(name);
    return v ? *v : fallback;
}

std::string
formatDuration(double seconds)
{
    if (seconds < 0)
        return "--";
    std::uint64_t s = static_cast<std::uint64_t>(seconds + 0.5);
    std::ostringstream os;
    if (s >= 3600)
        os << s / 3600 << "h" << (s % 3600) / 60 << "m";
    else if (s >= 60)
        os << s / 60 << "m" << s % 60 << "s";
    else
        os << s << "s";
    return os.str();
}

/** One rendered frame of the panel. */
void
render(const std::vector<metrics::Snapshot> &snaps,
       const std::string &source, std::uint64_t totalOverride,
       const std::string &manifestPath, bool ansi)
{
    std::ostringstream os;
    if (ansi)
        os << "\033[H\033[J"; // home + clear to end of screen

    if (snaps.empty()) {
        os << "ipref_top: waiting for snapshots from " << source
           << " ...\n";
        std::cout << os.str() << std::flush;
        return;
    }

    const metrics::Snapshot &last = snaps.back();
    const metrics::Snapshot &first = snaps.front();

    double spanSec = snaps.size() > 1 ? static_cast<double>(
                                            last.unixMs - first.unixMs) /
                                            1000.0
                                      : 0.0;
    const metrics::Snapshot &prev =
        snaps.size() > 1 ? snaps[snaps.size() - 2] : first;
    double stepSec =
        static_cast<double>(last.unixMs - prev.unixMs) / 1000.0;

    // --- campaign progress -------------------------------------------
    std::uint64_t specs = counterOr(last, "ipref_batch_specs_total");
    std::uint64_t done =
        counterOr(last, "ipref_batch_runs_completed_total") +
        counterOr(last, "ipref_batch_runs_restored_total");
    std::uint64_t okRuns = counterOr(last, "ipref_batch_runs_ok_total");
    std::uint64_t failed =
        counterOr(last, "ipref_batch_runs_failed_total") +
        counterOr(last, "ipref_batch_runs_timeout_total") +
        counterOr(last, "ipref_batch_runs_interrupted_total");
    std::uint64_t retries =
        counterOr(last, "ipref_batch_retries_total");
    std::int64_t activeRuns =
        gaugeOr(last, "ipref_batch_active_runs");
    std::uint64_t total = totalOverride ? totalOverride : specs;

    // --- simulation speed --------------------------------------------
    std::uint64_t instrs =
        counterOr(last, "ipref_sim_instructions_total");
    std::uint64_t instrsFirst =
        counterOr(first, "ipref_sim_instructions_total");
    std::uint64_t instrsPrev =
        counterOr(prev, "ipref_sim_instructions_total");
    double cumMips =
        spanSec > 0
            ? static_cast<double>(instrs - instrsFirst) / spanSec / 1e6
            : 0.0;
    double nowMips =
        stepSec > 0
            ? static_cast<double>(instrs - instrsPrev) / stepSec / 1e6
            : 0.0;

    // --- trace cache --------------------------------------------------
    std::uint64_t hits =
        counterOr(last, "ipref_trace_cache_hits_total");
    std::uint64_t decodes =
        counterOr(last, "ipref_trace_cache_decodes_total");
    double hitRate =
        hits + decodes
            ? static_cast<double>(hits) /
                  static_cast<double>(hits + decodes)
            : 0.0;
    std::int64_t residentMb =
        gaugeOr(last, "ipref_trace_cache_resident_bytes") /
        (1024 * 1024);

    // --- prefetching --------------------------------------------------
    std::uint64_t pfIssued =
        counterOr(last, "ipref_prefetch_issued_total");
    std::uint64_t pfUseful =
        counterOr(last, "ipref_prefetch_useful_total");
    double accuracy =
        pfIssued ? static_cast<double>(pfUseful) /
                       static_cast<double>(pfIssued)
                 : 0.0;

    // --- ETA -----------------------------------------------------------
    // Primary estimate: completion rate observed over the stream.
    // With a manifest, the recorded per-run wall times refine the
    // estimate when fewer than two runs completed inside the stream.
    double eta = -1.0;
    std::uint64_t remaining = total > done ? total - done : 0;
    std::uint64_t doneFirst =
        counterOr(first, "ipref_batch_runs_completed_total") +
        counterOr(first, "ipref_batch_runs_restored_total");
    if (remaining == 0) {
        eta = 0.0;
    } else if (done > doneFirst && spanSec > 0) {
        double runsPerSec =
            static_cast<double>(done - doneFirst) / spanSec;
        eta = static_cast<double>(remaining) / runsPerSec;
    } else if (!manifestPath.empty()) {
        Expected<CampaignManifest> m =
            CampaignManifest::load(manifestPath);
        if (m.ok()) {
            std::uint64_t wallSum = 0, n = 0;
            for (const ManifestEntry *e :
                 m.value().entriesInOrder()) {
                if (e->outcome.ok() && e->outcome.wallMs) {
                    wallSum += e->outcome.wallMs;
                    ++n;
                }
            }
            if (n) {
                double perRunSec = static_cast<double>(wallSum) /
                                   static_cast<double>(n) / 1000.0;
                unsigned lanes = std::max<std::int64_t>(1, activeRuns);
                eta = static_cast<double>(remaining) * perRunSec /
                      static_cast<double>(lanes);
            }
        }
    }

    os << "ipref_top — " << source << "  (snapshot #" << last.seq
       << ", " << snaps.size() << " in stream)\n\n";

    os << "  runs      " << done << " / " << total;
    if (total)
        os << "  ("
           << static_cast<int>(100.0 * static_cast<double>(done) /
                               static_cast<double>(total))
           << "%)";
    os << "   ok " << okRuns << "  failed " << failed << "  retries "
       << retries << "  active " << activeRuns << "\n";
    os << "  eta       " << formatDuration(eta) << "\n";
    os << "  speed     " << std::fixed;
    os.precision(2);
    os << nowMips << " Minstr/s now, " << cumMips
       << " Minstr/s avg\n";
    os << "  cache     hit rate ";
    os.precision(1);
    os << 100.0 * hitRate << "%  (hits " << hits << ", decodes "
       << decodes << ", " << residentMb << " MiB resident)\n";
    os << "  pool      queue "
       << gaugeOr(last, "ipref_pool_queue_depth") << ", busy "
       << gaugeOr(last, "ipref_pool_busy_workers") << "\n";
    os << "  prefetch  issued " << pfIssued << ", useful " << pfUseful
       << "  (accuracy ";
    os << 100.0 * accuracy << "%, in flight "
       << gaugeOr(last, "ipref_prefetch_in_flight") << ")\n";
    os << "  sim       instrs " << instrs << "  warmup "
       << counterOr(last, "ipref_sim_warmup_instructions_total")
       << "  measure "
       << counterOr(last, "ipref_sim_measure_instructions_total")
       << "  runs in flight "
       << gaugeOr(last, "ipref_sim_active_runs") << "\n";

    // --- completed runs by registry scheme token ----------------------
    // The manifest doesn't store specs, but each Ok entry's buffered
    // observability report names its scheme ("config.scheme_token"),
    // so the campaign's scheme mix can be tallied from there.
    if (!manifestPath.empty()) {
        Expected<CampaignManifest> m =
            CampaignManifest::load(manifestPath);
        if (m.ok()) {
            std::map<std::string, unsigned> byScheme;
            for (const ManifestEntry *e : m.value().entriesInOrder()) {
                if (!e->outcome.ok() || e->outcome.jsonReport.empty())
                    continue;
                try {
                    JsonValue doc = parseJson(e->outcome.jsonReport);
                    if (doc.has("config"))
                        ++byScheme[doc.at("config").stringOr(
                            "scheme_token", "?")];
                } catch (const std::exception &) {
                    // Partial/foreign report: skip, don't crash the
                    // monitor.
                }
            }
            if (!byScheme.empty()) {
                os << "  schemes  ";
                for (const auto &[token, n] : byScheme)
                    os << " " << token << "×" << n;
                os << "\n";
            }
        }
    }

    // --- CPI stack (timing runs only; absent counters stay hidden) ---
    // One stacked bar over the cumulative per-bucket cycle counters:
    // each bucket paints its share of the width with its glyph.
    static const char bucketGlyph[kNumCycleBuckets] = {
        '.', '1', '2', 'M', 'P', 'R', 'Q', 'T', 'D'};
    std::array<std::uint64_t, kNumCycleBuckets> stack{};
    std::uint64_t stackTotal = 0;
    for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
        stack[b] = counterOr(
            last, std::string("ipref_cpi_") +
                      cycleBucketName(static_cast<CycleBucket>(b)) +
                      "_cycles_total");
        stackTotal += stack[b];
    }
    if (stackTotal) {
        constexpr std::size_t width = 40;
        std::string bar;
        std::uint64_t acc = 0;
        for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
            acc += stack[b];
            // Cumulative rounding keeps the bar exactly `width`
            // glyphs and deterministic for --once golden output.
            std::size_t end = static_cast<std::size_t>(
                static_cast<double>(acc) * width /
                static_cast<double>(stackTotal));
            while (bar.size() < end)
                bar += bucketGlyph[b];
        }
        os << "  cpi       [" << bar << "]";
        for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
            if (!stack[b])
                continue;
            os << "  " << bucketGlyph[b] << "="
               << cycleBucketName(static_cast<CycleBucket>(b)) << " ";
            os.precision(1);
            os << 100.0 * static_cast<double>(stack[b]) /
                      static_cast<double>(stackTotal)
               << "%";
        }
        os << "\n";
    }

    std::cout << os.str() << std::flush;
}

/** One worker's telemetry stream in fleet mode. */
struct FleetMember
{
    std::string path;
    std::vector<metrics::Snapshot> snaps;
};

/** Expand @p pattern and read every member's stream (name order). */
std::vector<FleetMember>
readFleet(const std::string &pattern)
{
    std::vector<FleetMember> fleet;
    glob_t g{};
    if (::glob(pattern.c_str(), 0, nullptr, &g) == 0) {
        for (std::size_t i = 0; i < g.gl_pathc; ++i) {
            FleetMember m;
            m.path = g.gl_pathv[i];
            m.snaps = readJsonl(m.path);
            fleet.push_back(std::move(m));
        }
    }
    ::globfree(&g);
    return fleet;
}

/** Trailing path component without directory or .jsonl suffix. */
std::string
memberLabel(const std::string &path)
{
    std::size_t slash = path.rfind('/');
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const std::string suffix = ".jsonl";
    if (base.size() > suffix.size() &&
        base.compare(base.size() - suffix.size(), suffix.size(),
                     suffix) == 0)
        base.resize(base.size() - suffix.size());
    return base;
}

/**
 * The fleet panel: one row per worker stream, dead workers marked by
 * staleness against the fleet-wide newest snapshot (not wall time, so
 * `--once` output over a finished campaign is deterministic).
 */
void
renderFleet(const std::vector<FleetMember> &fleet,
            const std::string &pattern, std::uint64_t staleMs,
            bool ansi)
{
    std::ostringstream os;
    if (ansi)
        os << "\033[H\033[J";

    if (fleet.empty()) {
        os << "ipref_top: waiting for worker streams matching "
           << pattern << " ...\n";
        std::cout << os.str() << std::flush;
        return;
    }

    std::uint64_t newest = 0;
    for (const FleetMember &m : fleet)
        if (!m.snaps.empty())
            newest = std::max(newest, m.snaps.back().unixMs);

    std::uint64_t fleetInstrs = 0, fleetOk = 0, fleetFailed = 0;
    double fleetMips = 0.0;
    unsigned alive = 0;

    os << "ipref_top — fleet " << pattern << "  (" << fleet.size()
       << " worker stream(s))\n\n";
    os << "  worker                    state   runs ok/fail   "
          "instrs        Minstr/s\n";

    for (const FleetMember &m : fleet) {
        os << "  ";
        std::string label = memberLabel(m.path);
        os << label;
        for (std::size_t p = label.size(); p < 26; ++p)
            os << ' ';

        if (m.snaps.empty()) {
            os << "empty\n";
            continue;
        }
        const metrics::Snapshot &last = m.snaps.back();
        const metrics::Snapshot &prev =
            m.snaps.size() > 1 ? m.snaps[m.snaps.size() - 2] : last;

        std::uint64_t age = newest - last.unixMs;
        bool dead = age > staleMs;
        if (!dead)
            ++alive;

        std::uint64_t instrs =
            counterOr(last, "ipref_sim_instructions_total");
        double stepSec =
            static_cast<double>(last.unixMs - prev.unixMs) / 1000.0;
        double mips =
            stepSec > 0
                ? static_cast<double>(
                      instrs -
                      counterOr(prev, "ipref_sim_instructions_total")) /
                      stepSec / 1e6
                : 0.0;
        std::uint64_t ok =
            counterOr(last, "ipref_batch_runs_ok_total");
        std::uint64_t bad =
            counterOr(last, "ipref_batch_runs_failed_total") +
            counterOr(last, "ipref_batch_runs_timeout_total") +
            counterOr(last, "ipref_batch_runs_interrupted_total");

        fleetInstrs += instrs;
        fleetOk += ok;
        fleetFailed += bad;
        if (!dead)
            fleetMips += mips;

        if (dead) {
            os << "DEAD    ";
        } else {
            os << "live    ";
        }
        os << ok << "/" << bad << "           " << instrs << "  ";
        os << std::fixed;
        os.precision(2);
        os << mips;
        if (dead)
            os << "   (last seen " << formatDuration(
                      static_cast<double>(age) / 1000.0)
               << " before fleet-newest)";
        os << "\n";
    }

    os << "\n  fleet     " << alive << "/" << fleet.size()
       << " live   runs ok " << fleetOk << " fail " << fleetFailed
       << "   instrs " << fleetInstrs << "   ";
    os << std::fixed;
    os.precision(2);
    os << fleetMips << " Minstr/s (live workers)\n";

    std::cout << os.str() << std::flush;
}

} // namespace

int
main(int argc, char **argv)
try {
    Options opts(argc, argv);
    std::string jsonl = opts.getString("jsonl", "metrics.jsonl");
    std::string manifest = opts.getString("manifest");
    std::uint64_t total = opts.getUint("total", 0);
    std::uint64_t refreshMs = opts.getUint("refresh-ms", 1000);
    bool once = opts.getBool("once");
    std::string fleetGlob = opts.getString("fleet");
    std::uint64_t staleMs = opts.getUint("stale-ms", 3000);

    if (!fleetGlob.empty()) {
        while (true) {
            std::vector<FleetMember> fleet = readFleet(fleetGlob);
            renderFleet(fleet, fleetGlob, staleMs, !once);
            if (once)
                return fleet.empty() ? 1 : 0;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(refreshMs));
        }
    }

    while (true) {
        std::vector<metrics::Snapshot> snaps = readJsonl(jsonl);
        render(snaps, jsonl, total, manifest, !once);
        if (once)
            return snaps.empty() ? 1 : 0;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(refreshMs));
    }
} catch (const SimError &e) {
    std::cerr << "error (" << errorKindName(e.kind())
              << "): " << e.what() << "\n";
    return 1;
}
