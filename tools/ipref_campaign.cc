/**
 * @file
 * ipref_campaign — distributed campaign driver.
 *
 * Builds a deterministic grid of RunSpecs (schemes x workloads x
 * degrees x seeds) and executes it either on a fleet of crash-isolated
 * worker processes (`--workers N`, the default) or sequentially in
 * this process (`--workers 0`, the bit-identity baseline the chaos
 * smoke test diffs against). Prints a per-status summary and exits
 * non-zero when any spec ended failed / timed out / interrupted /
 * quarantined.
 *
 * Flags:
 *   --specs N             grid size (default 24, capped at the full
 *                         grid of 960)
 *   --workers N           worker processes (default 4; 0 = run the
 *                         same specs through in-process runBatch)
 *   --scale X             instruction-budget scale (default 0.02;
 *                         IPREF_SCALE composes)
 *   --seed N              base RNG seed (default 1)
 *   --timing              timing simulation (default: functional)
 *   --stats-json FILE     JSON array with one report per run
 *   --manifest FILE       campaign checkpoint (atomic writes)
 *   --resume              skip runs the manifest already completed
 *   --retries N           attempt budget per spec, spanning worker
 *                         deaths and in-worker retries (default 3)
 *   --timeout-ms N        per-run deadline, enforced in the worker
 *   --heartbeat-ms N      worker heartbeat period (default 100)
 *   --heartbeat-timeout-ms N
 *                         silence before a worker is declared dead
 *                         (default 5000)
 *   --quarantine-after N  worker deaths on one spec before quarantine
 *                         (default 3)
 *   --respawn-limit N     extra spawns beyond the fleet (0 = 4x)
 *   --drain-grace-ms N    clean-exit grace on drain (default 5000)
 *   --worker-bin PATH     worker executable (default: auto-discover)
 *   --worker-faults SCHED IPREF_FAULTS schedule installed in workers
 *   --worker-metrics-prefix P
 *                         per-worker telemetry at P.w<spawn>.jsonl
 *                         (watch with `ipref_top --fleet 'P.w*.jsonl'`)
 *   --metrics-out FILE    coordinator JSON-lines telemetry
 *   --metrics-interval-ms N
 *                         coordinator sampling period (default 0=off)
 */

#include <cstdint>
#include <iostream>
#include <map>
#include <vector>

#include "sim/coordinator.hh"
#include "sim/experiment.hh"
#include "util/metrics.hh"
#include "util/options.hh"
#include "workload/presets.hh"

using namespace ipref;

namespace
{

/**
 * The deterministic campaign grid: every (scheme, workload, degree,
 * seed) combination in a fixed nesting order, truncated to @p count.
 * The order never changes, so `--specs N --resume` always names the
 * same work.
 */
std::vector<RunSpec>
buildGrid(std::size_t count, double scale, std::uint64_t baseSeed,
          bool functional)
{
    static const char *const schemes[] = {
        "none",
        "nl-miss",
        "nl-tagged",
        "n4l",
        "discontinuity",
        "target",
    };
    static const unsigned degrees[] = {1, 2, 4, 8};
    static const std::uint64_t seeds = 10;

    std::vector<RunSpec> specs;
    for (std::uint64_t s = 0; s < seeds && specs.size() < count; ++s) {
        for (const char *scheme : schemes) {
            if (specs.size() >= count)
                break;
            for (WorkloadKind wk : allWorkloadKinds()) {
                if (specs.size() >= count)
                    break;
                for (unsigned degree : degrees) {
                    if (specs.size() >= count)
                        break;
                    specs.push_back(RunSpec::builder()
                                        .scheme(scheme)
                                        .workload(wk)
                                        .degree(degree)
                                        .functional(functional)
                                        .instrScale(scale)
                                        .baseSeed(baseSeed + s)
                                        .build());
                }
            }
        }
    }
    return specs;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);

    double scale = 0.02 * envScale() * opts.getDouble("scale", 1.0);
    std::size_t count = opts.getUint("specs", 24);
    bool functional = !opts.getBool("timing");

    ObservabilityOptions obs;
    obs.jsonPath = opts.getString("stats-json");
    setObservability(obs);

    metrics::MetricsOptions mopts;
    mopts.intervalMs = opts.getUint("metrics-interval-ms", 0);
    mopts.jsonlPath = opts.getString("metrics-out");
    if (mopts.intervalMs > 0 && mopts.anySink())
        metrics::configureMetrics(mopts);

    CampaignOptions campaign;
    campaign.batch.maxAttempts =
        static_cast<unsigned>(opts.getUint("retries", 3));
    campaign.batch.runTimeoutMs = opts.getUint("timeout-ms", 0);
    campaign.batch.manifestPath = opts.getString("manifest");
    campaign.batch.resume = opts.getBool("resume");
    campaign.workers =
        static_cast<unsigned>(opts.getUint("workers", 4));
    campaign.heartbeatMs = opts.getUint("heartbeat-ms", 100);
    campaign.heartbeatTimeoutMs =
        opts.getUint("heartbeat-timeout-ms", 5000);
    campaign.quarantineAfter = static_cast<unsigned>(
        opts.getUint("quarantine-after", 3));
    campaign.respawnLimit = static_cast<unsigned>(
        opts.getUint("respawn-limit", 0));
    campaign.drainGraceMs = opts.getUint("drain-grace-ms", 5000);
    campaign.workerCmd = opts.getString("worker-bin");
    campaign.workerFaults = opts.getString("worker-faults");
    campaign.workerMetricsPrefix =
        opts.getString("worker-metrics-prefix");
    campaign.workerMetricsIntervalMs =
        opts.getUint("worker-metrics-interval-ms", 200);

    std::vector<RunSpec> specs = buildGrid(
        count, scale, opts.getUint("seed", 1), functional);

    std::vector<RunOutcome> outcomes;
    try {
        if (campaign.workers == 0) {
            // The single-process baseline: identical batch semantics,
            // no worker fleet. The chaos smoke test diffs the
            // distributed run's report against this one.
            campaign.batch.jobs = 1;
            outcomes = runBatch(specs, campaign.batch);
        } else {
            outcomes = runCampaign(specs, campaign);
        }
    } catch (const SimError &e) {
        std::cerr << "ipref_campaign: " << e.what() << "\n";
        return 1;
    }

    flushObservability();

    std::map<RunStatus, unsigned> byStatus;
    for (const RunOutcome &o : outcomes)
        ++byStatus[o.status];

    std::cout << "campaign: " << outcomes.size() << " spec(s)";
    for (const auto &[status, n] : byStatus)
        std::cout << "  " << runStatusName(status) << " " << n;
    std::cout << "\n";

    unsigned bad = 0;
    for (const auto &[status, n] : byStatus)
        if (status != RunStatus::Ok)
            bad += n;
    return bad == 0 ? 0 : 1;
}
