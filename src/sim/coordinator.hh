/**
 * @file
 * The distributed campaign coordinator: runs RunSpecs on a fleet of
 * crash-isolated worker processes through the same batch driver as
 * runBatch (driveBatch: one pool task per spec, the CampaignLedger,
 * the signal frame, reports in input order). Only where a spec runs
 * differs: its task leases a worker, writes the `run` line and blocks
 * on that worker's pipe. The campaign survives anything short of the
 * host losing power: a worker that crashes, is OOM-killed, wedges
 * past the heartbeat deadline or truncates its line is reaped and the
 * spec redispatched after the batch retry backoff; a spec that killed
 * three workers is quarantined; protocol corruption is counted and
 * dropped; the coordinator's own death is a --resume from the
 * manifest.
 *
 * Telemetry: workers write no metrics file of their own. The
 * coordinator's process-wide stream (--metrics-out) is the fleet
 * view: it folds each heartbeat's instruction count into
 * ipref_sim_instructions_total and the slot's
 * ipref_campaign_worker<N>_instrs gauge, and counts spawns, deaths,
 * requeues and quarantines (ipref_campaign_*), which `ipref_top`
 * renders as its `workers` line.
 */

#ifndef IPREF_SIM_COORDINATOR_HH
#define IPREF_SIM_COORDINATOR_HH

#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace ipref
{

/** Knobs for runCampaign(). */
struct CampaignOptions
{
    /**
     * Batch semantics shared with runBatch: maxAttempts bounds the
     * total attempts a spec may consume across worker deaths AND
     * in-worker transient retries; retryBaseMs/retryCapMs shape the
     * requeue backoff; runTimeoutMs is enforced inside the worker;
     * manifestPath/resume work exactly as in runBatch (the manifest
     * format is shared, so a campaign can resume a batch and vice
     * versa). BatchOptions::jobs is ignored — parallelism is the
     * worker count here.
     */
    BatchOptions batch;

    /**
     * Worker processes alive at once (>= 1), and the driver's pool
     * threads. Each slot may spawn five times in all (four respawns);
     * a spec fails only when no worker lives and none may spawn.
     */
    unsigned workers = 4;

    /** Worker heartbeat period (0 = heartbeats off). */
    std::uint64_t heartbeatMs = 100;

    /**
     * Silence window after which a worker is declared dead, SIGKILLed
     * and its in-flight spec redispatched. Must comfortably exceed
     * heartbeatMs; the default tolerates heavily loaded CI hosts.
     */
    std::uint64_t heartbeatTimeoutMs = 5000;

    /**
     * Worker executable. Empty = auto-discover: $IPREF_WORKER_BIN,
     * then an ipref_worker next to (or in ../tools of) this binary,
     * then this binary itself re-exec'ed with --worker-mode.
     */
    std::string workerCmd;

    /** IPREF_FAULTS schedule installed in spawned workers (chaos). */
    std::string workerFaults;
};

/**
 * Run every spec on the worker fleet and return outcomes in input
 * order. Results (and, when reporting is on, the report array the
 * sink flushes) are bit-identical to a single-process runBatch() of
 * the same specs. SIGINT/SIGTERM drains: in-flight runs get an
 * `abort` and end Interrupted (SIGKILL after a 5 s grace), specs not
 * yet dispatched end Interrupted, and every worker is reaped before
 * the call returns. Throws SimError only for campaign-level faults
 * (no worker binary, manifest locked by another coordinator, no
 * process can be forked); per-spec failures are outcomes.
 */
std::vector<RunOutcome> runCampaign(const std::vector<RunSpec> &specs,
                                    const CampaignOptions &opt);

/**
 * The worker executable runCampaign would use (see
 * CampaignOptions::workerCmd), or "" when discovery fails.
 */
std::string findWorkerBinary();

} // namespace ipref

#endif // IPREF_SIM_COORDINATOR_HH
