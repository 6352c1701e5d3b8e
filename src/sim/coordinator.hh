/**
 * @file
 * The distributed campaign coordinator: shards RunSpecs across a
 * fleet of crash-isolated worker processes, appends RunOutcomes to
 * the campaign manifest, and survives anything short of
 * the host losing power — worker crashes/OOM kills (requeue with the
 * batch runner's capped-backoff semantics), wedged workers (heartbeat
 * deadline, SIGKILL, requeue), poison specs (quarantine after
 * repeated deaths on one fingerprint), protocol corruption (count and
 * drop), and its own death (--resume from the manifest).
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

    /** Worker processes (>= 1). */
    unsigned workers = 4;

    /** Worker heartbeat period (0 = heartbeats off). */
    std::uint64_t heartbeatMs = 100;

    /**
     * Silence window after which a worker is declared dead, SIGKILLed
     * and its in-flight spec requeued. Must comfortably exceed
     * heartbeatMs; the default tolerates heavily loaded CI hosts.
     */
    std::uint64_t heartbeatTimeoutMs = 5000;

    /**
     * Worker deaths on the same spec before it is quarantined
     * (status Quarantined, never re-dispatched this campaign; a
     * --resume re-runs it like any failed entry).
     */
    unsigned quarantineAfter = 3;

    /** Extra spawns beyond the initial fleet (0 = 4 * workers). */
    unsigned respawnLimit = 0;

    /** Grace for clean worker exit on drain/shutdown before SIGKILL. */
    std::uint64_t drainGraceMs = 5000;

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
 * the same specs. SIGINT/SIGTERM drains cleanly: in-flight runs are
 * aborted (Interrupted), queued specs are marked Interrupted, the
 * manifest is flushed, and workers are reaped. Throws SimError only
 * for campaign-level misconfiguration (no worker binary, manifest
 * locked by another coordinator); per-spec failures are outcomes.
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
