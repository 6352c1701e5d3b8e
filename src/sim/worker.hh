/**
 * @file
 * The campaign worker process: executes one dispatched RunSpec at a
 * time inside this process's failure domain and streams outcomes and
 * heartbeats back to the coordinator over the protocol pipe.
 *
 * Entered via `ipref_worker` (the dedicated thin binary) or any bench
 * invoked with `--worker-mode` — both reduce to workerMain(). The
 * protocol rides the process's stdin/stdout; real stdout is re-routed
 * to stderr first so stray prints can never corrupt the stream.
 */

#ifndef IPREF_SIM_WORKER_HH
#define IPREF_SIM_WORKER_HH

namespace ipref
{

class Options;

/**
 * Run the worker protocol loop until the coordinator shuts us down,
 * the pipe dies (orphaned worker), or a signal arrives. No flag
 * changes its behaviour; @p opts is the caller's parsed command line.
 * The worker writes no telemetry file of its own: its heartbeats
 * carry its instruction count, which the coordinator folds into its
 * stream (see coordinator.hh).
 *
 * Never returns control to a caller mid-protocol: exits the process.
 */
[[noreturn]] void workerMain(const Options &opts);

} // namespace ipref

#endif // IPREF_SIM_WORKER_HH
