/**
 * @file
 * The campaign worker process: a request/reply loop that runs one
 * dispatched RunSpec at a time inside this process's failure domain.
 *
 * Two threads. The main thread says `hello`, reads the `config` line,
 * then reads one `run` line at a time from stdin, runs it through
 * runIsolated() and writes its `outcome`. The heartbeat thread writes
 * a `heartbeat` every period. The worker ends when stdin reaches EOF
 * (the coordinator closed it, or died), on SIGINT/SIGTERM (a drain:
 * the run in flight unwinds Interrupted and still reports), or when a
 * write finds the pipe dead (the coordinator died mid-run: the
 * heartbeat's EPIPE raises the interrupt latch). It then joins the
 * heartbeat thread and leaves through exit(); only the chaos fault
 * points (and a failed dup of stdout) _exit.
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
 * Run the worker loop until stdin reaches EOF, a signal arrives or
 * the coordinator's pipe dies, then exit(0). No flag changes its
 * behaviour; @p opts is the caller's parsed command line.
 * The worker writes no telemetry file of its own: its heartbeats
 * carry its instruction count, which the coordinator folds into its
 * stream (see coordinator.hh).
 *
 * Never returns: exits the process. Throws ConfigError before the
 * protocol starts when IPREF_WORKER_SPAWN is malformed.
 */
[[noreturn]] void workerMain(const Options &opts);

} // namespace ipref

#endif // IPREF_SIM_WORKER_HH
