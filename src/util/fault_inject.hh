/**
 * @file
 * Deterministic fault injection for the distributed campaign stack.
 *
 * A schedule is a comma-separated list of entries:
 *
 *     point@N[/spawnS][:param]
 *
 * meaning "the N-th time execution passes `point` in this process,
 * fire once" — optionally only in the worker whose spawn ordinal
 * (IPREF_WORKER_SPAWN, set by the coordinator) equals S, and
 * optionally carrying a numeric parameter (a sleep duration, a byte
 * count, ...). The schedule comes from the IPREF_FAULTS environment
 * variable, or from configure() in tests.
 *
 * Hit counters are per process, so a respawned worker (higher spawn
 * ordinal) does not re-fire a /spawn-filtered entry — campaigns under
 * injected crashes still converge. Each entry fires at most once.
 *
 * Known points (see DESIGN.md §14):
 *   worker.crash_run      SIGKILL the worker as it starts run N
 *   worker.wedge_run      sleep `param` ms (default 60000) before
 *                         run N without heartbeating progress
 *   worker.heartbeat_stall stop the heartbeat thread at beat N
 *   worker.truncate_outcome write half the outcome line, then _exit
 *   manifest.write        fail a manifest append transiently
 *   spill.write           fail a stream spill chunk write (EIO)
 *   spill.read            cut a stream spill chunk read short
 *   coord.exit_record     _exit(137) after recording outcome N
 *                         (any batch with a manifest)
 *   coord.exit_after_death _exit(137) after recording the first
 *                         outcome that follows worker death N
 */

#ifndef IPREF_UTIL_FAULT_INJECT_HH
#define IPREF_UTIL_FAULT_INJECT_HH

#include <cstdint>
#include <string>

namespace ipref::fault
{

/**
 * Install @p schedule (replacing any previous one, including one
 * loaded from the environment); "" disarms everything and resets the
 * hit counters. Unparseable entries are ignored with a warning rather
 * than rejected — a chaos harness with a typo should still run.
 */
void configure(const std::string &schedule);

/** Disarm all entries and reset hit counters (tests). */
void reset();

/** True when any entry is armed (cheap: one relaxed atomic load). */
bool active();

/**
 * Count one pass through @p point and return true when an armed entry
 * matches this hit (consuming the entry). When it fires and @p param
 * is non-null, the entry's `:param` value (or 0) is stored there.
 *
 * The schedule is lazily loaded from IPREF_FAULTS on the first call
 * if configure() was never invoked. With no schedule in place it
 * returns false on one atomic load, without the lock, and counts no
 * hit.
 */
bool shouldFire(const char *point, std::uint64_t *param = nullptr);

/**
 * Arm @p point to fire on its next hit, whatever the schedule says:
 * one point's firing can place another's (coord.exit_after_death
 * arms coord.exit_record).
 */
void armNext(const char *point);

/** Hits recorded so far for @p point (tests / diagnostics). */
std::uint64_t hitCount(const char *point);

} // namespace ipref::fault

#endif // IPREF_UTIL_FAULT_INJECT_HH
