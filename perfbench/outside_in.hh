/**
 * @file
 * Outside-in instrumentation: the traced pass times each layer by
 * wrapping calls into that layer's public functions, without changing
 * the simulator.
 *
 *  - Timing mode runs the real System::run(); every core's instruction
 *    source is swapped (OoOCore::setTrace) for a TimedSource over the
 *    same generator, so input time is measured and the rest of run()
 *    is the core's tick, with cache and prefetch work nested inside.
 *  - Functional mode has no such seam inside System, so a driver here
 *    mirrors System's functional loop call for call over the public
 *    CacheHierarchy and PrefetchEngine entry points and times each
 *    call. Its SimResults must equal System::run()'s for the same spec
 *    (the benchmark checks this on every traced run).
 */

#ifndef PERFBENCH_OUTSIDE_IN_HH
#define PERFBENCH_OUTSIDE_IN_HH

#include "sim/experiment.hh"
#include "spans.hh"

namespace perfbench
{

/** A traced run's results plus the records its input layer delivered. */
struct TracedRun
{
    ipref::SimResults results;
    std::uint64_t inputRecords = 0;
};

/**
 * Run a timing-mode, generator-input @p spec through System::run()
 * with timed sources, logging spans under @p parent:
 *   sim.system_build  constructing the System
 *   cpu.tick          System::run()
 *     workload.next_batch  (aggregate) every pull from a generator
 * Throws ConfigError for specs it cannot wrap (trace replay, or a
 * time-sliced single core, whose System swaps sources mid-run).
 */
TracedRun tracedTimingRun(const ipref::RunSpec &spec, SpanLog &log,
                          int parent);

/**
 * Run a functional-mode, trace-replay @p spec through the outside-in
 * driver, logging spans under @p parent:
 *   sim.system_build  building the hierarchy, engines and sources
 *   sim.func_loop     the driver's own loop (System::funcStep's glue)
 *     trace.next_batch          (aggregate) pulls from the replay
 *     cache.fetch_access        (aggregate) CacheHierarchy::fetchAccess
 *     cache.data_access         (aggregate) CacheHierarchy::dataAccess
 *     prefetch.on_demand_fetch  (aggregate) PrefetchEngine::onDemandFetch
 *     prefetch.on_event         (aggregate) onBranch / onFunction
 *     prefetch.tick             (aggregate) ticks with work to do
 * Engine ticks that return at once (no prefetcher, busy tag port or
 * empty queue, all visible through public accessors) are called
 * untimed, so the clock reads are not charged per instruction.
 */
TracedRun tracedFunctionalRun(const ipref::RunSpec &spec, SpanLog &log,
                              int parent);

} // namespace perfbench

#endif // PERFBENCH_OUTSIDE_IN_HH
