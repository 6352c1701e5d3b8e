/**
 * @file
 * The benchmark's workloads: each is a deterministic spec grid built
 * from the seed, plus the per-process set-up that precedes it.
 */

#ifndef PERFBENCH_GRIDS_HH
#define PERFBENCH_GRIDS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace perfbench
{

/** How a workload's specs are executed. */
enum class Runner
{
    Pool,     //!< runBatch on a thread pool
    Campaign, //!< runCampaign on worker processes
};

struct Grid
{
    Runner runner = Runner::Pool;
    /** Pool threads or worker processes. */
    unsigned slots = 1;
    /** Replay input on every spec, so the traced pass uses the
     *  outside-in functional driver instead of System::run(). */
    bool functionalReplay = false;
    std::vector<ipref::RunSpec> specs;
    /** One stable label per spec (keys of the reference digests). */
    std::vector<std::string> labels;
};

/** What set-up produces, and what each repetition of it cost. */
struct Setup
{
    bool replay = false;
    std::uint64_t seed = 1;
    /** Replay traces, one per preset (replay_functional only). */
    std::vector<std::string> tracePaths;
    std::uint64_t recordsPerTrace = 0;
    /** Wall time of each repetition, and of its capture part. */
    std::vector<double> seconds;
    std::vector<double> captureSeconds;
};

/** Plan @p workload 's set-up; replay traces go under @p dir. */
Setup planSetup(const std::string &workload, std::uint64_t seed,
                const std::string &dir);

/**
 * One repetition of the per-process set-up: build every preset's
 * ProgramCfg and, for replay_functional, capture one v3 trace per
 * preset and decode each once through a cleared TraceCache. The first
 * repetition builds through buildProgram(), so the memoized programs
 * the runs use exist afterwards; later ones construct the same
 * programs directly, repeating the same work.
 */
void runSetup(Setup &s);

/** The spec grid of @p workload (ConfigError on an unknown name). */
Grid makeGrid(const std::string &workload, std::uint64_t seed,
              const Setup &setup);

/** Instructions a spec simulates: its warm-up plus measure budgets. */
std::uint64_t simulatedInstructions(const ipref::RunSpec &spec);

} // namespace perfbench

#endif // PERFBENCH_GRIDS_HH
