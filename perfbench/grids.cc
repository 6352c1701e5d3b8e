#include "grids.hh"

#include <cctype>
#include <memory>

#include "spans.hh"
#include "trace/trace_cache.hh"
#include "trace/trace_file.hh"
#include "util/error.hh"
#include "workload/cfg.hh"
#include "workload/presets.hh"
#include "workload/workload.hh"

using namespace ipref;

namespace perfbench
{

namespace
{

/**
 * Instruction-budget scales. Timing and replay use the defaults of the
 * figures they stand for (fig06/fig08 and fig05), so per-run fixed
 * costs weigh what they weigh in a real figure run. Campaign runs stay
 * short but last tens of milliseconds, so the whole-millisecond
 * RunOutcome::wallMs the workers report is within about 1%.
 */
constexpr double kTimingScale = 0.8;
constexpr double kReplayScale = 0.3;
constexpr double kCampaignScale = 0.1;

/** The paper's schemes (Figures 5-9), as registry tokens. */
const std::vector<std::string> kPaperSchemes = {"nl-miss", "nl-tagged",
                                                "n4l", "discontinuity"};

/** Replay schemes: the paper's best two plus the temporal ones. */
const std::vector<std::string> kReplaySchemes = {
    "none", "n4l", "discontinuity", "domino", "isb", "mana"};

/** Campaign schemes: stateless and table-based, cheap to simulate. */
const std::vector<std::string> kCampaignSchemes = {
    "none", "nl-miss", "n4l", "discontinuity", "domino", "mana"};

std::string
lower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

void
add(Grid &g, std::string label, RunSpec spec)
{
    g.labels.push_back(std::move(label));
    g.specs.push_back(std::move(spec));
}

/** fig06 + fig08: none plus each paper scheme without and with
 *  L2 bypass, over the 1-core and 4-core figure workload sets. */
Grid
gridTiming(std::uint64_t seed)
{
    Grid g;
    g.runner = Runner::Pool;
    g.slots = 4;
    for (bool cmp : {false, true}) {
        for (const WorkloadSet &ws : figureWorkloads(cmp)) {
            auto base = [&] {
                RunSpec::Builder b;
                b.cmp(cmp).workloads(ws.kinds).instrScale(kTimingScale)
                    .baseSeed(seed);
                return b;
            };
            std::string prefix =
                std::string(cmp ? "cmp4/" : "1core/") + ws.label + "/";
            add(g, prefix + "none", base().build());
            for (const std::string &scheme : kPaperSchemes)
                for (bool bypass : {false, true})
                    add(g, prefix + scheme + (bypass ? "+bypass" : ""),
                        base().scheme(scheme).bypassL2(bypass).build());
        }
    }
    return g;
}

Grid
gridReplay(std::uint64_t seed, const Setup &setup)
{
    Grid g;
    g.runner = Runner::Pool;
    g.slots = 1;
    g.functionalReplay = true;
    const auto &kinds = allWorkloadKinds();
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        for (bool cmp : {false, true}) {
            for (const std::string &scheme : kReplaySchemes) {
                add(g,
                    std::string(workloadName(kinds[k])) +
                        (cmp ? "/cmp4/" : "/1core/") + scheme,
                    RunSpec::builder()
                        .cmp(cmp)
                        .functional()
                        .trace(TraceSpec::file(setup.tracePaths.at(k)))
                        .scheme(scheme)
                        .instrScale(kReplayScale)
                        .baseSeed(seed)
                        .build());
            }
        }
    }
    return g;
}

Grid
gridCampaign(std::uint64_t seed)
{
    Grid g;
    g.runner = Runner::Campaign;
    g.slots = 3;
    for (std::uint64_t s = 0; s < 2; ++s)
        for (WorkloadKind kind : allWorkloadKinds())
            for (bool cmp : {false, true})
                for (const std::string &scheme : kCampaignSchemes)
                    add(g,
                        std::string(workloadName(kind)) +
                            (cmp ? "/cmp4/" : "/1core/") + scheme +
                            "/s" + std::to_string(s),
                        RunSpec::builder()
                            .cmp(cmp)
                            .workload(kind)
                            .functional()
                            .scheme(scheme)
                            .instrScale(kCampaignScale)
                            .baseSeed(seed + s)
                            .build());
    return g;
}

/** Write @p records records of @p prog 's walk as a v3 trace. */
void
capture(std::shared_ptr<const ProgramCfg> prog, std::uint64_t walkSeed,
        const std::string &path, std::uint64_t records)
{
    Workload walker(std::move(prog), walkSeed);
    TraceFileWriter writer(path);
    std::vector<InstrRecord> block(4096);
    for (std::uint64_t done = 0; done < records;) {
        std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(block.size(), records - done));
        walker.nextBatch({block.data(), n});
        for (std::size_t i = 0; i < n; ++i)
            writer.write(block[i]);
        done += n;
    }
    writer.close();
}

} // namespace

std::uint64_t
simulatedInstructions(const RunSpec &spec)
{
    SystemConfig cfg = makeConfig(spec);
    return cfg.warmupInstrs + cfg.measureInstrs;
}

Setup
planSetup(const std::string &workload, std::uint64_t seed,
          const std::string &dir)
{
    Setup s;
    s.seed = seed;
    s.replay = workload == "replay_functional";
    if (!s.replay)
        return s;
    for (WorkloadKind k : allWorkloadKinds())
        s.tracePaths.push_back(dir + "/" + lower(workloadName(k)) +
                               ".v3.trace");
    // A single core replays the whole trace without wrapping; the
    // margin covers the last partial fetch block.
    s.recordsPerTrace = simulatedInstructions(RunSpec::builder()
                                                  .cmp(false)
                                                  .functional()
                                                  .instrScale(kReplayScale)
                                                  .build()) +
                        4096;
    return s;
}

void
runSetup(Setup &s)
{
    const auto &kinds = allWorkloadKinds();
    const bool first = s.seconds.empty();
    std::int64_t t0 = nowNs();
    std::vector<std::shared_ptr<const ProgramCfg>> programs;
    for (WorkloadKind k : kinds)
        programs.push_back(first ? buildProgram(k)
                                 : std::make_shared<const ProgramCfg>(
                                       presetConfig(k)));
    std::int64_t t1 = nowNs();
    if (s.replay) {
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            // The walk seed core 0 of a generator run would use.
            std::uint64_t walkSeed = s.seed * 0x9e3779b97f4a7c15ULL +
                                     static_cast<std::uint64_t>(kinds[k]);
            capture(programs[k], walkSeed, s.tracePaths[k],
                    s.recordsPerTrace);
        }
        TraceCache::instance().clear();
        for (const std::string &path : s.tracePaths)
            TraceCache::instance().acquire(path);
    }
    std::int64_t t2 = nowNs();
    s.seconds.push_back(static_cast<double>(t2 - t0) * 1e-9);
    s.captureSeconds.push_back(static_cast<double>(t2 - t1) * 1e-9);
}

Grid
makeGrid(const std::string &workload, std::uint64_t seed,
         const Setup &setup)
{
    if (workload == "grid_timing")
        return gridTiming(seed);
    if (workload == "replay_functional")
        return gridReplay(seed, setup);
    if (workload == "campaign_fleet")
        return gridCampaign(seed);
    ipref_raise(ConfigError, "unknown workload '%s'", workload.c_str());
}

} // namespace perfbench
