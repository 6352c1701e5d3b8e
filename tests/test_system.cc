/**
 * @file
 * Integration tests: full-system runs, determinism, prefetch and
 * bypass end-to-end effects, CMP vs single core, the limit study,
 * and time-sliced mixed workloads.
 */

#include <gtest/gtest.h>

#include "error_helpers.hh"

#include <sstream>

#include "sim/experiment.hh"

using namespace ipref;

namespace
{

/** Small-budget spec so integration tests stay fast. */
RunSpec
fastSpec(bool cmp, const std::string &scheme = "none")
{
    RunSpec s;
    s.cmp = cmp;
    s.workloads = {WorkloadKind::WEB};
    s.schemeToken = scheme;
    s.instrScale = 0.2;
    return s;
}

} // namespace

TEST(System, DeterministicRuns)
{
    SimResults a = runSpec(fastSpec(false));
    SimResults b = runSpec(fastSpec(false));
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l1iMisses, b.l1iMisses);
    EXPECT_EQ(a.l2dMisses, b.l2dMisses);
    EXPECT_EQ(a.memReads, b.memReads);
}

TEST(System, FunctionalAndTimingBothRun)
{
    RunSpec s = fastSpec(true);
    SimResults timing = runSpec(s);
    s.functional = true;
    SimResults functional = runSpec(s);
    EXPECT_GT(timing.cycles, timing.instructions / 4);
    EXPECT_GT(functional.instructions, 0u);
    // Functional mode advances one instruction per core per cycle.
    EXPECT_NEAR(static_cast<double>(functional.l1iMissPerInstr()),
                static_cast<double>(timing.l1iMissPerInstr()), 0.02);
}

TEST(System, PrefetchingReducesInstructionMisses)
{
    SimResults base = runSpec(fastSpec(true));
    SimResults nl =
        runSpec(fastSpec(true, "nl-tagged"));
    SimResults disc =
        runSpec(fastSpec(true, "discontinuity"));
    EXPECT_LT(nl.l1iMissPerInstr(), base.l1iMissPerInstr());
    EXPECT_LT(disc.l1iMissPerInstr(), nl.l1iMissPerInstr());
    EXPECT_GT(disc.ipc, base.ipc);
}

TEST(System, AggressivePrefetchingPollutesL2)
{
    SimResults base = runSpec(fastSpec(true));
    SimResults disc =
        runSpec(fastSpec(true, "discontinuity"));
    EXPECT_GT(disc.l2dMisses, base.l2dMisses);
}

TEST(System, BypassEliminatesPollution)
{
    RunSpec s = fastSpec(true, "discontinuity");
    SimResults noBypass = runSpec(s);
    s.bypassL2 = true;
    SimResults bypass = runSpec(s);
    EXPECT_LT(bypass.l2dMisses, noBypass.l2dMisses);
    EXPECT_GT(bypass.bypassDrops + bypass.bypassInstalls, 0u);
    EXPECT_EQ(noBypass.bypassDrops, 0u);
}

TEST(System, CmpHasHigherL2InstructionMissRate)
{
    RunSpec s = fastSpec(false);
    s.workloads = {WorkloadKind::DB};
    s.functional = true;
    SimResults single = runSpec(s);
    s.cmp = true;
    SimResults cmp = runSpec(s);
    EXPECT_GT(cmp.l2iMissPerInstr(), single.l2iMissPerInstr());
}

TEST(System, LimitStudyEliminationHelps)
{
    RunSpec s = fastSpec(false);
    s.workloads = {WorkloadKind::DB};
    SimResults base = runSpec(s);
    s.idealEliminate.fill(true);
    SimResults ideal = runSpec(s);
    EXPECT_GT(ideal.ipc, base.ipc * 1.05);
    EXPECT_EQ(ideal.l1iMisses, 0u);
    EXPECT_GT(ideal.l1iEliminated, 0u);
}

TEST(System, LimitStudyPartialElimination)
{
    RunSpec s = fastSpec(false);
    s.workloads = {WorkloadKind::DB};
    s.idealEliminate[static_cast<std::size_t>(
        MissGroup::Sequential)] = true;
    SimResults seq = runSpec(s);
    // Sequential misses are gone; CTI misses remain.
    EXPECT_EQ(seq.l1iMissByTransition[static_cast<std::size_t>(
                  FetchTransition::Sequential)],
              0u);
    std::uint64_t cti = 0;
    for (std::size_t i = 1; i < seq.l1iMissByTransition.size(); ++i)
        cti += seq.l1iMissByTransition[i];
    EXPECT_GT(cti, 0u);
}

TEST(System, MixedCmpRunsFourApplications)
{
    RunSpec s;
    s.cmp = true;
    s.workloads = {WorkloadKind::DB, WorkloadKind::TPCW,
                   WorkloadKind::JAPP, WorkloadKind::WEB};
    s.instrScale = 0.15;
    s.functional = true;
    System system(makeConfig(s));
    SimResults r = system.run();
    EXPECT_GT(r.instructions, 0u);
    EXPECT_EQ(system.config().workloadSetName(), "Mixed");
    EXPECT_TRUE(system.config().isMixed());
}

TEST(System, TimeSlicedSingleCoreMix)
{
    RunSpec s;
    s.cmp = false;
    s.workloads = {WorkloadKind::DB, WorkloadKind::TPCW,
                   WorkloadKind::JAPP, WorkloadKind::WEB};
    s.instrScale = 0.15;
    System system(makeConfig(s));
    SimResults r = system.run();
    EXPECT_GT(r.instructions, 0u);
    // All four walkers made progress across the slices.
    int active = 0;
    for (std::size_t i = 0; i < system.workloadCount(); ++i)
        active += system.workload(i).instructionsEmitted() > 0;
    EXPECT_EQ(active, 4);
}

TEST(System, StatsDump)
{
    RunSpec s = fastSpec(false, "discontinuity");
    System system(makeConfig(s));
    system.run();
    std::ostringstream os;
    system.dumpStats(os);
    EXPECT_NE(os.str().find("hierarchy.l1i_misses"),
              std::string::npos);
    EXPECT_NE(os.str().find("prefetch.0.issued"), std::string::npos);
    EXPECT_NE(os.str().find("core.0.committed"), std::string::npos);
}

TEST(System, MemoryBandwidthAccounted)
{
    SimResults r = runSpec(fastSpec(true));
    EXPECT_GT(r.memReads, 0u);
    EXPECT_GE(r.memReads, r.l2iMisses + r.l2dMisses);
}

TEST(System, CoverageAndAccuracyInRange)
{
    SimResults r =
        runSpec(fastSpec(true, "discontinuity"));
    EXPECT_GT(r.pfAccuracy(), 0.05);
    EXPECT_LE(r.pfAccuracy(), 1.0);
    EXPECT_GT(r.l1iCoverage(), 0.3);
    EXPECT_LE(r.l1iCoverage(), 1.0);
}

TEST(System, InvalidConfigsThrow)
{
    SystemConfig bad;
    bad.numCores = 0;
    test::expectThrows<ConfigError>([&] { System s{bad}; },
                                    "numCores");
    SystemConfig bad2;
    bad2.workloads.clear();
    test::expectThrows<ConfigError>([&] { System s{bad2}; },
                                    "no workloads");
    SystemConfig bad3;
    bad3.numCores = 4;
    bad3.workloads = {WorkloadKind::DB, WorkloadKind::WEB};
    test::expectThrows<ConfigError>([&] { System s{bad3}; },
                                    "workload list");
}

TEST(System, BranchPredictionReasonable)
{
    SimResults r = runSpec(fastSpec(false));
    ASSERT_GT(r.branchCtis, 0u);
    double mispredict_rate =
        static_cast<double>(r.branchMispredicts) /
        static_cast<double>(r.branchCtis);
    EXPECT_LT(mispredict_rate, 0.25);
}
