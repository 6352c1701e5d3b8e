/**
 * @file
 * Shape-lock tests: parameterized sweeps asserting that the
 * synthetic workloads and prefetchers reproduce the paper's
 * qualitative results. Deliberately loose bounds — these protect the
 * calibration from regressions, not exact numbers.
 */

#include <gtest/gtest.h>

#include <map>

#include "scheme_params.hh"
#include "sim/experiment.hh"

using namespace ipref;

namespace
{

/** Functional CMP miss-rate run for one workload. */
SimResults
functionalRun(WorkloadKind kind, bool cmp, double scale = 0.5)
{
    RunSpec s;
    s.cmp = cmp;
    s.workloads = {kind};
    s.functional = true;
    s.instrScale = scale;
    return runSpec(s);
}

/** Cache of baseline results shared across tests in this file. */
SimResults &
cachedBaseline(WorkloadKind kind)
{
    static std::map<WorkloadKind, SimResults> cache;
    auto it = cache.find(kind);
    if (it == cache.end())
        it = cache.emplace(kind, functionalRun(kind, false)).first;
    return it->second;
}

} // namespace

class WorkloadShape
    : public ::testing::TestWithParam<WorkloadKind>
{};

TEST_P(WorkloadShape, L1IMissRateInPaperBand)
{
    // Paper Figure 1: 1.32% - 3.16% per instruction at the default
    // 32KB/4-way/64B configuration. Allow slack for the synthetic
    // substitution.
    SimResults r = cachedBaseline(GetParam());
    EXPECT_GT(r.l1iMissPerInstr(), 0.009);
    EXPECT_LT(r.l1iMissPerInstr(), 0.045);
}

TEST_P(WorkloadShape, MissBreakdownMatchesFigure3)
{
    SimResults r = cachedBaseline(GetParam());
    std::uint64_t total = 0;
    for (auto v : r.l1iMissByTransition)
        total += v;
    ASSERT_GT(total, 0u);
    auto frac = [&](FetchTransition t) {
        return static_cast<double>(
                   r.l1iMissByTransition[static_cast<std::size_t>(
                       t)]) /
               static_cast<double>(total);
    };
    double seq = frac(FetchTransition::Sequential);
    double branch = frac(FetchTransition::CondNotTaken) +
                    frac(FetchTransition::CondTakenFwd) +
                    frac(FetchTransition::CondTakenBack) +
                    frac(FetchTransition::UncondBranch);
    double func = frac(FetchTransition::Call) +
                  frac(FetchTransition::Jump) +
                  frac(FetchTransition::Return);
    double trap = frac(FetchTransition::Trap);
    // Paper: sequential 40-60%, branches 20-40%, calls 15-20%,
    // traps negligible (loose bounds).
    EXPECT_GT(seq, 0.35);
    EXPECT_LT(seq, 0.65);
    EXPECT_GT(branch, 0.12);
    EXPECT_LT(branch, 0.45);
    EXPECT_GT(func, 0.10);
    EXPECT_LT(func, 0.45);
    EXPECT_LT(trap, 0.02);
}

TEST_P(WorkloadShape, L2MissRateRisesOnCmp)
{
    SimResults single = cachedBaseline(GetParam());
    SimResults cmp = functionalRun(GetParam(), true);
    EXPECT_GT(cmp.l2iMissPerInstr(),
              single.l2iMissPerInstr() * 0.9);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadShape,
    ::testing::Values(WorkloadKind::DB, WorkloadKind::TPCW,
                      WorkloadKind::JAPP, WorkloadKind::WEB),
    [](const auto &p) {
        std::string n = workloadName(p.param);
        n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
        return n;
    });

TEST(CalibrationOrdering, JAppHighestWebLowest)
{
    double japp =
        cachedBaseline(WorkloadKind::JAPP).l1iMissPerInstr();
    double web = cachedBaseline(WorkloadKind::WEB).l1iMissPerInstr();
    double db = cachedBaseline(WorkloadKind::DB).l1iMissPerInstr();
    double tpcw =
        cachedBaseline(WorkloadKind::TPCW).l1iMissPerInstr();
    EXPECT_GT(japp, web);
    EXPECT_GT(db, web);
    EXPECT_GT(japp, tpcw);
}

class SchemeSweep : public ::testing::TestWithParam<std::string>
{};

TEST_P(SchemeSweep, ReducesMissesWithSaneAccuracy)
{
    RunSpec s;
    s.cmp = true;
    s.workloads = {WorkloadKind::DB};
    s.instrScale = 0.25;
    SimResults base = runSpec(s);
    s.schemeToken = GetParam();
    SimResults pf = runSpec(s);
    EXPECT_LT(pf.l1iMissPerInstr(), base.l1iMissPerInstr());
    EXPECT_GT(pf.pfAccuracy(), 0.08);
    EXPECT_GE(pf.ipc, base.ipc * 0.98);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeSweep,
    ::testing::Values("nl-miss", "nl-tagged", "n4l", "discontinuity",
                      "target"),
    [](const auto &p) { return test::schemeTestName(p.param); });

TEST(CalibrationPrefetch, CoverageOrdering)
{
    // Paper Figure 5: discontinuity > next-4-line > next-line.
    RunSpec s;
    s.cmp = true;
    s.workloads = {WorkloadKind::DB};
    s.instrScale = 0.25;
    s.schemeToken = "nl-tagged";
    double nl = runSpec(s).l1iMissPerInstr();
    s.schemeToken = "n4l";
    double n4l = runSpec(s).l1iMissPerInstr();
    s.schemeToken = "discontinuity";
    double disc = runSpec(s).l1iMissPerInstr();
    EXPECT_LT(n4l, nl);
    EXPECT_LT(disc, n4l);
}

TEST(CalibrationPrefetch, AccuracyFallsWithAggressiveness)
{
    // Paper Figure 9(i): next-line (on miss) is the most accurate;
    // the 4-line schemes trade accuracy for coverage.
    RunSpec s;
    s.cmp = true;
    s.workloads = {WorkloadKind::DB};
    s.instrScale = 0.25;
    s.schemeToken = "nl-miss";
    double nl = runSpec(s).pfAccuracy();
    s.schemeToken = "n4l";
    double n4l = runSpec(s).pfAccuracy();
    EXPECT_GT(nl, n4l);
}

TEST(CalibrationPrefetch, Discontinuity2NLMoreAccurate)
{
    // Paper Figure 9: halving the prefetch-ahead distance raises
    // accuracy.
    RunSpec s;
    s.cmp = true;
    s.workloads = {WorkloadKind::DB};
    s.instrScale = 0.25;
    s.schemeToken = "discontinuity";
    s.degree = 4;
    double d4 = runSpec(s).pfAccuracy();
    s.degree = 2;
    double d2 = runSpec(s).pfAccuracy();
    EXPECT_GT(d2, d4);
}

TEST(CalibrationPrefetch, SmallTablesStillCover)
{
    // Paper Figure 10: a 4x smaller table loses little coverage.
    RunSpec s;
    s.cmp = true;
    s.workloads = {WorkloadKind::DB};
    s.instrScale = 0.25;
    s.schemeToken = "discontinuity";
    s.tableEntries = 8192;
    double big = runSpec(s).l1iCoverage();
    s.tableEntries = 2048;
    double small = runSpec(s).l1iCoverage();
    s.tableEntries = 256;
    double tiny = runSpec(s).l1iCoverage();
    EXPECT_GT(small, big - 0.08);
    EXPECT_GT(tiny, 0.5 * big);
}

TEST(CalibrationBypass, RecoversPollutionWithoutLosingSpeed)
{
    RunSpec s;
    s.cmp = true;
    s.workloads = {WorkloadKind::DB};
    s.instrScale = 0.3;
    SimResults base = runSpec(s);
    s.schemeToken = "discontinuity";
    SimResults noBypass = runSpec(s);
    s.bypassL2 = true;
    SimResults bypass = runSpec(s);
    // Pollution appears without bypass and disappears with it.
    EXPECT_GT(noBypass.l2dMissPerInstr(),
              base.l2dMissPerInstr() * 1.01);
    EXPECT_LT(bypass.l2dMissPerInstr(),
              noBypass.l2dMissPerInstr());
    // Bypass must not cost performance.
    EXPECT_GE(bypass.ipc, noBypass.ipc * 0.97);
}
