/**
 * @file
 * Cross-cutting property tests on full-system runs: accounting
 * invariants that must hold for ANY configuration, checked over a
 * parameterized sweep of workloads × schemes × chip shapes.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "scheme_params.hh"
#include "sim/experiment.hh"

using namespace ipref;

namespace
{

std::uint64_t
sumTransitions(const std::array<
               std::uint64_t,
               static_cast<std::size_t>(
                   FetchTransition::NumTransitions)> &a)
{
    std::uint64_t total = 0;
    for (auto v : a)
        total += v;
    return total;
}

} // namespace

using PropertyParams =
    std::tuple<WorkloadKind, std::string, bool /*cmp*/,
               bool /*bypass*/>;

class SimInvariants
    : public ::testing::TestWithParam<PropertyParams>
{
  protected:
    SimResults
    run()
    {
        auto [kind, scheme, cmp, bypass] = GetParam();
        RunSpec spec;
        spec.cmp = cmp;
        spec.workloads = {kind};
        spec.schemeToken = scheme;
        spec.bypassL2 = bypass;
        spec.instrScale = 0.08;
        return runSpec(spec);
    }
};

TEST_P(SimInvariants, AccountingHolds)
{
    SimResults r = run();

    // The run actually ran.
    ASSERT_GT(r.instructions, 0u);
    ASSERT_GT(r.cycles, 0u);

    // Miss categorization is complete: per-category counts sum to
    // the total misses at both levels.
    EXPECT_EQ(sumTransitions(r.l1iMissByTransition), r.l1iMisses);
    EXPECT_EQ(sumTransitions(r.l2iMissByTransition), r.l2iMisses);

    // The demand path narrows monotonically.
    EXPECT_LE(r.l2iMisses, r.l1iMisses);
    EXPECT_LE(r.l2dMisses, r.l1dMisses);
    EXPECT_LE(r.l1iMisses, r.fetchLineAccesses);

    // Every off-chip read is a demand L2 miss or a prefetch.
    EXPECT_LE(r.l2iMisses + r.l2dMisses,
              r.memReads + 64 /* in-flight slack */);
    EXPECT_LE(r.memPrefetchReads, r.memReads);

    // Prefetch accounting: useful/useless partition issued lines
    // (some may still be resident or in flight at the cut).
    EXPECT_LE(r.pfUseful + r.pfUseless,
              r.pfIssued + 64 /* carryover from warmup */);
    EXPECT_LE(r.pfLate, r.pfUseful);
    EXPECT_LE(r.pfTagProbeHits, r.pfTagProbes);

    // Rates are rates.
    EXPECT_GE(r.ipc, 0.0);
    EXPECT_LE(r.pfAccuracy(), 1.0);
    EXPECT_LE(r.l1iCoverage(), 1.0);

    auto [kind, scheme, cmp, bypass] = GetParam();
    (void)kind;
    (void)cmp;
    if (scheme == "none") {
        EXPECT_EQ(r.pfIssued, 0u);
        // Without prefetching, off-chip reads are exactly the
        // demand L2 misses (modulo in-flight at the window edges).
        EXPECT_NEAR(static_cast<double>(r.memReads),
                    static_cast<double>(r.l2iMisses + r.l2dMisses),
                    64.0);
    }
    if (!bypass) {
        EXPECT_EQ(r.bypassInstalls, 0u);
        EXPECT_EQ(r.bypassDrops, 0u);
    }
}

TEST_P(SimInvariants, DeterministicReplay)
{
    SimResults a = run();
    SimResults b = run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l1iMisses, b.l1iMisses);
    EXPECT_EQ(a.pfIssued, b.pfIssued);
    EXPECT_EQ(a.memReads, b.memReads);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimInvariants,
    ::testing::Combine(
        ::testing::Values(WorkloadKind::TPCW, WorkloadKind::WEB),
        ::testing::ValuesIn(test::allSchemeTokens()),
        ::testing::Bool(), ::testing::Bool()),
    [](const auto &p) {
        WorkloadKind kind = std::get<0>(p.param);
        bool cmp = std::get<2>(p.param);
        bool bypass = std::get<3>(p.param);
        std::string n = workloadName(kind);
        n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
        n += "_" + test::schemeTestName(std::get<1>(p.param)) + "_";
        n += cmp ? "Cmp" : "Single";
        n += bypass ? "Bypass" : "Install";
        return n;
    });

TEST(SimProperties, L2CapacityMonotonicity)
{
    // More L2 never increases demand instruction misses
    // (functional, LRU stack property holds statistically).
    std::uint64_t prev = ~0ull;
    for (std::uint64_t mb : {1, 2, 4, 8}) {
        RunSpec spec;
        spec.cmp = true;
        spec.workloads = {WorkloadKind::DB};
        spec.functional = true;
        spec.l2Bytes = mb << 20;
        spec.instrScale = 0.3;
        SimResults r = runSpec(spec);
        EXPECT_LE(r.l2iMisses, prev + prev / 10);
        prev = r.l2iMisses;
    }
}

TEST(SimProperties, DegreeIncreasesCoverage)
{
    double prev = -1.0;
    for (unsigned n : {1u, 2u, 4u}) {
        RunSpec spec;
        spec.cmp = true;
        spec.workloads = {WorkloadKind::DB};
        spec.schemeToken = "n4l";
        spec.degree = n;
        spec.instrScale = 0.15;
        SimResults r = runSpec(spec);
        EXPECT_GT(r.l1iCoverage(), prev);
        prev = r.l1iCoverage();
    }
}

TEST(SimProperties, SeedsPerturbButDoNotReshape)
{
    // Different base seeds change the exact interleaving but the
    // miss rate stays in a band (the workload is stationary).
    RunSpec spec;
    spec.cmp = false;
    spec.workloads = {WorkloadKind::TPCW};
    spec.functional = true;
    spec.instrScale = 0.3;
    spec.baseSeed = 1;
    double a = runSpec(spec).l1iMissPerInstr();
    spec.baseSeed = 99;
    double b = runSpec(spec).l1iMissPerInstr();
    EXPECT_NE(a, b);
    EXPECT_NEAR(a, b, 0.5 * std::max(a, b));
}

TEST(SimProperties, WarmupExcludedFromResults)
{
    // Doubling the warm-up should not change per-instruction rates
    // much (they are measured after warm-up).
    RunSpec spec;
    spec.cmp = false;
    spec.workloads = {WorkloadKind::WEB};
    spec.functional = true;
    spec.instrScale = 0.4;
    SystemConfig cfg = makeConfig(spec);
    System s1(cfg);
    SimResults r1 = s1.run();
    cfg.warmupInstrs *= 2;
    System s2(cfg);
    SimResults r2 = s2.run();
    EXPECT_EQ(r1.instructions, r2.instructions);
    EXPECT_NEAR(r1.l1iMissPerInstr(), r2.l1iMissPerInstr(),
                0.3 * r1.l1iMissPerInstr());
}
