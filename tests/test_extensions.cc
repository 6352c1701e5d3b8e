/**
 * @file
 * Tests for the related-work extensions: the wrong-path prefetcher
 * [12] and the confidence-based probe filter [15].
 */

#include <gtest/gtest.h>

#include "error_helpers.hh"

#include "cache/hierarchy.hh"
#include "prefetch/confidence_filter.hh"
#include "prefetch/call_graph.hh"
#include "prefetch/engine.hh"
#include "prefetch/scheme_registry.hh"
#include "prefetch/wrong_path.hh"
#include "sim/experiment.hh"

using namespace ipref;

namespace
{

constexpr Addr codeA = 0x10000000;

BranchEvent
branch(Addr pc, Addr target, bool taken)
{
    BranchEvent e;
    e.branchPc = pc;
    e.takenTarget = target;
    e.fallthrough = pc + instrBytes;
    e.taken = taken;
    return e;
}

} // namespace

TEST(WrongPath, PrefetchesUntakenTarget)
{
    WrongPathPrefetcher p(1, 64);
    std::vector<PrefetchCandidate> out;
    // Not-taken branch: the wrong path is the taken target.
    p.onBranch(branch(codeA, codeA + 0x1000, false), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].lineAddr, codeA + 0x1000);
}

TEST(WrongPath, PrefetchesFallthroughOnTaken)
{
    WrongPathPrefetcher p(1, 64);
    std::vector<PrefetchCandidate> out;
    // Taken branch whose fallthrough is in another line.
    Addr pc = codeA + 60; // last slot of the line
    p.onBranch(branch(pc, codeA + 0x1000, true), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].lineAddr, codeA + 64);
}

TEST(WrongPath, SkipsSameLineAlternatives)
{
    WrongPathPrefetcher p(1, 64);
    std::vector<PrefetchCandidate> out;
    // Both directions land in the same line: nothing to prefetch.
    p.onBranch(branch(codeA, codeA + 16, false), out);
    EXPECT_TRUE(out.empty());
}

TEST(WrongPath, DegreeExtendsWrongPathRun)
{
    WrongPathPrefetcher p(2, 64);
    std::vector<PrefetchCandidate> out;
    p.onBranch(branch(codeA, codeA + 0x1000, false), out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[1].lineAddr, codeA + 0x1000 + 64);
}

TEST(WrongPath, SequentialComponentOnTrigger)
{
    WrongPathPrefetcher p(1, 64);
    std::vector<PrefetchCandidate> out;
    DemandFetchEvent ev;
    ev.lineAddr = codeA;
    ev.miss = true;
    p.onDemandFetch(ev, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].lineAddr, codeA + 64);
}

TEST(Confidence, OptimisticDefaultAllowsColdPrefetches)
{
    ConfidenceFilter f(256, 64);
    EXPECT_TRUE(f.confident(codeA));
}

TEST(Confidence, IneffectivePrefetchesDrainConfidence)
{
    ConfidenceFilter f(256, 64, /*threshold=*/2, /*initial=*/2);
    f.prefetchIneffective(codeA);
    EXPECT_FALSE(f.confident(codeA));
    EXPECT_EQ(f.decrements.value(), 1u);
    EXPECT_GE(f.suppressed.value(), 1u);
}

TEST(Confidence, EvictionRestoresConfidence)
{
    ConfidenceFilter f(256, 64);
    f.prefetchIneffective(codeA);
    f.prefetchIneffective(codeA);
    EXPECT_FALSE(f.confident(codeA));
    f.lineEvicted(codeA);
    f.lineEvicted(codeA);
    EXPECT_TRUE(f.confident(codeA));
}

TEST(Confidence, CountersSaturate)
{
    ConfidenceFilter f(256, 64);
    for (int i = 0; i < 10; ++i)
        f.lineEvicted(codeA);
    EXPECT_EQ(f.increments.value(), 1u); // started at 2, max 3
    for (int i = 0; i < 10; ++i)
        f.prefetchIneffective(codeA);
    EXPECT_EQ(f.decrements.value(), 3u);
}

TEST(Confidence, NonPow2Throws)
{
    test::expectThrows<ConfigError>(
        [] { ConfidenceFilter f{100, 64}; }, "power");
}

TEST(ConfidenceEngine, ReplacesTagProbing)
{
    HierarchyParams hp;
    hp.makeFunctional();
    CacheHierarchy h(hp);
    PrefetchConfig cfg;
    cfg.schemeToken = "n4l";
    cfg.useConfidenceFilter = true;
    PrefetchEngine e(cfg, 0, h);

    DemandFetchEvent ev;
    ev.lineAddr = codeA;
    ev.miss = true;
    e.onDemandFetch(ev);
    for (Cycle t = 1; t < 10; ++t)
        e.tick(t, true);
    EXPECT_EQ(e.tagProbes.value(), 0u); // no tag-port pressure
    EXPECT_EQ(e.issued.value(), 4u);
}

TEST(ConfidenceEngine, LearnsResidentLines)
{
    HierarchyParams hp;
    hp.makeFunctional();
    CacheHierarchy h(hp);
    PrefetchConfig cfg;
    cfg.schemeToken = "nl-miss";
    cfg.useConfidenceFilter = true;
    cfg.confidenceEntries = 1; // one shared counter, for the test
    cfg.historySize = 0;       // isolate the confidence path
    PrefetchEngine e(cfg, 0, h);

    // An ineffective prefetch (line resident) drains the shared
    // counter below threshold; the next prefetch is suppressed
    // before reaching the caches.
    h.fetchAccess(0, codeA + 64, FetchTransition::Sequential, 0);
    DemandFetchEvent ev;
    ev.lineAddr = codeA;
    ev.miss = true;
    e.onDemandFetch(ev);
    e.tick(1, true); // DroppedPresent -> ineffective -> counter 1
    ev.lineAddr = codeA + 0x4000;
    e.onDemandFetch(ev);
    e.tick(2, true); // gated by the drained counter
    EXPECT_GE(e.confidenceSuppressed.value(), 1u);
}

TEST(ConfidenceEngine, EndToEndStillCoversMisses)
{
    RunSpec spec;
    spec.cmp = true;
    spec.workloads = {WorkloadKind::WEB};
    spec.instrScale = 0.15;
    SimResults base = runSpec(spec);

    spec.schemeToken = "discontinuity";
    SystemConfig cfg = makeConfig(spec);
    cfg.prefetch.useConfidenceFilter = true;
    System system(cfg);
    SimResults r = system.run();
    EXPECT_LT(r.l1iMissPerInstr(), base.l1iMissPerInstr());
    EXPECT_EQ(r.pfTagProbes, 0u);
}

TEST(WrongPathEngine, EndToEndReducesMisses)
{
    RunSpec spec;
    spec.cmp = true;
    spec.workloads = {WorkloadKind::WEB};
    spec.instrScale = 0.15;
    SimResults base = runSpec(spec);
    spec.schemeToken = "wrong-path";
    SimResults r = runSpec(spec);
    EXPECT_LT(r.l1iMissPerInstr(), base.l1iMissPerInstr());
    EXPECT_GT(r.pfIssued, 0u);
}

TEST(WrongPathEngine, ParseAndFactory)
{
    EXPECT_EQ(parseSchemeSpec("wrongpath").token, "wrong-path");
    PrefetchConfig cfg;
    cfg.schemeToken = "wrong-path";
    auto p = createPrefetcher(cfg);
    ASSERT_NE(p, nullptr);
    EXPECT_STREQ(p->name(), "wrong-path");
}

TEST(CallGraph, LearnsAndPredictsCalleeSequence)
{
    CallGraphPrefetcher p(256, 8, 1, 64);
    std::vector<PrefetchCandidate> out;
    auto call = [&](Addr site, Addr target) {
        FunctionEvent e;
        e.sitePc = site;
        e.target = target;
        p.onFunction(e, out);
    };
    auto ret = [&]() {
        FunctionEvent e;
        e.isReturn = true;
        p.onFunction(e, out);
    };
    // First pass: F (0x9000) calls G (0xA000) then H (0xB000).
    call(0x1000, 0x9000); // enter F
    call(0x9010, 0xA000); // F -> G
    ret();                // back in F
    call(0x9020, 0xB000); // F -> H
    ret();
    ret();                // leave F
    out.clear();
    // Second pass: entering F predicts G; returning from G
    // predicts H.
    call(0x1000, 0x9000);
    bool predicted_g = false;
    for (const auto &c : out)
        predicted_g |= c.lineAddr == (0xA000ull & ~63ull);
    EXPECT_TRUE(predicted_g);
    out.clear();
    call(0x9010, 0xA000);
    ret(); // back in F -> next predicted callee is H
    bool predicted_h = false;
    for (const auto &c : out)
        predicted_h |= c.lineAddr == (0xB000ull & ~63ull);
    EXPECT_TRUE(predicted_h);
    EXPECT_GE(p.tableHits.value(), 2u);
}

TEST(CallGraph, EmptyTableMakesNoPredictions)
{
    CallGraphPrefetcher p(256, 8, 1, 64);
    std::vector<PrefetchCandidate> out;
    FunctionEvent e;
    e.sitePc = 0x1000;
    e.target = 0x9000;
    p.onFunction(e, out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(p.predictions.value(), 0u);
}

TEST(CallGraph, EndToEndReducesMisses)
{
    RunSpec spec;
    spec.cmp = true;
    spec.workloads = {WorkloadKind::WEB};
    spec.instrScale = 0.15;
    SimResults base = runSpec(spec);
    spec.schemeToken = "call-graph";
    SimResults r = runSpec(spec);
    EXPECT_LT(r.l1iMissPerInstr(), base.l1iMissPerInstr());
    EXPECT_GT(r.pfIssued, 0u);
    EXPECT_EQ(parseSchemeSpec("cgp").token, "call-graph");
}
