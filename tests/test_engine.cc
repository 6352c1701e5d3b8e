/**
 * @file
 * Tests for the prefetch engine: filtering, tag-port arbitration,
 * issue, usefulness accounting and predictor crediting.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "prefetch/discontinuity.hh"
#include "prefetch/engine.hh"

using namespace ipref;

namespace
{

constexpr Addr codeA = 0x10000000;

HierarchyParams
functionalParams(bool bypass = false)
{
    HierarchyParams p;
    p.numCores = 1;
    p.prefetchBypassL2 = bypass;
    p.makeFunctional();
    return p;
}

PrefetchConfig
n4lConfig()
{
    PrefetchConfig cfg;
    cfg.schemeToken = "n4l";
    cfg.degree = 4;
    return cfg;
}

DemandFetchEvent
missEvent(Addr line, Addr prev = invalidAddr)
{
    DemandFetchEvent e;
    e.lineAddr = line;
    e.prevLineAddr = prev;
    e.miss = true;
    return e;
}

} // namespace

TEST(Engine, DisabledWithoutScheme)
{
    CacheHierarchy h(functionalParams());
    PrefetchEngine e(PrefetchConfig{}, 0, h);
    EXPECT_FALSE(e.enabled());
    e.onDemandFetch(missEvent(codeA));
    e.tick(0, true);
    EXPECT_EQ(e.issued.value(), 0u);
}

TEST(Engine, IssuesOnFreeTagPort)
{
    CacheHierarchy h(functionalParams());
    PrefetchEngine e(n4lConfig(), 0, h);
    e.onDemandFetch(missEvent(codeA));
    EXPECT_EQ(e.candidates.value(), 4u);
    e.tick(1, /*tagPortFree=*/false);
    EXPECT_EQ(e.issued.value(), 0u); // port busy
    for (Cycle t = 2; t < 10; ++t)
        e.tick(t, true);
    EXPECT_EQ(e.issued.value(), 4u);
    EXPECT_EQ(e.tagProbes.value(), 4u);
    // The prefetched lines landed in the L1I.
    h.drainAll();
    EXPECT_TRUE(h.l1i(0).probe(codeA + 64));
    EXPECT_TRUE(h.l1i(0).probe(codeA + 4 * 64));
}

TEST(Engine, OneProbePerCycle)
{
    CacheHierarchy h(functionalParams());
    PrefetchEngine e(n4lConfig(), 0, h);
    e.onDemandFetch(missEvent(codeA));
    e.tick(1, true);
    EXPECT_EQ(e.tagProbes.value(), 1u);
}

TEST(Engine, RecentFetchFilterDrops)
{
    CacheHierarchy h(functionalParams());
    PrefetchEngine e(n4lConfig(), 0, h);
    // Demand-fetch the next line first, then trigger at codeA: the
    // candidate for codeA+64 matches recent history and is dropped.
    e.onDemandFetch(missEvent(codeA + 64));
    e.onDemandFetch(missEvent(codeA));
    EXPECT_GE(e.filteredRecent.value(), 1u);
}

TEST(Engine, ProbeHitDropsResidentLines)
{
    CacheHierarchy h(functionalParams());
    PrefetchEngine e(n4lConfig(), 0, h);
    // Line already resident.
    h.fetchAccess(0, codeA + 64, FetchTransition::Sequential, 0);
    DemandFetchEvent ev = missEvent(codeA);
    // (not in history: use a different engine event path)
    e.onDemandFetch(ev);
    for (Cycle t = 1; t < 10; ++t)
        e.tick(t, true);
    EXPECT_GE(e.tagProbeHits.value(), 1u);
    EXPECT_EQ(e.issued.value(), 3u); // the other three lines
}

TEST(Engine, UsefulnessAccounting)
{
    CacheHierarchy h(functionalParams());
    PrefetchEngine e(n4lConfig(), 0, h);
    e.onDemandFetch(missEvent(codeA));
    for (Cycle t = 1; t < 10; ++t)
        e.tick(t, true);
    h.drainAll();
    ASSERT_EQ(e.issued.value(), 4u);
    // Demand uses one prefetched line: the hierarchy reports first
    // use and the engine credits it.
    FetchResult r = h.fetchAccess(0, codeA + 64,
                                  FetchTransition::Sequential, 20);
    ASSERT_TRUE(r.firstUseOfPrefetch);
    DemandFetchEvent ev;
    ev.lineAddr = codeA + 64;
    ev.prevLineAddr = codeA;
    ev.firstUseOfPrefetch = true;
    e.onDemandFetch(ev);
    EXPECT_EQ(e.usefulPrefetches.value(), 1u);
    EXPECT_NEAR(e.accuracy(), 0.25, 1e-9);
}

TEST(Engine, UselessTrackedOnEviction)
{
    CacheHierarchy h(functionalParams());
    PrefetchEngine e(n4lConfig(), 0, h);
    e.onDemandFetch(missEvent(codeA));
    for (Cycle t = 1; t < 10; ++t)
        e.tick(t, true);
    h.drainAll();
    // Conflict-evict codeA+64 without using it.
    std::uint64_t sets = h.l1i(0).params().numSets();
    unsigned assoc = h.l1i(0).params().assoc;
    for (unsigned i = 1; i <= assoc; ++i)
        h.fetchAccess(0, codeA + 64 + i * sets * 64,
                      FetchTransition::Sequential, 100 + i);
    h.drainAll();
    EXPECT_GE(e.uselessPrefetches.value(), 1u);
}

TEST(Engine, DiscontinuityCreditPath)
{
    CacheHierarchy h(functionalParams());
    PrefetchConfig cfg;
    cfg.schemeToken = "discontinuity";
    cfg.degree = 4;
    cfg.tableEntries = 256;
    PrefetchEngine e(cfg, 0, h);
    auto *disc =
        dynamic_cast<DiscontinuityPrefetcher *>(e.prefetcher());
    ASSERT_NE(disc, nullptr);

    // Teach the predictor: codeA -> 0x20000000.
    e.onDemandFetch(missEvent(0x20000000, codeA));
    ASSERT_TRUE(disc->predictor().lookup(codeA).has_value());

    // Age the target out of the recent-fetch filter (32 entries),
    // otherwise the engine correctly suppresses the prefetch.
    for (unsigned i = 0; i < 33; ++i)
        e.onDemandFetch(missEvent(0x30000000 + i * 64ull));

    // Trigger at codeA: target run gets prefetched.
    e.onDemandFetch(missEvent(codeA));
    for (Cycle t = 1; t < 20; ++t)
        e.tick(t, true);
    h.drainAll();
    ASSERT_TRUE(h.l1i(0).probe(0x20000000));

    // Demand-use the discontinuity target: predictor entry credited.
    FetchResult r = h.fetchAccess(0, 0x20000000,
                                  FetchTransition::UncondBranch, 50);
    ASSERT_TRUE(r.firstUseOfPrefetch);
    DemandFetchEvent ev;
    ev.lineAddr = 0x20000000;
    ev.prevLineAddr = codeA;
    ev.firstUseOfPrefetch = true;
    e.onDemandFetch(ev);
    EXPECT_GE(e.usefulPrefetches.value(), 1u);
}

TEST(Engine, DemandInvalidatesQueuedPrefetch)
{
    CacheHierarchy h(functionalParams());
    PrefetchEngine e(n4lConfig(), 0, h);
    e.onDemandFetch(missEvent(codeA));
    // Before any issue, demand reaches codeA+64.
    e.onDemandFetch(missEvent(codeA + 64, codeA));
    EXPECT_GE(e.queue().demandInvalidations.value(), 1u);
}

TEST(Engine, StatsRegistration)
{
    CacheHierarchy h(functionalParams());
    PrefetchEngine e(n4lConfig(), 0, h);
    StatGroup g("pf");
    e.registerStats(g);
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("pf.issued"), std::string::npos);
    EXPECT_NE(os.str().find("pf.accuracy"), std::string::npos);
}
