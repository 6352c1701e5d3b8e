/**
 * @file
 * Tests for the prefetcher candidate generators: next-line family,
 * the discontinuity predictor/prefetcher, and the target baseline.
 */

#include <gtest/gtest.h>

#include "error_helpers.hh"

#include <algorithm>

#include "prefetch/discontinuity.hh"
#include "prefetch/next_line.hh"
#include "prefetch/scheme_registry.hh"
#include "prefetch/target_prefetcher.hh"

using namespace ipref;

namespace
{

DemandFetchEvent
event(Addr line, Addr prev = invalidAddr, bool miss = false,
      bool first_use = false)
{
    DemandFetchEvent e;
    e.lineAddr = line;
    e.prevLineAddr = prev;
    e.miss = miss;
    e.firstUseOfPrefetch = first_use;
    return e;
}

std::vector<Addr>
lines(const std::vector<PrefetchCandidate> &cands)
{
    std::vector<Addr> v;
    for (const auto &c : cands)
        v.push_back(c.lineAddr);
    return v;
}

} // namespace

TEST(NextLine, OnMissTriggersOnlyOnMiss)
{
    NextLinePrefetcher p(NextLinePrefetcher::Policy::OnMiss, 1, 64);
    std::vector<PrefetchCandidate> out;
    p.onDemandFetch(event(0x1000, invalidAddr, false), out);
    EXPECT_TRUE(out.empty());
    p.onDemandFetch(event(0x1000, invalidAddr, true), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].lineAddr, 0x1040u);
}

TEST(NextLine, TaggedTriggersOnFirstUse)
{
    NextLinePrefetcher p(NextLinePrefetcher::Policy::Tagged, 1, 64);
    std::vector<PrefetchCandidate> out;
    p.onDemandFetch(event(0x1000, invalidAddr, false, false), out);
    EXPECT_TRUE(out.empty());
    p.onDemandFetch(event(0x1000, invalidAddr, false, true), out);
    EXPECT_EQ(out.size(), 1u);
}

TEST(NextLine, AlwaysTriggersAlways)
{
    NextLinePrefetcher p(NextLinePrefetcher::Policy::Always, 1, 64);
    std::vector<PrefetchCandidate> out;
    p.onDemandFetch(event(0x1000), out);
    EXPECT_EQ(out.size(), 1u);
}

TEST(NextLine, DegreeGeneratesRun)
{
    NextLinePrefetcher p(NextLinePrefetcher::Policy::Tagged, 4, 64);
    std::vector<PrefetchCandidate> out;
    p.onDemandFetch(event(0x1000, invalidAddr, true), out);
    EXPECT_EQ(lines(out),
              (std::vector<Addr>{0x1040, 0x1080, 0x10C0, 0x1100}));
}

TEST(NextLine, LookaheadSkipsToNth)
{
    NextLinePrefetcher p(NextLinePrefetcher::Policy::Tagged, 4, 64,
                         /*lookahead=*/true);
    std::vector<PrefetchCandidate> out;
    p.onDemandFetch(event(0x1000, invalidAddr, true), out);
    EXPECT_EQ(lines(out), (std::vector<Addr>{0x1100}));
}

TEST(NextLine, RespectsLineSize)
{
    NextLinePrefetcher p(NextLinePrefetcher::Policy::Tagged, 1, 128);
    std::vector<PrefetchCandidate> out;
    p.onDemandFetch(event(0x2000, invalidAddr, true), out);
    EXPECT_EQ(out[0].lineAddr, 0x2080u);
}

TEST(DiscPredictor, AllocateAndLookup)
{
    DiscontinuityPredictor p(256, 64);
    EXPECT_FALSE(p.lookup(0x1000).has_value());
    p.allocate(0x1000, 0x9000);
    auto hit = p.lookup(0x1000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->target, 0x9000u);
    EXPECT_EQ(p.validEntries(), 1u);
    EXPECT_EQ(p.allocations.value(), 1u);
}

TEST(DiscPredictor, EvictionCounterProtects)
{
    DiscontinuityPredictor p(1, 64); // one entry: everything conflicts
    p.allocate(0x1000, 0x9000);
    // Three decays drain the 2-bit counter; the 4th conflict evicts.
    p.allocate(0x2000, 0xA000);
    p.allocate(0x2000, 0xA000);
    p.allocate(0x2000, 0xA000);
    EXPECT_EQ(p.lookup(0x1000)->target, 0x9000u);
    EXPECT_EQ(p.replacements.value(), 0u);
    p.allocate(0x2000, 0xA000);
    EXPECT_FALSE(p.lookup(0x1000).has_value());
    EXPECT_EQ(p.lookup(0x2000)->target, 0xA000u);
    EXPECT_EQ(p.replacements.value(), 1u);
    EXPECT_EQ(p.decays.value(), 3u);
}

TEST(DiscPredictor, CreditRestoresProtection)
{
    DiscontinuityPredictor p(1, 64);
    p.allocate(0x1000, 0x9000);
    p.allocate(0x2000, 0xA000);
    p.allocate(0x2000, 0xA000);
    // Counter is at 1; a useful prefetch bumps it back up.
    p.credit(p.lookup(0x1000)->index);
    p.allocate(0x2000, 0xA000);
    p.allocate(0x2000, 0xA000);
    EXPECT_TRUE(p.lookup(0x1000).has_value()); // still protected
}

TEST(DiscPredictor, RetargetRequiresDrainedCounter)
{
    DiscontinuityPredictor p(256, 64);
    p.allocate(0x1000, 0x9000);
    // Same trigger, new target: must drain the counter first.
    for (int i = 0; i < 3; ++i) {
        p.allocate(0x1000, 0xB000);
        EXPECT_EQ(p.lookup(0x1000)->target, 0x9000u);
    }
    p.allocate(0x1000, 0xB000);
    EXPECT_EQ(p.lookup(0x1000)->target, 0xB000u);
    EXPECT_EQ(p.retargets.value(), 1u);
}

TEST(DiscPredictor, ReallocateSameMappingIsIdempotent)
{
    DiscontinuityPredictor p(256, 64);
    p.allocate(0x1000, 0x9000);
    p.allocate(0x1000, 0x9000);
    p.allocate(0x1000, 0x9000);
    EXPECT_EQ(p.allocations.value(), 1u);
    EXPECT_EQ(p.decays.value(), 0u);
}

TEST(DiscPredictor, NonPow2Throws)
{
    test::expectThrows<ConfigError>(
        [] { DiscontinuityPredictor p{100, 64}; }, "power");
}

TEST(DiscPrefetcher, LearnsOnDiscontinuityMiss)
{
    DiscontinuityPrefetcher p(256, 4, 64);
    std::vector<PrefetchCandidate> out;
    // A miss on a far transition 0x1000 -> 0x9000 allocates.
    p.onDemandFetch(event(0x9000, 0x1000, true), out);
    EXPECT_TRUE(p.predictor().lookup(0x1000).has_value());
}

TEST(DiscPrefetcher, IgnoresSequentialAndSameLine)
{
    DiscontinuityPrefetcher p(256, 4, 64);
    std::vector<PrefetchCandidate> out;
    p.onDemandFetch(event(0x1040, 0x1000, true), out); // next line
    EXPECT_EQ(p.predictor().validEntries(), 0u);
    out.clear();
    p.onDemandFetch(event(0x1000, 0x1000, true), out); // same line
    EXPECT_EQ(p.predictor().validEntries(), 0u);
}

TEST(DiscPrefetcher, NoLearningOnHits)
{
    DiscontinuityPrefetcher p(256, 4, 64);
    std::vector<PrefetchCandidate> out;
    p.onDemandFetch(event(0x9000, 0x1000, false), out);
    EXPECT_EQ(p.predictor().validEntries(), 0u);
}

TEST(DiscPrefetcher, SequentialComponentAlwaysEmitted)
{
    DiscontinuityPrefetcher p(256, 4, 64);
    std::vector<PrefetchCandidate> out;
    p.onDemandFetch(event(0x1000, invalidAddr, true), out);
    auto v = lines(out);
    EXPECT_EQ(v, (std::vector<Addr>{0x1040, 0x1080, 0x10C0, 0x1100}));
    for (const auto &c : out)
        EXPECT_EQ(c.origin, PrefetchOrigin::Sequential);
}

TEST(DiscPrefetcher, ProbeAheadFindsDiscontinuity)
{
    DiscontinuityPrefetcher p(256, 4, 64);
    std::vector<PrefetchCandidate> out;
    // Teach: 0x1080 jumps to 0x9000.
    p.onDemandFetch(event(0x9000, 0x1080, true), out);
    out.clear();
    // Trigger at 0x1000: probing L..L+4 hits at 0x1080 (k=2), so
    // the target run 0x9000..0x9000+(4-2)*64 is prefetched too.
    p.onDemandFetch(event(0x1000, invalidAddr, true), out);
    auto v = lines(out);
    EXPECT_NE(std::find(v.begin(), v.end(), 0x9000u), v.end());
    EXPECT_NE(std::find(v.begin(), v.end(), 0x9040u), v.end());
    EXPECT_NE(std::find(v.begin(), v.end(), 0x9080u), v.end());
    EXPECT_EQ(std::find(v.begin(), v.end(), 0x90C0u), v.end());
    // The discontinuity-origin candidate carries the table index.
    bool found = false;
    for (const auto &c : out) {
        if (c.origin == PrefetchOrigin::Discontinuity) {
            EXPECT_EQ(c.lineAddr, 0x9000u);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(DiscPrefetcher, CreditFlowsToPredictor)
{
    DiscontinuityPrefetcher p(1, 4, 64);
    std::vector<PrefetchCandidate> out;
    p.onDemandFetch(event(0x9000, 0x1000, true), out);
    // Drain protection, then credit, then verify protection again.
    p.predictor().allocate(0x2000, 0xA000);
    p.predictor().allocate(0x2000, 0xA000);
    p.predictor().allocate(0x2000, 0xA000);
    auto hit = p.predictor().lookup(0x1000);
    ASSERT_TRUE(hit.has_value());
    p.prefetchUseful(hit->index);
    p.predictor().allocate(0x2000, 0xA000);
    EXPECT_TRUE(p.predictor().lookup(0x1000).has_value());
}

TEST(DiscPrefetcher, Degree2Window)
{
    DiscontinuityPrefetcher p(256, 2, 64);
    std::vector<PrefetchCandidate> out;
    p.onDemandFetch(event(0x1000, invalidAddr, true), out);
    EXPECT_EQ(lines(out), (std::vector<Addr>{0x1040, 0x1080}));
    EXPECT_STREQ(p.name(), "discontinuity (2NL)");
}

TEST(TargetPrefetcher, LearnsSuccessors)
{
    TargetPrefetcher p(256, 2, 64);
    std::vector<PrefetchCandidate> out;
    // Walk 0x1000 -> 0x9000 twice so the successor is learned.
    p.onDemandFetch(event(0x1000), out);
    p.onDemandFetch(event(0x9000), out);
    p.onDemandFetch(event(0x1000), out);
    out.clear();
    p.onDemandFetch(event(0x1000), out);
    // Actually need the probe of 0x1000 after learning:
    auto v = lines(out);
    EXPECT_NE(std::find(v.begin(), v.end(), 0x9000u), v.end());
}

TEST(TargetPrefetcher, MultipleTargetsRetained)
{
    TargetPrefetcher p(256, 2, 64);
    std::vector<PrefetchCandidate> out;
    // 0x1000 alternates between 0x9000 and 0xA000.
    p.onDemandFetch(event(0x1000), out);
    p.onDemandFetch(event(0x9000), out);
    p.onDemandFetch(event(0x1000), out);
    p.onDemandFetch(event(0xA000), out);
    out.clear();
    p.onDemandFetch(event(0x1000), out);
    auto v = lines(out);
    EXPECT_NE(std::find(v.begin(), v.end(), 0x9000u), v.end());
    EXPECT_NE(std::find(v.begin(), v.end(), 0xA000u), v.end());
}

TEST(TargetPrefetcher, SequentialSuccessorsNotRecorded)
{
    TargetPrefetcher p(256, 2, 64, /*nonSeqOnly=*/true);
    std::vector<PrefetchCandidate> out;
    p.onDemandFetch(event(0x1000), out);
    p.onDemandFetch(event(0x1040), out); // sequential
    out.clear();
    p.onDemandFetch(event(0x1000), out);
    for (const auto &c : out)
        EXPECT_NE(c.origin, PrefetchOrigin::TargetTable);
}

TEST(Factory, CreatesAllSchemes)
{
    for (const SchemeDescriptor *d : SchemeRegistry::instance().all()) {
        PrefetchConfig cfg;
        cfg.schemeToken = d->token;
        auto p = createPrefetcher(cfg);
        if (d->token == "none") {
            EXPECT_EQ(p, nullptr);
            continue;
        }
        ASSERT_NE(p, nullptr) << d->token;
        EXPECT_NE(p->name(), nullptr);
    }
}

TEST(Factory, ParseSchemeRoundTrip)
{
    for (const SchemeDescriptor *d : SchemeRegistry::instance().all()) {
        EXPECT_EQ(parseSchemeSpec(d->token).token, d->token);
        for (const std::string &alias : d->aliases)
            EXPECT_EQ(parseSchemeSpec(alias).token, d->token);
    }
    EXPECT_EQ(parseSchemeSpec("disc").token, "discontinuity");
    test::expectThrows<ConfigError>([] { parseSchemeSpec("bogus"); },
                                    "unknown prefetch scheme");
}
