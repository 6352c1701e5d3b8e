/**
 * @file
 * The batched fetch pipeline must be an observational no-op: a run
 * with the record-batch capacity forced to 1 (the seed's scalar pull)
 * and a run with the default capacity of 512 must produce
 * field-by-field identical SimResults, identical interval samples,
 * and the same exact CPI-stack conservation — across prefetch
 * schemes, workloads, core counts and both execution modes. Also
 * pins down the contract the functional-mode bench conversions
 * (fig01/fig05) rely on: functional miss rates track timing-mode
 * miss rates closely. Also locks the quiet-cycle contract the
 * sleeping timing loop relies on (QuietCycles).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <tuple>

#include "scheme_params.hh"
#include "sim/experiment.hh"

using namespace ipref;

namespace
{

/** Every field of SimResults, compared exactly. */
void
expectIdentical(const SimResults &a, const SimResults &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.fetchLineAccesses, b.fetchLineAccesses);
    EXPECT_EQ(a.l1iMisses, b.l1iMisses);
    EXPECT_EQ(a.l1iEliminated, b.l1iEliminated);
    EXPECT_EQ(a.l1iFirstUseHits, b.l1iFirstUseHits);
    EXPECT_EQ(a.l1iLateHits, b.l1iLateHits);
    EXPECT_EQ(a.l2iMisses, b.l2iMisses);
    EXPECT_EQ(a.l1dAccesses, b.l1dAccesses);
    EXPECT_EQ(a.l1dMisses, b.l1dMisses);
    EXPECT_EQ(a.l2dMisses, b.l2dMisses);
    EXPECT_EQ(a.l1iMissByTransition, b.l1iMissByTransition);
    EXPECT_EQ(a.l2iMissByTransition, b.l2iMissByTransition);
    EXPECT_EQ(a.pfCandidates, b.pfCandidates);
    EXPECT_EQ(a.pfIssued, b.pfIssued);
    EXPECT_EQ(a.pfIssuedOffChip, b.pfIssuedOffChip);
    EXPECT_EQ(a.pfUseful, b.pfUseful);
    EXPECT_EQ(a.pfLate, b.pfLate);
    EXPECT_EQ(a.pfUseless, b.pfUseless);
    EXPECT_EQ(a.pfFiltered, b.pfFiltered);
    EXPECT_EQ(a.pfTagProbes, b.pfTagProbes);
    EXPECT_EQ(a.pfTagProbeHits, b.pfTagProbeHits);
    EXPECT_EQ(a.pfIssuedByOrigin, b.pfIssuedByOrigin);
    EXPECT_EQ(a.pfUsefulByOrigin, b.pfUsefulByOrigin);
    EXPECT_EQ(a.pfMetaEntries, b.pfMetaEntries);
    EXPECT_EQ(a.pfMetaBytes, b.pfMetaBytes);
    EXPECT_EQ(a.pfMetaOffChipReads, b.pfMetaOffChipReads);
    EXPECT_EQ(a.pfMetaOffChipWrites, b.pfMetaOffChipWrites);
    EXPECT_EQ(a.bypassInstalls, b.bypassInstalls);
    EXPECT_EQ(a.bypassDrops, b.bypassDrops);
    EXPECT_EQ(a.memReads, b.memReads);
    EXPECT_EQ(a.memPrefetchReads, b.memPrefetchReads);
    EXPECT_EQ(a.memWrites, b.memWrites);
    EXPECT_EQ(a.memQueueDelayCycles, b.memQueueDelayCycles);
    EXPECT_EQ(a.branchCtis, b.branchCtis);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.cpiStack, b.cpiStack);
}

/** Run @p spec with the given record-batch capacity. */
SimResults
runWithBatch(const RunSpec &spec, unsigned batch,
             std::vector<IntervalSample> *samples = nullptr)
{
    SystemConfig cfg = makeConfig(spec);
    cfg.core.fetchBlockRecords = batch;
    if (samples)
        cfg.statsIntervalInstrs = 50'000;
    System system(cfg);
    SimResults r = system.run();
    if (samples)
        *samples = system.samples();
    return r;
}

RunSpec
spec(bool cmp, const std::string &scheme, WorkloadKind kind,
     double scale = 0.1)
{
    RunSpec s;
    s.cmp = cmp;
    s.workloads = {kind};
    s.schemeToken = scheme;
    s.instrScale = scale;
    return s;
}

} // namespace

TEST(BatchedPipeline, TimingResultsMatchScalarAcrossSchemes)
{
    const char *const schemes[] = {
        "none",
        "nl-tagged",
        "n4l",
        "discontinuity",
    };
    for (const char *scheme : schemes) {
        SCOPED_TRACE(scheme);
        RunSpec s = spec(false, scheme, WorkloadKind::WEB);
        expectIdentical(runWithBatch(s, 1), runWithBatch(s, 512));
    }
}

TEST(BatchedPipeline, TimingResultsMatchScalarOnCmp)
{
    RunSpec s =
        spec(true, "discontinuity", WorkloadKind::DB);
    expectIdentical(runWithBatch(s, 1), runWithBatch(s, 512));
}

TEST(BatchedPipeline, IntervalSamplesMatchScalar)
{
    RunSpec s =
        spec(true, "nl-miss", WorkloadKind::TPCW,
             0.2);
    std::vector<IntervalSample> scalar, batched;
    SimResults a = runWithBatch(s, 1, &scalar);
    SimResults b = runWithBatch(s, 512, &batched);
    expectIdentical(a, b);
    ASSERT_GE(scalar.size(), 2u);
    ASSERT_EQ(scalar.size(), batched.size());
    for (std::size_t i = 0; i < scalar.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(scalar[i].endInstructions,
                  batched[i].endInstructions);
        expectIdentical(scalar[i].delta, batched[i].delta);
    }
}

TEST(BatchedPipeline, CpiStackConservationHolds)
{
    RunSpec s =
        spec(true, "discontinuity", WorkloadKind::WEB);
    SimResults r = runWithBatch(s, 512);
    EXPECT_EQ(r.cpiStackTotal(), r.cycles * 4);
}

TEST(BatchedPipeline, FunctionalLockstepMatchesScalar)
{
    RunSpec s =
        spec(true, "discontinuity", WorkloadKind::JAPP);
    s.functional = true;
    expectIdentical(runWithBatch(s, 1), runWithBatch(s, 512));
}

TEST(BatchedPipeline, TimeSlicedMixMatchesScalar)
{
    // numCores == 1 with several workloads forces the batch capacity
    // to 1 internally (lazy single-record pull across slice swaps);
    // a capacity-512 config must behave identically.
    RunSpec s;
    s.cmp = false;
    s.workloads = {WorkloadKind::DB, WorkloadKind::TPCW,
                   WorkloadKind::JAPP, WorkloadKind::WEB};
    s.instrScale = 0.1;
    expectIdentical(runWithBatch(s, 1), runWithBatch(s, 512));
}

TEST(BatchedPipeline, FunctionalMissRatesTrackTiming)
{
    // The contract behind running the fig01/fig05 miss-rate studies
    // in functional mode: coverage is decided by which lines are
    // fetched, not by pipeline timing, so the functional miss rates
    // must sit within a small skew of the timing-mode ones.
    const WorkloadKind kinds[] = {WorkloadKind::DB,
                                  WorkloadKind::WEB};
    for (WorkloadKind k : kinds) {
        SCOPED_TRACE(workloadName(k));
        RunSpec s = spec(false, "none", k, 0.2);
        SimResults timing = runSpec(s);
        s.functional = true;
        SimResults functional = runSpec(s);
        EXPECT_NEAR(functional.l1iMissPerInstr(),
                    timing.l1iMissPerInstr(), 0.02);
        EXPECT_NEAR(functional.l2iMissPerInstr(),
                    timing.l2iMissPerInstr(), 0.01);
    }
}

namespace
{

/** Every counter one core's skipQuiet() may charge, plus the rest. */
std::vector<std::uint64_t>
coreCounters(const OoOCore &core)
{
    std::vector<std::uint64_t> v = {
        core.committed_.value(),      core.fetchedInstrs.value(),
        core.fetchStallCycles.value(), core.branchStallCycles.value(),
        core.robFullCycles.value(),    core.loadsIssued.value(),
        core.storesIssued.value()};
    for (std::size_t b = 0; b < kNumCycleBuckets; ++b)
        v.push_back(core.ledger().value(static_cast<CycleBucket>(b)));
    return v;
}

/** The whole stats tree of a manually driven System, as text. */
std::string
statsText(System &sys)
{
    StatGroup root("sys");
    StatGroup hier("hierarchy");
    sys.hierarchy().registerStats(hier);
    sys.hierarchy().memory().registerStats(hier);
    root.addChild(&hier);
    std::vector<std::unique_ptr<StatGroup>> groups;
    for (unsigned c = 0; c < sys.config().numCores; ++c) {
        auto g = std::make_unique<StatGroup>("core" + std::to_string(c));
        sys.engine(c).registerStats(*g);
        sys.cpuCore(c).registerStats(*g);
        root.addChild(g.get());
        groups.push_back(std::move(g));
    }
    std::ostringstream os;
    root.dump(os);
    return os.str();
}

using QuietParam = std::tuple<std::string, bool, bool>;

class QuietCycles : public ::testing::TestWithParam<QuietParam>
{};

} // namespace

/**
 * Whenever OoOCore::wakeAt(now) > now, ticking the core until its
 * wake cycle must change nothing but what one skipQuiet() call
 * charges. A reference System ticks every core on every cycle; an
 * identical System ticks each core only at its wake cycle, in core
 * order, and bulk-charges the cycles before it. Each core's counters
 * and wake cycle must agree every time it wakes, and the whole stats
 * tree at the end. Dropping any wake source from wakeAt() breaks it.
 */
TEST_P(QuietCycles, TickChangesOnlyWhatSkipQuietCharges)
{
    const auto &[scheme, cmp, bypass] = GetParam();
    RunSpec s;
    s.cmp = cmp;
    s.workloads = {WorkloadKind::DB};
    s.schemeToken = scheme;
    s.bypassL2 = bypass;
    SystemConfig cfg = makeConfig(s);
    System ref(cfg), sleepy(cfg);
    const unsigned nc = cfg.numCores;

    std::vector<Cycle> wake(nc), charged(nc, 0);
    for (unsigned c = 0; c < nc; ++c)
        wake[c] = sleepy.cpuCore(c).wakeAt(0);
    auto committed = [&] {
        std::uint64_t n = 0;
        for (unsigned c = 0; c < nc; ++c)
            n += ref.cpuCore(c).committed();
        return n;
    };
    Cycle now = 0;
    std::uint64_t skipped = 0;
    while (committed() < 30'000) {
        const Cycle t = *std::min_element(wake.begin(), wake.end());
        ASSERT_LT(t, Cycle{2'000'000}) << "no core ever wakes";
        for (; now < t; ++now)
            for (unsigned c = 0; c < nc; ++c)
                ref.cpuCore(c).tick(now);
        for (unsigned c = 0; c < nc; ++c) {
            OoOCore &r = ref.cpuCore(c);
            if (wake[c] == t) {
                OoOCore &q = sleepy.cpuCore(c);
                q.skipQuiet(charged[c], t);
                skipped += t - charged[c];
                ASSERT_EQ(coreCounters(q), coreCounters(r))
                    << "core " << c << " woken at cycle " << t;
                ASSERT_EQ(q.wakeAt(t), r.wakeAt(t));
                q.tick(t);
                charged[c] = t + 1;
                wake[c] = q.wakeAt(t + 1);
                ASSERT_GT(wake[c], t);
            }
            r.tick(t);
        }
        now = t + 1;
    }
    for (unsigned c = 0; c < nc; ++c)
        sleepy.cpuCore(c).skipQuiet(charged[c], now);
    EXPECT_EQ(statsText(sleepy), statsText(ref));
    // The run must actually exercise sleeping.
    EXPECT_GT(skipped * 10, now * nc);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QuietCycles,
    ::testing::Combine(::testing::ValuesIn(test::allSchemeTokens()),
                       ::testing::Bool(), ::testing::Bool()),
    [](const auto &p) {
        std::string n = test::schemeTestName(std::get<0>(p.param));
        n += std::get<1>(p.param) ? "_Cmp" : "_Single";
        n += std::get<2>(p.param) ? "Bypass" : "Install";
        return n;
    });
