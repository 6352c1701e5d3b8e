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
 * miss rates closely.
 */

#include <gtest/gtest.h>

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
