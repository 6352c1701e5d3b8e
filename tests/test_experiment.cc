/**
 * @file
 * Tests for the experiment runner: the parallel runSpecs() path must
 * produce bit-identical SimResults to a sequential runSpec() loop —
 * with and without observability features enabled — and buffered JSON
 * reports must flush as one well-formed array in input order.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hh"

using namespace ipref;

namespace
{

/** Field-by-field equality over every SimResults counter. */
void
expectIdentical(const SimResults &a, const SimResults &b,
                const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc); // bit-identical, not just close
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
    EXPECT_EQ(a.bypassInstalls, b.bypassInstalls);
    EXPECT_EQ(a.bypassDrops, b.bypassDrops);
    EXPECT_EQ(a.memReads, b.memReads);
    EXPECT_EQ(a.memPrefetchReads, b.memPrefetchReads);
    EXPECT_EQ(a.memWrites, b.memWrites);
    EXPECT_EQ(a.memQueueDelayCycles, b.memQueueDelayCycles);
    EXPECT_EQ(a.branchCtis, b.branchCtis);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
}

/** A small but non-trivial mixed batch (timing + prefetchers). */
std::vector<RunSpec>
sampleSpecs()
{
    std::vector<RunSpec> specs;
    RunSpec base;
    base.cmp = true;
    base.workloads = {WorkloadKind::DB};
    base.instrScale = 0.02;
    specs.push_back(base);

    RunSpec disc = base;
    disc.schemeToken = "discontinuity";
    disc.bypassL2 = true;
    specs.push_back(disc);

    RunSpec tagged = base;
    tagged.schemeToken = "n4l";
    tagged.workloads = {WorkloadKind::JAPP};
    specs.push_back(tagged);

    RunSpec single = base;
    single.cmp = false;
    single.workloads = {WorkloadKind::WEB};
    specs.push_back(single);
    return specs;
}

/** Restores default (disabled) observability on scope exit. */
struct ObservabilityGuard
{
    ~ObservabilityGuard() { setObservability({}); }
};

} // namespace

TEST(RunSpecs, ParallelMatchesSequentialBitForBit)
{
    ObservabilityGuard guard;
    setObservability({});
    std::vector<RunSpec> specs = sampleSpecs();

    std::vector<SimResults> sequential;
    for (const RunSpec &spec : specs)
        sequential.push_back(runSpec(spec));

    std::vector<SimResults> parallel = runSpecs(specs, 4);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectIdentical(sequential[i], parallel[i],
                        "spec " + std::to_string(i));
}

TEST(RunSpecs, DeterministicWithObservabilityEnabled)
{
    ObservabilityGuard guard;
    ObservabilityOptions obs;
    obs.profileSites = 8;
    obs.intervalInstrs = 20'000;
    setObservability(obs);
    std::vector<RunSpec> specs = sampleSpecs();

    std::vector<SimResults> sequential;
    for (const RunSpec &spec : specs)
        sequential.push_back(runSpec(spec));

    std::vector<SimResults> parallel = runSpecs(specs, 4);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectIdentical(sequential[i], parallel[i],
                        "spec " + std::to_string(i));
}

TEST(RunSpecs, JobsOneFallsBackToSequential)
{
    ObservabilityGuard guard;
    setObservability({});
    std::vector<RunSpec> specs = sampleSpecs();
    specs.resize(2);

    std::vector<SimResults> sequential;
    for (const RunSpec &spec : specs)
        sequential.push_back(runSpec(spec));

    std::vector<SimResults> one = runSpecs(specs, 1);
    ASSERT_EQ(one.size(), sequential.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectIdentical(sequential[i], one[i],
                        "spec " + std::to_string(i));
}

TEST(RunSpecs, FlushWritesBufferedReportsInInputOrder)
{
    ObservabilityGuard guard;
    const std::string path = "test_experiment_reports.json";
    ObservabilityOptions obs;
    obs.jsonPath = path;
    setObservability(obs);

    std::vector<RunSpec> specs = sampleSpecs();
    specs.resize(3);
    runSpecs(specs, 3);
    flushObservability();

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();

    // One well-formed array with one report per run.
    EXPECT_EQ(text.front(), '[');
    std::size_t reports = 0, pos = 0;
    while ((pos = text.find("\"config\"", pos)) !=
           std::string::npos) {
        ++reports;
        pos += 1;
    }
    EXPECT_EQ(reports, specs.size());

    // Reports appear in input order: workload set names in sequence.
    std::size_t db = text.find("\"DB\"");
    std::size_t japp = text.find("\"jApp\"");
    EXPECT_NE(db, std::string::npos);
    EXPECT_NE(japp, std::string::npos);
    EXPECT_LT(db, japp);

    std::remove(path.c_str());
}
