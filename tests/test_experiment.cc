/**
 * @file
 * Tests for the experiment runner: the parallel runBatch() path must
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

#include "results_helpers.hh"
#include "scheme_params.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"

using namespace ipref;

namespace
{

/** Run @p specs through runBatch on @p jobs threads; all must be Ok. */
std::vector<SimResults>
batchResults(const std::vector<RunSpec> &specs, unsigned jobs)
{
    BatchOptions opt;
    opt.jobs = jobs;
    opt.maxAttempts = 1;
    std::vector<SimResults> results;
    for (const RunOutcome &o : runBatch(specs, opt)) {
        EXPECT_TRUE(o.ok()) << o.error;
        results.push_back(o.results);
    }
    return results;
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

TEST(RunBatch, ParallelMatchesSequentialBitForBit)
{
    ObservabilityGuard guard;
    setObservability({});
    std::vector<RunSpec> specs = sampleSpecs();

    std::vector<SimResults> sequential;
    for (const RunSpec &spec : specs)
        sequential.push_back(runSpec(spec));

    std::vector<SimResults> parallel = batchResults(specs, 4);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE("spec " + std::to_string(i));
        test::expectIdentical(sequential[i], parallel[i]);
    }
}

TEST(RunBatch, DeterministicWithObservabilityEnabled)
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

    std::vector<SimResults> parallel = batchResults(specs, 4);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE("spec " + std::to_string(i));
        test::expectIdentical(sequential[i], parallel[i]);
    }
}

TEST(RunBatch, JobsOneFallsBackToSequential)
{
    ObservabilityGuard guard;
    setObservability({});
    std::vector<RunSpec> specs = sampleSpecs();
    specs.resize(2);

    std::vector<SimResults> sequential;
    for (const RunSpec &spec : specs)
        sequential.push_back(runSpec(spec));

    std::vector<SimResults> one = batchResults(specs, 1);
    ASSERT_EQ(one.size(), sequential.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE("spec " + std::to_string(i));
        test::expectIdentical(sequential[i], one[i]);
    }
}

TEST(RunBatch, EverySchemeMatchesAcrossJobCounts)
{
    // One tiny 1-core timing run per registered scheme: the results
    // at 1 and 4 jobs must serialize to the same bytes.
    ObservabilityGuard guard;
    setObservability({});
    std::vector<RunSpec> specs;
    for (const std::string &token : test::allSchemeTokens()) {
        RunSpec spec;
        spec.cmp = false;
        spec.schemeToken = token;
        spec.instrScale = 0.01;
        specs.push_back(spec);
    }

    std::vector<SimResults> one = batchResults(specs, 1);
    std::vector<SimResults> four = batchResults(specs, 4);
    ASSERT_EQ(one.size(), specs.size());
    ASSERT_EQ(four.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].schemeToken);
        EXPECT_GT(one[i].instructions, 0u);
        if (specs[i].schemeToken != "none") {
            EXPECT_GT(one[i].pfIssued, 0u);
        }
        EXPECT_EQ(resultsToJson(one[i]), resultsToJson(four[i]));
    }
}

TEST(RunBatch, FlushWritesBufferedReportsInInputOrder)
{
    ObservabilityGuard guard;
    const std::string path = "test_experiment_reports.json";
    ObservabilityOptions obs;
    obs.jsonPath = path;
    setObservability(obs);

    std::vector<RunSpec> specs = sampleSpecs();
    specs.resize(3);
    batchResults(specs, 3);
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
