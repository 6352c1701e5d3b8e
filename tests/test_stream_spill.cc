/**
 * @file
 * Tests for the batch's stream spill: a spilled stream replays its
 * walker record for record (every preset, core and seed, at every
 * batch size, across reset() and with concurrent readers), a batch of
 * duplicated specs matches runSpec() bit for bit for every scheme,
 * a stream only one spec uses gets no spill entry, and an entry
 * retires once its expected readers are done.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "results_helpers.hh"
#include "scheme_params.hh"
#include "sim/experiment.hh"
#include "sim/stream_spill.hh"
#include "util/metrics.hh"
#include "workload/presets.hh"

using namespace ipref;

namespace
{

/** A 4-core config running @p kind on every core. */
SystemConfig
chipConfig(WorkloadKind kind, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.workloads = {kind};
    cfg.baseSeed = seed;
    return cfg;
}

void
expectSameRecords(const InstrRecord *want, const InstrRecord *got,
                  std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(want[i].pc, got[i].pc) << "record " << i;
        ASSERT_EQ(want[i].target, got[i].target) << "record " << i;
        ASSERT_EQ(want[i].dataAddr, got[i].dataAddr) << "record " << i;
        ASSERT_EQ(want[i].op, got[i].op) << "record " << i;
        ASSERT_EQ(want[i].taken, got[i].taken) << "record " << i;
        ASSERT_EQ(want[i].srcReg[0], got[i].srcReg[0]) << "record " << i;
        ASSERT_EQ(want[i].srcReg[1], got[i].srcReg[1]) << "record " << i;
        ASSERT_EQ(want[i].dstReg, got[i].dstReg) << "record " << i;
    }
}

/**
 * Pull @p total records from @p spilled and @p direct in batches
 * cycling through the sizes under test, with a next() between
 * batches, and require identical streams.
 */
void
expectLockstep(TraceSource &spilled, TraceSource &direct,
               std::size_t total)
{
    const std::size_t sizes[] = {1, 7, 512, 4097};
    std::vector<InstrRecord> want(4097), got(4097);
    for (std::size_t done = 0, k = 0; done < total; ++k) {
        const std::size_t n = sizes[k % 4];
        ASSERT_EQ(direct.nextBatch({want.data(), n}), n);
        ASSERT_EQ(spilled.nextBatch({got.data(), n}), n);
        expectSameRecords(want.data(), got.data(), n);
        ASSERT_TRUE(direct.next(want[0]));
        ASSERT_TRUE(spilled.next(got[0]));
        expectSameRecords(want.data(), got.data(), 1);
        done += n + 1;
    }
}

std::uint64_t
counter(const char *name)
{
    return metrics::registry().counter(name).value();
}

} // namespace

TEST(StreamSpill, ReplayMatchesWalkerForEveryPresetCoreAndSeed)
{
    for (WorkloadKind kind : allWorkloadKinds()) {
        for (std::uint64_t seed : {1, 2}) {
            const SystemConfig cfg = chipConfig(kind, seed);
            const SystemConfig twice[] = {cfg, cfg};
            StreamSpill spill(twice);
            ASSERT_EQ(spill.entries(), 4u);
            for (CoreId core = 0; core < 4; ++core) {
                SCOPED_TRACE(std::string(workloadName(kind)) + " seed " +
                             std::to_string(seed) + " core " +
                             std::to_string(core));
                std::unique_ptr<TraceSource> spilled =
                    spill.open({kind, core, seed});
                ASSERT_NE(spilled, nullptr);
                std::unique_ptr<Workload> direct =
                    makeWorkload(kind, core, seed);
                expectLockstep(*spilled, *direct, 3 * 4096 + 100);
                // Restart mid-chunk: both replay from record 0, and
                // the spilled side now reads chunks already written.
                spilled->reset();
                direct->reset();
                expectLockstep(*spilled, *direct, 4 * 4096 + 300);
            }
        }
    }
}

TEST(StreamSpill, ConcurrentReadersOfOneStreamMatchTheWalker)
{
    const SystemConfig cfg = chipConfig(WorkloadKind::DB, 1);
    const SystemConfig fourTimes[] = {cfg, cfg, cfg, cfg};
    StreamSpill spill(fourTimes);
    const std::size_t total = 6 * 4096 + 11;
    std::vector<InstrRecord> want(total);
    makeWorkload(WorkloadKind::DB, 2, 1)->nextBatch(want);

    // Four readers race to generate the same chunks, each pulling
    // with its own batch size.
    std::vector<std::vector<InstrRecord>> got(4);
    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < 4; ++t) {
        readers.emplace_back([&, t] {
            std::unique_ptr<TraceSource> src =
                spill.open({WorkloadKind::DB, 2, 1});
            const std::size_t step[] = {1, 7, 512, 4097};
            got[t].resize(total);
            for (std::size_t done = 0; done < total;) {
                std::size_t n = std::min(step[t], total - done);
                done += src->nextBatch({got[t].data() + done, n});
            }
        });
    }
    for (std::thread &r : readers)
        r.join();
    for (std::size_t t = 0; t < 4; ++t) {
        SCOPED_TRACE("reader " + std::to_string(t));
        expectSameRecords(want.data(), got[t].data(), total);
    }
}

TEST(StreamSpill, EntryRetiresAfterItsLastExpectedReader)
{
    const SystemConfig cfg = chipConfig(WorkloadKind::WEB, 1);
    const SystemConfig twice[] = {cfg, cfg};
    StreamSpill spill(twice);
    const StreamKey key{WorkloadKind::WEB, 1, 1};
    std::unique_ptr<Workload> direct = makeWorkload(key.kind, key.core, 1);
    std::unique_ptr<TraceSource> first = spill.open(key);
    ASSERT_NE(first, nullptr);
    expectLockstep(*first, *direct, 4096);
    first.reset();

    // The second expected reader, and one more while it is alive (a
    // retry), both replay; after them the stream is gone.
    std::unique_ptr<TraceSource> second = spill.open(key);
    ASSERT_NE(second, nullptr);
    std::unique_ptr<TraceSource> retry = spill.open(key);
    ASSERT_NE(retry, nullptr);
    second.reset();
    direct->reset();
    expectLockstep(*retry, *direct, 2 * 4096);
    retry.reset();
    EXPECT_EQ(spill.open(key), nullptr);
}

TEST(StreamSpill, EntriesOnlyForStreamsTwoSpecsShare)
{
    RunSpec one = RunSpec::builder().cmp(false).instrScale(0.01).build();
    EXPECT_EQ(StreamSpill(std::vector{makeConfig(one)}).entries(), 0u);

    // A batch of one spec generates nothing into a spill.
    const std::uint64_t generated =
        counter("ipref_stream_records_generated_total");
    BatchOptions opt;
    opt.jobs = 1;
    ASSERT_TRUE(runBatch({one}, opt)[0].ok());
    EXPECT_EQ(counter("ipref_stream_records_generated_total"), generated);

    // A 1-core run shares core 0 of the 4-core run of its preset, and
    // no stream of another seed or preset.
    RunSpec chip = RunSpec::builder().instrScale(0.01).build();
    RunSpec reseeded = RunSpec::Builder(chip).baseSeed(2).build();
    RunSpec web = RunSpec::Builder(one).workload(WorkloadKind::WEB).build();
    EXPECT_EQ(StreamSpill(std::vector{makeConfig(one), makeConfig(chip),
                                      makeConfig(reseeded),
                                      makeConfig(web)})
                  .entries(),
              1u);

    // A time-sliced mix on one core replays the 4-core Mixed streams.
    const std::vector<WorkloadKind> mix = {
        WorkloadKind::DB, WorkloadKind::TPCW, WorkloadKind::JAPP,
        WorkloadKind::WEB};
    RunSpec sliced = RunSpec::Builder(one).workloads(mix).build();
    RunSpec mixed = RunSpec::Builder(chip).workloads(mix).build();
    EXPECT_EQ(StreamSpill(std::vector{makeConfig(sliced),
                                      makeConfig(mixed)})
                  .entries(),
              4u);
}

TEST(StreamSpill, BatchOfDuplicatedSpecsMatchesRunSpecForEveryScheme)
{
    // Every spec twice, so every stream is spilled and replayed; the
    // time-sliced and 4-core Mixed runs share four more streams.
    std::vector<RunSpec> specs;
    for (const std::string &token : test::allSchemeTokens())
        for (bool functional : {false, true})
            for (bool cmp : {false, true})
                specs.push_back(RunSpec::builder()
                                    .cmp(cmp)
                                    .functional(functional)
                                    .scheme(token)
                                    .instrScale(0.02)
                                    .build());
    for (bool cmp : {false, true})
        specs.push_back(RunSpec::builder()
                            .cmp(cmp)
                            .workloads({WorkloadKind::DB,
                                        WorkloadKind::TPCW,
                                        WorkloadKind::JAPP,
                                        WorkloadKind::WEB})
                            .scheme("discontinuity")
                            .instrScale(0.05)
                            .build());
    std::vector<RunSpec> batch;
    for (const RunSpec &spec : specs) {
        batch.push_back(spec);
        batch.push_back(spec);
    }

    const std::uint64_t generated =
        counter("ipref_stream_records_generated_total");
    const std::uint64_t replayed =
        counter("ipref_stream_records_replayed_total");
    BatchOptions opt;
    opt.jobs = 4;
    opt.maxAttempts = 1;
    std::vector<RunOutcome> outcomes = runBatch(batch, opt);
    ASSERT_EQ(outcomes.size(), batch.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].schemeToken + (specs[i].cmp ? " 4-core"
                                                           : " 1-core") +
                     (specs[i].functional ? " functional" : " timing") +
                     " " + std::to_string(specs[i].workloads.size()) +
                     " workloads");
        SimResults want = runSpec(specs[i]);
        for (std::size_t copy : {2 * i, 2 * i + 1}) {
            ASSERT_TRUE(outcomes[copy].ok()) << outcomes[copy].error;
            test::expectIdentical(want, outcomes[copy].results);
        }
    }
    const std::uint64_t made =
        counter("ipref_stream_records_generated_total") - generated;
    EXPECT_GT(made, 0u);
    EXPECT_GE(counter("ipref_stream_records_replayed_total") - replayed,
              10 * made);
}
