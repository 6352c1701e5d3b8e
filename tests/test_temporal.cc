/**
 * @file
 * Tests for the temporal record/replay prefetcher family (domino,
 * isb, mana) and the open scheme registry they ride on:
 *
 *  - each scheme learns a favorable recurring miss sequence to >=90%
 *    coverage at the candidate level;
 *  - the MetadataCost invariants hold (mana is on-chip only, the
 *    off-chip schemes report traffic, footprints are non-zero);
 *  - out-of-order trigger delivery raises InvariantError (the
 *    batching-contract tripwire in TemporalPrefetcherBase);
 *  - a custom scheme registered at runtime round-trips through
 *    parseSchemeSpec / RunSpec::Builder / fingerprintSpec;
 *  - unknown tokens, unknown knobs and out-of-range values raise
 *    ConfigError at parse/build time;
 *  - an alias builds the same spec as its canonical token, through
 *    Builder::scheme() or an aggregate (same fingerprint, bit
 *    identical results);
 *  - the batched fetch pipeline and functional-mode lockstep remain
 *    observational no-ops (cap 1 == cap 512) for the stateful
 *    temporal schemes, including the new pfMeta* result fields.
 */

#include <gtest/gtest.h>

#include "error_helpers.hh"
#include "results_helpers.hh"

#include <set>
#include <vector>

#include "prefetch/domino.hh"
#include "prefetch/isb.hh"
#include "prefetch/mana.hh"
#include "prefetch/scheme_registry.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"

using namespace ipref;
using ipref::test::expectThrows;

namespace
{

constexpr unsigned kLineBytes = 64;

/**
 * A fixed irregular-but-recurring trigger sequence: 96 distinct
 * 4-line-aligned lines visited in a fixed permuted order. Favorable
 * for record/replay (the order repeats exactly) but not for simple
 * next-line prediction (consecutive triggers are far apart).
 */
std::vector<Addr>
favorableSequence()
{
    std::vector<Addr> seq;
    for (unsigned i = 0; i < 96; ++i)
        seq.push_back(0x40000 + static_cast<Addr>((i * 37) % 96) * 256);
    return seq;
}

/**
 * Drive @p p with @p laps passes over @p seq (every event a miss, in
 * simulation order) and return the fraction of triggers from lap
 * @p measureFrom onward whose line had already been emitted as a
 * candidate — candidate-level coverage of the recurring stream.
 */
double
runCoverage(InstructionPrefetcher &p, const std::vector<Addr> &seq,
            unsigned laps = 5, unsigned measureFrom = 2)
{
    std::set<Addr> predicted;
    std::vector<PrefetchCandidate> out;
    DemandFetchEvent e;
    e.miss = true;
    std::uint64_t covered = 0, total = 0;
    for (unsigned lap = 0; lap < laps; ++lap) {
        for (Addr line : seq) {
            e.prevLineAddr = e.lineAddr;
            e.lineAddr = line;
            e.now += 10;
            if (lap >= measureFrom) {
                ++total;
                if (predicted.count(line))
                    ++covered;
            }
            out.clear();
            p.onDemandFetch(e, out);
            for (const PrefetchCandidate &c : out) {
                EXPECT_EQ(c.origin, PrefetchOrigin::Temporal);
                predicted.insert(c.lineAddr);
            }
        }
    }
    EXPECT_GT(total, 0u);
    return static_cast<double>(covered) / static_cast<double>(total);
}

/** Run @p spec with the given record-batch capacity. */
SimResults
runWithBatch(const RunSpec &spec, unsigned batch)
{
    SystemConfig cfg = makeConfig(spec);
    cfg.core.fetchBlockRecords = batch;
    System system(cfg);
    return system.run();
}

/** Register the test-only custom scheme exactly once. */
const SchemeDescriptor &
customScheme()
{
    static const bool registered = [] {
        SchemeRegistry::instance().add(
            {"unit-custom",
             "unit-test custom scheme",
             {"uc"},
             withCommonKnobs({{"boost", KnobType::Uint, "1",
                               "test-only knob", 0, 8}}),
             [](const PrefetchConfig &cfg, const KnobValues &knobs) {
                 (void)knobs;
                 return std::unique_ptr<InstructionPrefetcher>(
                     std::make_unique<ManaPrefetcher>(ManaConfig{},
                                                      cfg.lineBytes));
             }});
        return true;
    }();
    (void)registered;
    return SchemeRegistry::instance().at("unit-custom");
}

} // namespace

TEST(TemporalCoverage, DominoLearnsRecurringSequence)
{
    DominoPrefetcher p(DominoConfig{}, kLineBytes);
    EXPECT_GE(runCoverage(p, favorableSequence()), 0.90);
}

TEST(TemporalCoverage, IsbLearnsRecurringSequence)
{
    IsbPrefetcher p(IsbConfig{}, kLineBytes);
    EXPECT_GE(runCoverage(p, favorableSequence()), 0.90);
}

TEST(TemporalCoverage, ManaLearnsRecurringSequence)
{
    ManaPrefetcher p(ManaConfig{}, kLineBytes);
    EXPECT_GE(runCoverage(p, favorableSequence()), 0.90);
}

TEST(TemporalMetadata, ManaIsOnChipOnly)
{
    ManaPrefetcher p(ManaConfig{}, kLineBytes);
    runCoverage(p, favorableSequence());
    MetadataCost m = p.metadataCost();
    EXPECT_GT(m.entries, 0u);
    EXPECT_GT(m.bytes, 0u);
    EXPECT_EQ(m.offChipReads, 0u);
    EXPECT_EQ(m.offChipWrites, 0u);
}

TEST(TemporalMetadata, OffChipSchemesReportTraffic)
{
    DominoPrefetcher domino(DominoConfig{}, kLineBytes);
    IsbPrefetcher isb(IsbConfig{}, kLineBytes);
    for (InstructionPrefetcher *p :
         {static_cast<InstructionPrefetcher *>(&domino),
          static_cast<InstructionPrefetcher *>(&isb)}) {
        SCOPED_TRACE(p->name());
        runCoverage(*p, favorableSequence());
        MetadataCost m = p->metadataCost();
        EXPECT_GT(m.entries, 0u);
        EXPECT_GT(m.bytes, 0u);
        EXPECT_GT(m.offChipReads, 0u);
        EXPECT_GT(m.offChipWrites, 0u);
    }
}

TEST(TemporalMetadata, OutOfOrderTriggerRaises)
{
    DominoPrefetcher domino(DominoConfig{}, kLineBytes);
    IsbPrefetcher isb(IsbConfig{}, kLineBytes);
    ManaPrefetcher mana(ManaConfig{}, kLineBytes);
    for (InstructionPrefetcher *p :
         {static_cast<InstructionPrefetcher *>(&domino),
          static_cast<InstructionPrefetcher *>(&isb),
          static_cast<InstructionPrefetcher *>(&mana)}) {
        SCOPED_TRACE(p->name());
        std::vector<PrefetchCandidate> out;
        DemandFetchEvent e;
        e.miss = true;
        e.lineAddr = 0x1000;
        e.now = 100;
        p->onDemandFetch(e, out);
        e.lineAddr = 0x2000;
        e.now = 50;
        expectThrows<InvariantError>(
            [&] { p->onDemandFetch(e, out); }, "out of order");
    }
}

TEST(SchemeRegistry, CustomSchemeRoundTrips)
{
    const SchemeDescriptor &d = customScheme();
    EXPECT_EQ(d.token, "unit-custom");

    SchemeSelection sel = parseSchemeSpec("uc:boost=3");
    EXPECT_EQ(sel.token, "unit-custom");
    EXPECT_EQ(sel.knobs.canonical(), "boost=3");

    RunSpec s = RunSpec::Builder()
                    .cmp(false)
                    .workload(WorkloadKind::WEB)
                    .scheme(sel)
                    .build();
    EXPECT_EQ(s.schemeToken, "unit-custom");
    EXPECT_EQ(s.schemeKnobs, "boost=3");

    // The factory is reachable through the normal config path.
    SystemConfig cfg = makeConfig(s);
    EXPECT_EQ(cfg.prefetch.schemeToken, "unit-custom");

    // Fingerprints separate knob values but agree on equal specs.
    RunSpec s2 = RunSpec::Builder()
                     .cmp(false)
                     .workload(WorkloadKind::WEB)
                     .scheme("unit-custom:boost=3")
                     .build();
    EXPECT_EQ(fingerprintSpec(s), fingerprintSpec(s2));
    RunSpec s3 = RunSpec::Builder()
                     .cmp(false)
                     .workload(WorkloadKind::WEB)
                     .scheme("unit-custom:boost=4")
                     .build();
    EXPECT_NE(fingerprintSpec(s), fingerprintSpec(s3));
}

TEST(SchemeRegistry, BadSelectionsRaiseConfigError)
{
    expectThrows<ConfigError>(
        [] { parseSchemeSpec("no-such-scheme"); }, "valid");
    expectThrows<ConfigError>(
        [] { parseSchemeSpec("domino:bogus=1"); }, "bogus");
    expectThrows<ConfigError>(
        [] { parseSchemeSpec("domino:replay=999"); }, "replay");
    // Aggregate-initialized specs are validated at build() too.
    RunSpec raw;
    raw.schemeToken = "domino";
    raw.schemeKnobs = "bogus=1";
    expectThrows<ConfigError>(
        [&] { RunSpec::Builder(raw).build(); }, "bogus");
    RunSpec noneWithKnobs;
    noneWithKnobs.schemeKnobs = "history=16";
    expectThrows<ConfigError>(
        [&] { RunSpec::Builder(noneWithKnobs).build(); }, "history");
}

TEST(SchemeRegistry, AliasBuildsTheCanonicalSpec)
{
    // build() canonicalizes an alias whether it came through
    // Builder::scheme() or an aggregate-initialized spec (the wire
    // decoder's path): same spec, same fingerprint, same results.
    RunSpec viaBuilder = RunSpec::Builder()
                             .cmp(false)
                             .workload(WorkloadKind::WEB)
                             .scheme("disc")
                             .instrScale(0.05)
                             .build();
    RunSpec raw;
    raw.cmp = false;
    raw.workloads = {WorkloadKind::WEB};
    raw.schemeToken = "disc";
    raw.instrScale = 0.05;
    RunSpec viaAggregate = RunSpec::Builder(raw).build();
    EXPECT_EQ(viaBuilder.schemeToken, "discontinuity");
    EXPECT_EQ(viaAggregate.schemeToken, "discontinuity");
    EXPECT_EQ(fingerprintSpec(viaBuilder), fingerprintSpec(viaAggregate));
    test::expectIdentical(runSpec(viaBuilder), runSpec(viaAggregate));
}

TEST(TemporalBatchedPipeline, TimingResultsMatchScalar)
{
    for (const char *token : {"domino", "isb", "mana"}) {
        SCOPED_TRACE(token);
        RunSpec s = RunSpec::Builder()
                        .cmp(false)
                        .workload(WorkloadKind::WEB)
                        .scheme(token)
                        .instrScale(0.1)
                        .build();
        test::expectIdentical(runWithBatch(s, 1), runWithBatch(s, 512));
    }
}

TEST(TemporalBatchedPipeline, FunctionalLockstepMatchesScalar)
{
    // Functional-mode lockstep chunking must feed the temporal
    // trainer the same ordered miss stream as the scalar pull; the
    // checkTriggerOrder tripwire runs throughout.
    RunSpec s = RunSpec::Builder()
                    .cmp(true)
                    .workload(WorkloadKind::JAPP)
                    .scheme("domino")
                    .functional()
                    .instrScale(0.1)
                    .build();
    test::expectIdentical(runWithBatch(s, 1), runWithBatch(s, 512));
}
