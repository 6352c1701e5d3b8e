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

#include <random>
#include <set>
#include <sstream>
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
    EXPECT_EQ(s.schemeKnobs.canonical(), "boost=3");

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
    raw.schemeKnobs.set("bogus", {KnobType::Uint, 1});
    expectThrows<ConfigError>(
        [&] { RunSpec::Builder(raw).build(); }, "bogus");
    RunSpec noneWithKnobs;
    noneWithKnobs.schemeKnobs.set("history", {KnobType::Uint, 16});
    expectThrows<ConfigError>(
        [&] { RunSpec::Builder(noneWithKnobs).build(); }, "history");
    RunSpec typed;
    typed.schemeToken = "domino";
    typed.schemeKnobs.set("history", {KnobType::Uint, 8});
    expectThrows<ConfigError>(
        [&] { RunSpec::Builder(typed).build(); }, "out of range");
    typed.schemeKnobs = {};
    typed.schemeKnobs.set("single_fallback", {KnobType::Uint, 1});
    expectThrows<ConfigError>(
        [&] { RunSpec::Builder(typed).build(); }, "takes a bool");
}

namespace
{

/** Fingerprint of a WEB spec with @p sel, and its label's knob part. */
std::pair<std::uint64_t, std::string>
knobIdentity(const SchemeSelection &sel)
{
    RunSpec s = RunSpec::Builder()
                    .cmp(false)
                    .workload(WorkloadKind::WEB)
                    .scheme(sel)
                    .build();
    return {fingerprintSpec(s), sel.knobs.canonical()};
}

/**
 * Whether parseSchemeSpec()'s error @p what quotes the part of
 * @p input at fault: the token of an unknown scheme, an item without
 * '=', an unknown knob's name, or a knob's value. Messages are C
 * text, so a quoted part ends at an embedded NUL.
 */
bool
quotesFault(const std::string &what, const std::string &input)
{
    auto has = [&what](const std::string &s) {
        return what.find(s.c_str()) != std::string::npos;
    };
    std::size_t colon = input.find(':');
    if (has("unknown prefetch scheme '" +
            std::string(input.substr(0, colon).c_str()) + "'"))
        return true;
    if (colon == std::string::npos)
        return false;
    std::istringstream items(input.substr(colon + 1));
    for (std::string item; std::getline(items, item, ',');) {
        std::size_t eq = item.find('=');
        if (eq == std::string::npos) {
            if (has("'" + std::string(item.c_str()) +
                    "' is not knob=value"))
                return true;
            continue;
        }
        std::string name = item.substr(0, eq).c_str();
        std::string value = item.substr(eq + 1).c_str();
        if (has("unknown knob '" + name + "'") ||
            has("'" + name + "': \"" + value + "\""))
            return true;
    }
    return false;
}

} // namespace

TEST(SchemeRegistry, EverySpellingOfAKnobValueIsOneSpec)
{
    const std::vector<std::vector<std::string>> groups = {
        {"domino:history=16384", "domino:history=0x4000",
         "domino:history=016384"},
        {"domino:single_fallback=true", "domino:single_fallback=yes",
         "domino:single_fallback=on", "domino:single_fallback=1"},
        {"domino:single_fallback=false", "domino:single_fallback=no",
         "domino:single_fallback=off", "domino:single_fallback=0"},
    };
    for (const auto &group : groups)
        for (const std::string &spelling : group) {
            SCOPED_TRACE(spelling);
            EXPECT_EQ(knobIdentity(parseSchemeSpec(spelling)),
                      knobIdentity(parseSchemeSpec(group.front())));
        }
    EXPECT_EQ(parseSchemeSpec("domino:history=0x4000").knobs.canonical(),
              "history=16384");
    EXPECT_EQ(parseSchemeSpec("domino:single_fallback=1,replay=012")
                  .knobs.canonical(),
              "replay=12,single_fallback=true");
    // A knob spelled at its default stays in the canonical form.
    EXPECT_NE(knobIdentity(parseSchemeSpec("domino:history=16384")),
              knobIdentity(parseSchemeSpec("domino")));
}

TEST(SchemeRegistry, MalformedKnobValuesQuoteTheText)
{
    for (const char *value : {"-1", " 4096", "+4096", "4096x", "",
                              "99999999999999999999", "4096 ", "0x",
                              "1e4", "0o17"}) {
        SCOPED_TRACE(value);
        expectThrows<ConfigError>(
            [&] {
                parseSchemeSpec(std::string("domino:history=") + value);
            },
            "'history': \"" + std::string(value) + "\"");
    }
    expectThrows<ConfigError>(
        [] { parseSchemeSpec("domino:single_fallback=maybe"); },
        "\"maybe\"");
    expectThrows<ConfigError>(
        [] { parseSchemeSpec("domino:replay=0x41"); },
        "'replay': \"0x41\" is out of range");
    expectThrows<ConfigError>(
        [] { parseSchemeSpec("domino:history16384"); },
        "'history16384' is not knob=value");
}

TEST(SchemeRegistry, MutatedSpecsThrowQuotingOrRoundTrip)
{
    // Valid --scheme strings (every knob of every registered scheme at
    // its default), mutated: each result must either throw a
    // ConfigError quoting the part of the input at fault, or parse to
    // a selection whose canonical form parses back to itself.
    std::mt19937_64 rng(20261020);
    auto below = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    const char *inserts[] = {" ", "-", "+", "0x", "0", "00",
                             "99999999999999999999",
                             "18446744073709551616"};
    unsigned accepted = 0, rejected = 0;
    for (const SchemeDescriptor *d : SchemeRegistry::instance().all()) {
        std::string seed = d->token;
        for (std::size_t i = 0; i < d->knobSchema.size(); ++i)
            seed += (i ? "," : ":") + d->knobSchema[i].name + "=" +
                    d->knobSchema[i].defaultValue;
        for (int trial = 0; trial < 300; ++trial) {
            std::string m = seed;
            for (std::size_t n = 1 + below(3); n > 0; --n) {
                std::size_t at = below(m.size() + 1);
                std::size_t kind = below(3);
                if (kind == 0 && !m.empty())
                    m[below(m.size())] ^= static_cast<char>(1 << below(8));
                else if (kind == 1)
                    m.insert(at, inserts[below(std::size(inserts))]);
                else
                    m.resize(at);
            }
            SCOPED_TRACE("'" + m + "'");
            try {
                SchemeSelection sel = parseSchemeSpec(m);
                SchemeSelection again =
                    parseSchemeSpec(sel.token + ":" + sel.knobs.canonical());
                EXPECT_EQ(again.token, sel.token);
                EXPECT_EQ(knobIdentity(again), knobIdentity(sel));
                ++accepted;
            } catch (const ConfigError &e) {
                EXPECT_TRUE(quotesFault(e.what(), m)) << e.what();
                ++rejected;
            }
        }
    }
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 100u);
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
