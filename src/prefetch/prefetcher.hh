/**
 * @file
 * Instruction prefetcher interface, configuration and factory.
 *
 * Prefetchers observe the demand fetch-line stream (one event per
 * line the front end enters) and emit prefetch candidates. The engine
 * (engine.hh) owns filtering, queueing and issue; prefetchers are pure
 * candidate generators, which keeps each scheme small and testable.
 */

#ifndef IPREF_PREFETCH_PREFETCHER_HH
#define IPREF_PREFETCH_PREFETCHER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace/record.hh"
#include "util/types.hh"

namespace ipref
{

/** One demand fetch-line event, as seen by a prefetcher. */
struct DemandFetchEvent
{
    Addr lineAddr = 0;            //!< line being fetched (aligned)
    Addr prevLineAddr = invalidAddr; //!< previously fetched line
    FetchTransition transition = FetchTransition::Sequential;
    Cycle now = 0;                //!< cycle of the fetch (attribution)
    bool miss = false;            //!< true demand L1I miss
    bool firstUseOfPrefetch = false; //!< first hit on prefetched line
    bool latePrefetchHit = false; //!< merged with in-flight prefetch

    /** The classic "tagged" trigger: miss or first prefetch use. */
    bool
    taggedTrigger() const
    {
        return miss || firstUseOfPrefetch || latePrefetchHit;
    }
};

/** Which structure generated a candidate (for usefulness credit). */
enum class PrefetchOrigin : std::uint8_t
{
    Sequential,
    Discontinuity,
    TargetTable,
    Temporal, //!< record/replay metadata (domino / isb / mana)
    NumOrigins,
};

/** Stable lower-case name of @p origin ("sequential", ...). */
const char *originName(PrefetchOrigin origin);

/** A line a prefetcher wants brought into the L1I. */
struct PrefetchCandidate
{
    Addr lineAddr = 0;
    PrefetchOrigin origin = PrefetchOrigin::Sequential;
    std::uint32_t tableIndex = 0; //!< predictor entry to credit

    /**
     * The site (fetch line or predictor probe line) that generated
     * this candidate; the engine stamps the triggering event's line
     * when a prefetcher leaves it unset. Feeds per-site attribution.
     */
    Addr triggerAddr = invalidAddr;
};

class StatGroup;

/**
 * Metadata storage cost of a prefetcher, for the head-to-head cost
 * tables: temporal record/replay schemes carry history buffers and
 * mapping tables whose size (and, for off-chip designs, traffic) is
 * part of the comparison. `entries`/`bytes` are level gauges sampled
 * at collection time; the off-chip counters are measurement-window
 * counts (reset with the stats tree at the warm-up boundary).
 */
struct MetadataCost
{
    std::uint64_t entries = 0;       //!< live metadata entries
    std::uint64_t bytes = 0;         //!< modeled storage footprint
    std::uint64_t offChipReads = 0;  //!< modeled off-chip metadata reads
    std::uint64_t offChipWrites = 0; //!< modeled off-chip metadata writes
};

/** Abstract instruction prefetcher. */
class InstructionPrefetcher
{
  public:
    virtual ~InstructionPrefetcher() = default;

    /**
     * Observe a demand fetch-line event and append candidates to
     * @p out (not cleared; the engine owns the buffer).
     */
    virtual void onDemandFetch(const DemandFetchEvent &event,
                               std::vector<PrefetchCandidate> &out) = 0;

    /**
     * A prefetch generated by predictor entry @p tableIndex proved
     * useful (only called for origins with a table).
     */
    virtual void prefetchUseful(std::uint32_t tableIndex)
    {
        (void)tableIndex;
    }

    /** Scheme display name. */
    virtual const char *name() const = 0;

    /**
     * Metadata storage accounting (zeros for schemes whose state is
     * negligible next to the caches, e.g. next-line). See
     * MetadataCost for the level/counter split.
     */
    virtual MetadataCost metadataCost() const { return {}; }

    /**
     * Register scheme-internal statistics under the engine's
     * "prefetch" group. Counters registered here reset with the rest
     * of the tree at the warm-up/measure boundary, which is what
     * makes the off-chip MetadataCost counters window-exact.
     */
    virtual void registerStats(StatGroup &group) { (void)group; }
};

/** Value type of one scheme knob. */
enum class KnobType : std::uint8_t
{
    Uint,
    Bool,
};

/**
 * Explicitly-set scheme knob values, each a uint64 or a bool. Knob
 * text is read once, by parseSchemeSpec(); RunSpec::Builder::build()
 * checks values against the scheme's schema. canonical() is the form
 * fingerprints, labels and the wire carry.
 */
class KnobValues
{
  public:
    struct Value
    {
        KnobType type = KnobType::Uint;
        std::uint64_t v = 0; //!< 0 or 1 for a Bool knob
    };

    void set(const std::string &name, Value v) { values_[name] = v; }

    bool empty() const { return values_.empty(); }

    /** Knob @p name's value, or @p def when it was not set. */
    std::uint64_t
    getUint(const std::string &name, std::uint64_t def) const
    {
        auto it = values_.find(name);
        return it == values_.end() ? def : it->second.v;
    }

    bool
    getBool(const std::string &name, bool def) const
    {
        auto it = values_.find(name);
        return it == values_.end() ? def : it->second.v != 0;
    }

    /**
     * "k=v,k2=v2" sorted by name, uints in decimal and bools as
     * true/false; empty when no knob is set. A knob set to its
     * default stays in it.
     */
    std::string canonical() const;

    const std::map<std::string, Value> &values() const { return values_; }

  private:
    std::map<std::string, Value> values_;
};

/**
 * Prefetcher configuration (one per core): the small common core
 * every scheme shares. Scheme-specific state lives in per-scheme
 * typed knob structs (e.g. DominoConfig), built by the scheme's
 * registry factory from `schemeKnobs`.
 */
struct PrefetchConfig
{
    /**
     * Registry scheme token or alias ("discontinuity", "disc",
     * "domino"); createPrefetcher() resolves it through the registry.
     */
    std::string schemeToken = "none";

    /**
     * Explicit scheme-specific knob values, checked against the
     * scheme's knob schema by RunSpec::Builder::build(). Schema
     * defaults apply for everything unset.
     */
    KnobValues schemeKnobs;
    /** Prefetch-ahead distance N (paper default: 4; "2NL" uses 2). */
    unsigned degree = 4;
    /** Discontinuity / target table entries (paper default: 8K). */
    unsigned tableEntries = 8192;
    /** Targets per entry for the "target" baseline. */
    unsigned targetWays = 2;
    /** Prefetch queue capacity (paper: 32). */
    unsigned queueSize = 32;
    /** Demand-fetch history used for filtering (paper: 32). */
    unsigned historySize = 32;
    /** Line size of the L1I this prefetcher feeds. */
    unsigned lineBytes = 64;

    /**
     * Replace L1I tag probing with the confidence filter of [15]
     * (see confidence_filter.hh): prefetches are gated by per-line
     * confidence counters instead of tag-port inspection.
     */
    bool useConfidenceFilter = false;
    unsigned confidenceEntries = 4096;
    std::uint8_t confidenceThreshold = 2;

    /** Canonical registry token of schemeToken ("disc" ->
     *  "discontinuity"). */
    const char *effectiveToken() const;
};

/** Display name of the scheme @p cfg selects (matches the paper's
 *  legend). */
const char *schemeDisplayName(const PrefetchConfig &cfg);

/**
 * Build a prefetcher for @p cfg (nullptr for scheme "none"):
 * resolves cfg.schemeToken through the registry and invokes the
 * descriptor's factory with cfg.schemeKnobs.
 */
std::unique_ptr<InstructionPrefetcher>
createPrefetcher(const PrefetchConfig &cfg);

} // namespace ipref

#endif // IPREF_PREFETCH_PREFETCHER_HH
