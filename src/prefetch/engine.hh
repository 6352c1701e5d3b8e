/**
 * @file
 * The per-core prefetch engine: glue between a candidate-generating
 * prefetcher, the filtering structures (recent-fetch history and the
 * prefetch queue) and the cache hierarchy.
 *
 * Issue policy follows the paper: prefetches contend for the L1I tag
 * port at low priority, obtaining it only on cycles when the core has
 * no demand fetch to issue; one tag probe is performed per free cycle
 * and, if the line is absent, a fill is requested.
 */

#ifndef IPREF_PREFETCH_ENGINE_HH
#define IPREF_PREFETCH_ENGINE_HH

#include <array>
#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "prefetch/confidence_filter.hh"
#include "prefetch/fetch_history.hh"
#include "prefetch/prefetch_queue.hh"
#include "prefetch/prefetcher.hh"
#include "prefetch/call_graph.hh"
#include "prefetch/wrong_path.hh"
#include "util/line_map.hh"
#include "util/stats.hh"

namespace ipref
{

class FetchProfiler;

/** Per-core prefetch engine. */
class PrefetchEngine : public PrefetchEvictionListener
{
  public:
    /**
     * @param cfg       scheme configuration
     * @param core      owning core
     * @param hierarchy the chip hierarchy (outlives the engine)
     *
     * Registers itself as the core's L1I eviction listener.
     */
    PrefetchEngine(const PrefetchConfig &cfg, CoreId core,
                   CacheHierarchy &hierarchy);

    /** Is a prefetcher configured? */
    bool enabled() const { return prefetcher_ != nullptr; }

    /**
     * Attach the chip-wide per-site profiler (nullptr = off). Every
     * profiler hook is guarded by a single branch on this pointer.
     */
    void setProfiler(FetchProfiler *profiler) { profiler_ = profiler; }

    /**
     * Observe a demand fetch-line event (from the fetch engine):
     * updates the filter structures, credits useful prefetches, runs
     * the prefetcher and enqueues filtered candidates.
     */
    void onDemandFetch(const DemandFetchEvent &event);

    /**
     * Observe a conditional branch (from the fetch engine); feeds
     * branch-driven prefetchers such as wrong-path [12].
     */
    void onBranch(const BranchEvent &event);

    /**
     * Observe a call or return (from the fetch engine); feeds
     * call-driven prefetchers such as call-graph prefetching [8].
     */
    void onFunction(const FunctionEvent &event);

    /**
     * One cycle of issue opportunity. @p tagPortFree is true when the
     * core made no demand fetch this cycle. Inline fast path: this is
     * called every cycle by every core, and almost every call has
     * nothing to do (no prefetcher, busy tag port, or empty queue).
     */
    void
    tick(Cycle now, bool tagPortFree)
    {
        if (!prefetcher_ || !tagPortFree || !queue_.hasWaiting())
            return;
        issueOne(now);
    }

    /**
     * Does the configured scheme consume branch / function events?
     * Fetch loops use these to skip event construction entirely for
     * the schemes that would ignore them (hoisting the per-CTI
     * dispatch out of the hot loop).
     */
    bool wantsBranchEvents() const { return wrongPath_ != nullptr; }
    bool wantsFunctionEvents() const { return callGraph_ != nullptr; }

    // PrefetchEvictionListener
    void prefetchedLineEvicted(CoreId core, Addr lineAddr,
                               bool used) override;
    void instrLineEvicted(CoreId core, Addr lineAddr) override;

    /**
     * Origin of the lifecycle most recently credited for @p lineAddr,
     * or NumOrigins when that credit was not the last one (the
     * lifecycle record is erased at credit time, so the fetch stage
     * captures this immediately after onDemandFetch() reports a late
     * prefetch hit, before another credit can overwrite it).
     */
    PrefetchOrigin
    lastCreditedOrigin(Addr lineAddr) const
    {
        return lastCredit_.line == lineAddr ? lastCredit_.origin
                                            : PrefetchOrigin::NumOrigins;
    }

    /**
     * The core finished a fetch-stall episode on @p lineAddr whose
     * in-flight prefetch hid part, but not all, of the miss latency:
     * @p cycles were still exposed. @p origin comes from
     * lastCreditedOrigin() captured at stall start (NumOrigins =
     * unattributed, e.g. a second core sharing the fill).
     */
    void notePartialStall(Addr lineAddr, std::uint64_t cycles,
                          PrefetchOrigin origin);

    InstructionPrefetcher *prefetcher() { return prefetcher_.get(); }
    PrefetchQueue &queue() { return queue_; }

    /** Metadata storage accounting of the configured prefetcher
     *  (all-zero when no prefetcher or a stateless scheme). */
    MetadataCost
    metadataCost() const
    {
        return prefetcher_ ? prefetcher_->metadataCost()
                           : MetadataCost{};
    }

    // --- statistics ---------------------------------------------------
    Counter candidates;      //!< produced by the prefetcher
    Counter filteredRecent;  //!< dropped by the recent-fetch filter
    Counter tagProbes;       //!< L1I tag-port probes performed
    Counter tagProbeHits;    //!< probe found the line resident
    Counter issued;          //!< fills actually started
    Counter issuedOffChip;   //!< ... that went to memory
    Counter droppedInFlight; //!< fill already in flight
    Counter confidenceSuppressed; //!< gated by the confidence filter
    Counter usefulPrefetches;   //!< first-use or late-merge hits
    Counter latePrefetches;     //!< subset: merged while in flight
    Counter uselessPrefetches;  //!< evicted without use
    Counter uncreditedUseful;   //!< evicted used, but use not observed
    Counter replacedInFlight;   //!< lifecycle replaced by a re-issue
    Counter partialStallEpisodes; //!< late prefetches that still stalled
    Counter partialStallCycles;   //!< exposed cycles of those episodes

    /** Issued / useful fills, attributed to the generating structure. */
    std::array<Counter,
               static_cast<std::size_t>(PrefetchOrigin::NumOrigins)>
        issuedByOrigin;
    std::array<Counter,
               static_cast<std::size_t>(PrefetchOrigin::NumOrigins)>
        usefulByOrigin;

    /** Partial-stall cycles attributed to the generating structure. */
    std::array<Counter,
               static_cast<std::size_t>(PrefetchOrigin::NumOrigins)>
        partialStallByOrigin;

    /** Prefetch accuracy: useful / issued. */
    double
    accuracy() const
    {
        return issued.value() == 0
                   ? 0.0
                   : static_cast<double>(usefulPrefetches.value()) /
                         static_cast<double>(issued.value());
    }

    /** Issue-to-first-use latency of credited prefetches (cycles). */
    const Log2Histogram &issueToUseLatency() const { return issueToUse_; }

    /** Issue-to-fill latency of issued prefetches (cycles). */
    const Log2Histogram &fillLatency() const { return fillLatency_; }

    /** Prefetches issued but not yet used, evicted or replaced. */
    std::size_t liveUnresolved() const { return origins_.size(); }

    /**
     * Lifecycle reconciliation: every issued prefetch ends in exactly
     * one bucket. Exact from a freshly constructed system (no stats
     * reset since construction).
     */
    struct Lifecycle
    {
        std::uint64_t issued = 0;
        std::uint64_t useful = 0;   //!< credited + uncredited-on-evict
        std::uint64_t useless = 0;  //!< evicted without use
        std::uint64_t inFlight = 0; //!< still unresolved
        std::uint64_t dropped = 0;  //!< lifecycle replaced by re-issue

        bool
        reconciles() const
        {
            return issued == useful + useless + inFlight + dropped;
        }
    };
    Lifecycle lifecycle() const;

    void registerStats(StatGroup &group);

  private:
    /** In-flight / resident-unused lifecycle record of one prefetch. */
    struct LivePrefetch
    {
        PrefetchOrigin origin = PrefetchOrigin::Sequential;
        std::uint32_t tableIndex = 0;
        std::uint64_t id = 0;
        Cycle issuedAt = 0;
        Addr trigger = invalidAddr; //!< generating site (attribution)
    };

    /** Credit a used prefetched line back to its predictor entry. */
    void credit(Addr lineAddr, Cycle now);

    /** Slow path of tick(): probe/filter and issue one prefetch. */
    void issueOne(Cycle now);

    /**
     * Enqueue candidates from @p scratch_ through the filters.
     * Candidates without a trigger site are stamped @p defaultTrigger.
     */
    void enqueueCandidates(Addr defaultTrigger);

    PrefetchConfig cfg_;
    CoreId core_;
    CacheHierarchy &hierarchy_;
    FetchProfiler *profiler_ = nullptr;
    std::unique_ptr<InstructionPrefetcher> prefetcher_;
    /** Typed views of prefetcher_, resolved once at construction so
     *  the per-CTI event hooks don't dynamic_cast per event. */
    WrongPathPrefetcher *wrongPath_ = nullptr;
    CallGraphPrefetcher *callGraph_ = nullptr;
    PrefetchQueue queue_;
    FetchHistory history_;
    std::unique_ptr<ConfidenceFilter> confidence_;
    std::vector<PrefetchCandidate> scratch_;
    LineMap<LivePrefetch> origins_;
    std::uint64_t nextPrefetchId_ = 1;
    Log2Histogram issueToUse_;
    Log2Histogram fillLatency_;
    Log2Histogram partialExposed_;

    /** Lifecycle identity of the most recent credit() — the record
     *  itself is erased there, so late-hit charge points read this. */
    struct LastCredit
    {
        Addr line = invalidAddr;
        PrefetchOrigin origin = PrefetchOrigin::Sequential;
        std::uint64_t id = 0;
    };
    LastCredit lastCredit_;
};

} // namespace ipref

#endif // IPREF_PREFETCH_ENGINE_HH
