/**
 * @file
 * The chip's memory hierarchy: per-core L1 instruction/data caches, a
 * shared unified L2, and the off-chip channel, plus the in-flight fill
 * (MSHR) machinery that gives prefetches their timeliness semantics.
 *
 * Three paper-specific mechanisms live here:
 *  - demand-miss categorization by fetch transition (Figure 3),
 *  - the limit-study "ideal elimination" of selected miss groups
 *    (Figure 4), and
 *  - the selective-L2-install ("bypass") policy: prefetched lines are
 *    installed only into the L1I; on eviction, a line that was proven
 *    useful is installed into the L2, a useless one is dropped
 *    (Section 7).
 */

#ifndef IPREF_CACHE_HIERARCHY_HH
#define IPREF_CACHE_HIERARCHY_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "memory/memory.hh"
#include "trace/record.hh"
#include "util/line_map.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace ipref
{

/** Receives notifications about prefetched lines leaving the L1I. */
class PrefetchEvictionListener
{
  public:
    virtual ~PrefetchEvictionListener() = default;

    /** A prefetched line was evicted from @p core's L1I. */
    virtual void prefetchedLineEvicted(CoreId core, Addr lineAddr,
                                       bool used) = 0;

    /** Any instruction line was evicted from @p core's L1I (used by
     *  the confidence filter of [15]). Default: ignored. */
    virtual void
    instrLineEvicted(CoreId core, Addr lineAddr)
    {
        (void)core;
        (void)lineAddr;
    }
};

/** Hierarchy-wide parameters. */
struct HierarchyParams
{
    unsigned numCores = 1;
    CacheParams l1i{"l1i", 32u << 10, 4, 64, ReplPolicy::LRU};
    CacheParams l1d{"l1d", 32u << 10, 4, 64, ReplPolicy::LRU};
    CacheParams l2{"l2", 2u << 20, 4, 64, ReplPolicy::LRU};
    Cycle l1Latency = 4;
    Cycle l2Latency = 25;
    MemoryParams memory;

    /** Selective L2 installation of instruction prefetches (§7). */
    bool prefetchBypassL2 = false;

    /** Limit study: demand I-misses in these groups become hits. */
    std::array<bool, static_cast<std::size_t>(MissGroup::NumGroups)>
        idealEliminate{};

    /** Fully functional mode: all latencies zero, no bandwidth. */
    void
    makeFunctional()
    {
        l1Latency = 0;
        l2Latency = 0;
        memory.latency = 0;
    }
};

/** Result of a demand instruction fetch of one line. */
struct FetchResult
{
    Cycle ready = 0;          //!< when the line can be consumed
    bool l1Hit = false;
    bool firstUseOfPrefetch = false; //!< first hit on a prefetched line
    bool latePrefetchHit = false;    //!< merged with in-flight prefetch
    bool l1Miss = false;      //!< true demand L1I miss
    bool l2Miss = false;      //!< ... that also missed in the L2
    bool eliminated = false;  //!< removed by the ideal filter
    bool fromMemory = false;  //!< satisfied off chip (directly or via
                              //!< the in-flight fill merged with)
};

/** Result of a demand data access. */
struct DataResult
{
    Cycle ready = 0;
    bool l1Hit = false;
    bool l2Miss = false;
};

/** Outcome of a prefetch request handed to the hierarchy. */
enum class PrefetchOutcome
{
    Issued,          //!< a fill was started (from L2 or memory)
    DroppedPresent,  //!< line already in the L1I
    DroppedInFlight, //!< line already being filled for this core
    Merged,          //!< attached to another core's in-flight fill
};

/** Result of a prefetch request. */
struct PrefetchResult
{
    PrefetchOutcome outcome = PrefetchOutcome::Issued;
    Cycle ready = 0;
    bool fromMemory = false; //!< missed L2 and went off chip
};

/** Index of an in-flight fill in the hierarchy's fill slab. */
using FillId = std::uint32_t;

/**
 * Completion order of in-flight fills: a binary min-heap of (ready,
 * id) entries driven by std::push_heap/std::pop_heap with a
 * ready-only comparator. That is the algorithm std::priority_queue
 * runs, so fills sharing a ready cycle pop, and install (which
 * decides evictions), in the same order a priority_queue of fills
 * would give. A fill's ready cycle never changes once started, so
 * the heap carries it and sifting never touches the slab.
 */
class FillHeap
{
  public:
    bool empty() const { return heap_.empty(); }

    /** Ready cycle of the next fill to complete; the heap must not
     *  be empty. */
    Cycle nextReady() const { return heap_.front().ready; }

    void
    push(Cycle ready, FillId id)
    {
        heap_.push_back({ready, id});
        std::push_heap(heap_.begin(), heap_.end(), later);
    }

    /** Remove and return the fill that completes first. */
    FillId
    pop()
    {
        std::pop_heap(heap_.begin(), heap_.end(), later);
        FillId id = heap_.back().id;
        heap_.pop_back();
        return id;
    }

  private:
    struct Entry
    {
        Cycle ready;
        FillId id;
    };

    static bool
    later(const Entry &a, const Entry &b)
    {
        return a.ready > b.ready;
    }

    std::vector<Entry> heap_;
};

/**
 * The full on-chip hierarchy shared by all cores of one chip.
 *
 * Time is supplied by callers ("now") and must be monotonically
 * non-decreasing across calls; in-flight fills are drained lazily on
 * every entry point.
 */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const HierarchyParams &params);

    const HierarchyParams &params() const { return params_; }

    /** Register @p l to hear about core @p core's L1I evictions. */
    void setEvictionListener(CoreId core, PrefetchEvictionListener *l);

    /**
     * Demand instruction fetch of the line containing @p pc by
     * @p core at @p now; @p transition categorizes a miss.
     */
    FetchResult fetchAccess(CoreId core, Addr pc,
                            FetchTransition transition, Cycle now);

    /** Demand data access (load or store). */
    DataResult dataAccess(CoreId core, Addr addr, bool isWrite,
                          Cycle now);

    /**
     * Instruction prefetch of the line containing @p addr for
     * @p core. The caller (prefetch engine) is expected to have
     * already probed the L1I tags.
     */
    PrefetchResult prefetchRequest(CoreId core, Addr addr, Cycle now);

    /** Tag-only L1I probe (models the prefetcher's tag-port use). */
    bool probeL1I(CoreId core, Addr addr) const;

    /** Complete all in-flight fills (end of simulation). */
    void drainAll();

    /** Line size shared by every level. */
    unsigned lineBytes() const { return params_.l2.lineBytes; }

    /** Line (byte-aligned) of @p addr. */
    Addr
    lineOf(Addr addr) const
    {
        return addr & ~static_cast<Addr>(lineBytes() - 1);
    }

    // --- component access (tests, stats) -----------------------------
    SetAssocCache &l1i(CoreId core) { return *l1i_[core]; }
    SetAssocCache &l1d(CoreId core) { return *l1d_[core]; }
    SetAssocCache &l2() { return l2_; }
    MemoryChannel &memory() { return memory_; }

    // --- demand statistics -------------------------------------------
    Counter fetchLineAccesses;  //!< demand line fetches (all cores)
    Counter l1iMisses;          //!< true L1I demand misses
    Counter l1iEliminated;      //!< misses removed by the ideal filter
    Counter l1iFirstUseHits;    //!< first use of a prefetched L1I line
    Counter l1iLateHits;        //!< demand merged with prefetch fill
    Counter l2iMisses;          //!< demand instruction misses in L2
    Counter l1dAccesses;
    Counter l1dMisses;
    Counter l2dMisses;          //!< demand data misses in L2
    Counter l2WritebacksToMem;
    Counter bypassInstalls;     //!< useful prefetches installed on evict
    Counter bypassDrops;        //!< useless prefetches dropped on evict

    /** L1I demand misses by fetch-transition category. */
    std::array<Counter,
               static_cast<std::size_t>(FetchTransition::NumTransitions)>
        l1iMissByTransition;
    /** L2 demand instruction misses by fetch-transition category. */
    std::array<Counter,
               static_cast<std::size_t>(FetchTransition::NumTransitions)>
        l2iMissByTransition;

    void registerStats(StatGroup &group);

  private:
    /** One MSHR: a line being filled and the caches it lands in. */
    struct Fill
    {
        Addr lineAddr = 0;
        Cycle ready = 0;
        bool isPrefetch = false;
        bool demandMerged = false;
        bool isInstr = false;
        bool installL2 = false;
        bool dirty = false;
        bool fromMemory = false; //!< the data is coming from off chip
        CoreId srcCore = 0;
        /** cores whose L1I (instr) or L1D (data) receive the line */
        std::vector<CoreId> targets;
    };

    /** Complete, in heap order, every fill ready by @p limit. */
    void completeFills(Cycle limit);

    /** Complete fills whose ready time has passed. */
    void drain(Cycle now);

    /** Install a completed fill into its targets. Starts no fill,
     *  so the slab slot @p fill stays put throughout. */
    void install(Fill &fill);

    /** Insert into L2, handling dirty-victim writeback. */
    void insertL2(Addr lineAddr, const InsertFlags &flags, Cycle now);

    /** Start a fill and register it in the MSHR table. */
    void startFill(Addr lineAddr, Cycle ready, bool isPrefetch,
                   bool isInstr, bool installL2, bool dirty,
                   bool fromMemory, CoreId core);

    /** Add @p core to @p fill's targets unless already there. */
    static void addTarget(Fill &fill, CoreId core);

    HierarchyParams params_;
    std::vector<std::unique_ptr<SetAssocCache>> l1i_;
    std::vector<std::unique_ptr<SetAssocCache>> l1d_;
    SetAssocCache l2_;
    MemoryChannel memory_;
    std::vector<PrefetchEvictionListener *> listeners_;

    /**
     * The MSHR table. Fills live in a slab addressed by FillId;
     * completed slots go on a free list and keep their targets
     * capacity, so the steady state runs allocation-free. startFill
     * can grow the slab, so code that may start a fill holds ids,
     * never Fill references.
     */
    std::vector<Fill> fills_;
    std::vector<FillId> freeFills_;
    LineMap<FillId> inflight_; //!< line -> its in-flight fill
    FillHeap fillHeap_;
    /** Earliest in-flight ready time: drain() — called on every
     *  hierarchy entry point — early-outs on one plain compare
     *  without touching the fill heap. */
    Cycle nextFillAt_ = neverCycle;
    Cycle lastNow_ = 0;
};

} // namespace ipref

#endif // IPREF_CACHE_HIERARCHY_HH
