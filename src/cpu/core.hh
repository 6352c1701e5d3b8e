/**
 * @file
 * Trace-driven, cycle-accurate out-of-order core model.
 *
 * Models the paper's core (Section 5): 8-wide fetch, 3-wide issue,
 * 64-entry window/ROB, 16-stage pipeline, gshare + BTB + RAS front
 * end, two-level TLBs. Each tick() advances one cycle through
 * commit -> issue -> dispatch -> fetch. A stalled core sleeps:
 * wakeAt() names the next cycle a tick can change state, and
 * skipQuiet() charges the cycles before it in one step.
 *
 * Trace-driven approximations (documented in DESIGN.md): no wrong
 * path is simulated; a mispredicted CTI blocks fetch until it issues,
 * then fetch resumes after a redirect penalty. Instruction cache
 * misses stall fetch until the fill arrives, which is the first-order
 * effect the paper's prefetchers attack.
 *
 * The fetch stage is batched: records are pulled from the bound
 * TraceSource in blocks of CoreParams::fetchBlockRecords via
 * nextBatch() into a per-core block buffer, and consumed from a span
 * — one virtual call per block instead of one per instruction. A
 * block size of 1 reproduces the original record-at-a-time pull
 * exactly (used by time-sliced runs, whose source is swapped
 * mid-run, and by the batched==scalar equivalence tests).
 */

#ifndef IPREF_CPU_CORE_HH
#define IPREF_CPU_CORE_HH

#include <optional>
#include <span>
#include <vector>

#include "cache/hierarchy.hh"
#include "cpu/branch_predictor.hh"
#include "cpu/tlb.hh"
#include "prefetch/engine.hh"
#include "sim/cycle_ledger.hh"
#include "trace/trace_source.hh"
#include "util/ring.hh"
#include "util/stats.hh"

namespace ipref
{

/** Core microarchitecture parameters (paper defaults). */
struct CoreParams
{
    unsigned fetchWidth = 8;
    unsigned dispatchWidth = 4;
    unsigned issueWidth = 3;
    unsigned commitWidth = 4;
    unsigned robEntries = 64;
    unsigned fetchBufferEntries = 24;
    /** Fetch-to-dispatch latency (front half of the 16-stage pipe). */
    unsigned frontendDelay = 8;
    /** Additional refill penalty after a mispredict resolves. */
    unsigned redirectPenalty = 8;
    Cycle intMulLatency = 5;
    Cycle fpLatency = 3;
    /**
     * Records pulled per TraceSource::nextBatch() call into the
     * per-core fetch block. 1 = the scalar record-at-a-time pull
     * (bit-identical stream, used for time-sliced sources).
     */
    unsigned fetchBlockRecords = 512;
    BranchPredictorParams bp;
    TlbParams tlb;
    static constexpr unsigned numRegs = ipref::numRegs;
};

/** One out-of-order core bound to a trace, a hierarchy and a
 *  prefetch engine. */
class OoOCore
{
  public:
    OoOCore(CoreId id, const CoreParams &params,
            CacheHierarchy &hierarchy, PrefetchEngine &engine,
            TraceSource *trace);

    /** Advance one cycle at time @p now. */
    void tick(Cycle now);

    /**
     * First cycle >= @p now at which tick() can change anything
     * besides cycle accounting. Depends only on this core's own
     * state: no other core's tick can move it (DESIGN.md §13).
     */
    Cycle wakeAt(Cycle now) const;

    /**
     * Charge the quiet cycles [@p from, @p to) in one step, exactly
     * as ticking each of them would. Requires @p to <=
     * wakeAt(@p from).
     */
    void skipQuiet(Cycle from, Cycle to);

    /** Trace exhausted and pipeline drained. */
    bool done() const;

    /**
     * Called at the warm-up/measure boundary, after the stats tree
     * (including the cycle ledger) was reset and the trace sink
     * cleared: forget the open stall episode's pre-boundary cycles so
     * the episode trace events re-sum exactly to the reset ledger.
     */
    void onMeasureBegin();

    /**
     * Flush the trailing stall episode at end of run so the
     * fetch_stall trace events account for every charged cycle.
     */
    void finishAccounting(Cycle now);

    /** Per-cycle CPI-stack attribution (one bucket per tick). */
    const CycleLedger &ledger() const { return ledger_; }

    /** Swap the instruction stream (time-sliced mixed workloads).
     *  The pipeline naturally drains the old stream's instructions.
     *  Callers run with fetchBlockRecords == 1, so at most the single
     *  pending record of the old stream is still buffered — the same
     *  laziness as the original scalar pull. */
    void setTrace(TraceSource *trace) { trace_ = trace; }

    CoreId id() const { return id_; }
    std::uint64_t committed() const { return committed_.value(); }

    FrontEndPredictor &predictor() { return bp_; }
    Tlb &itlb() { return itlb_; }
    Tlb &dtlb() { return dtlb_; }

    // Statistics.
    Counter committed_;
    Counter fetchedInstrs;
    Counter fetchStallCycles;   //!< cycles fetch waited on a fill
    Counter branchStallCycles;  //!< cycles fetch blocked on a branch
    Counter robFullCycles;
    Counter loadsIssued;
    Counter storesIssued;

    void registerStats(StatGroup &group);

  private:
    /**
     * What the back end needs of an instruction once it cleared
     * fetch: pc/target/taken are fully consumed by the front end
     * (cache access, prediction), so the buffered form is half an
     * InstrRecord — fewer bytes copied per dispatch.
     */
    struct FetchedInstr
    {
        Cycle availAt;      //!< dispatchable from this cycle
        std::uint64_t seq;
        Addr dataAddr;
        OpClass op;
        std::uint8_t srcReg[2];
        std::uint8_t dstReg;
    };
    struct RobEntry
    {
        Cycle execDone = neverCycle;
        std::uint64_t seq;
        Addr dataAddr;
        OpClass op;
        std::uint8_t srcReg[2];
        std::uint8_t dstReg;
        bool issued = false;
    };

    void commitStage(Cycle now);
    void issueStage(Cycle now);
    void dispatchStage(Cycle now);
    void fetchStage(Cycle now);

    /**
     * Consume up to span.size() records at @p now: per-record line
     * transition handling (cache access, prefetch events, possible
     * stall), delivery into the fetch buffer, and CTI prediction.
     * @p fetched and @p stalled accumulate across refills within one
     * cycle. @return {records consumed, stop fetching this cycle}.
     */
    std::pair<std::size_t, bool>
    fetchFromSpan(std::span<const InstrRecord> recs, Cycle now,
                  unsigned &fetched, bool &stalled);

    /** Pull the next block from the source; false when exhausted. */
    bool refillBlock();

    Cycle execute(const RobEntry &entry, Cycle now);

    /** Charge @p n cycles from @p now to @p b; extends or opens a
     *  stall episode. */
    void chargeCycle(CycleBucket b, Cycle now, Addr line,
                     std::uint64_t n = 1);

    /** Charge @p n cycles from @p now of fetch blocked on a
     *  mispredicted branch or waiting on a fill. */
    void chargeFetchWait(Cycle now, std::uint64_t n);

    /** Close the open episode (emits its fetch_stall trace event). */
    void closeEpisode(Cycle now);

    /** Bucket for one cycle of the recorded fetch stall. */
    CycleBucket
    stallBucket(Cycle now) const
    {
        if (stallIsRedirect_)
            return CycleBucket::BranchRedirect;
        // The fill portion of the wait charges to the satisfying
        // level; the remainder is translation penalty.
        return now < stallFillReady_ ? stallFillBucket_
                                     : CycleBucket::Itlb;
    }

    CoreId id_;
    CoreParams params_;
    CacheHierarchy &hierarchy_;
    PrefetchEngine &engine_;
    TraceSource *trace_;

    FrontEndPredictor bp_;
    Tlb itlb_;
    Tlb dtlb_;

    FixedRing<RobEntry> rob_;
    FixedRing<FetchedInstr> fetchBuf_;
    std::array<Cycle, CoreParams::numRegs> regReady_{};

    /** Dispatched-but-unissued ROB entries; the issue scan is skipped
     *  entirely when every resident entry has already issued. */
    unsigned robUnissued_ = 0;

    /** Every ROB entry older than this logical index has issued, so
     *  the issue scan starts here (commit shifts it back down). */
    std::size_t issueHint_ = 0;

    /** A scan that issues nothing cannot succeed again before the
     *  earliest source-ready time of the entries it skipped — until
     *  then (or until a dispatch adds a new entry) the scan is
     *  skipped wholesale. */
    Cycle issueWakeAt_ = 0;

    /** Batched record pull: block_[blockPos_..blockLen_) are decoded
     *  records not yet delivered into the fetch buffer. */
    std::vector<InstrRecord> block_;
    std::uint32_t blockPos_ = 0;
    std::uint32_t blockLen_ = 0;
    bool exhausted_ = false;

    Addr curFetchLine_ = invalidAddr;
    InstrRecord prevFetched_;
    bool havePrev_ = false;

    Cycle fetchResumeAt_ = 0;
    std::optional<std::uint64_t> blockedOnSeq_;
    bool demandFetchedThisCycle_ = false;

    std::uint64_t nextSeq_ = 0;

    // --- cycle accounting --------------------------------------------
    CycleLedger ledger_;
    /** Cause of the stall behind fetchResumeAt_, recorded when the
     *  stall begins (the FetchResult is out of scope by the time the
     *  waited cycles are charged). */
    CycleBucket stallFillBucket_ = CycleBucket::FetchL1I;
    Cycle stallFillReady_ = 0;  //!< fill done; later cycles are I-TLB
    bool stallIsRedirect_ = false;
    Addr stallLine_ = invalidAddr;
    /** Lifecycle origin captured at stall start for a late prefetch
     *  (the engine erases the record when it credits the line). */
    PrefetchOrigin stallPartialOrigin_ = PrefetchOrigin::NumOrigins;

    /** Open run of same-bucket cycles, emitted as one fetch_stall
     *  trace event (arg = cycles, detail = bucket) when it closes. */
    bool epOpen_ = false;
    CycleBucket epBucket_ = CycleBucket::Busy;
    std::uint64_t epCycles_ = 0;
    Addr epLine_ = invalidAddr;
    PrefetchOrigin epPartialOrigin_ = PrefetchOrigin::NumOrigins;
};

} // namespace ipref

#endif // IPREF_CPU_CORE_HH
