/**
 * @file
 * The dynamic workload walker: traverses a ProgramCfg and emits a
 * deterministic, repetitive instruction stream with transaction
 * semantics, call stacks, loops, traps, a layered data stream
 * (stack / hot heap / cold streaming) and multi-context (server
 * thread) interleaving via trap-mediated context switches.
 */

#ifndef IPREF_WORKLOAD_WORKLOAD_HH
#define IPREF_WORKLOAD_WORKLOAD_HH

#include <memory>
#include <vector>

#include "trace/trace_source.hh"
#include "util/rng.hh"
#include "workload/cfg.hh"

namespace ipref
{

/**
 * A TraceSource over a static program. The stream is infinite (the
 * dispatcher loops forever); consumers bound it by instruction count.
 *
 * Multiple Workload instances may share one ProgramCfg (same binary)
 * with different walk seeds — this models several cores running the
 * same commercial application on a CMP, sharing code but executing
 * different transaction interleavings.
 */
class Workload : public TraceSource
{
  public:
    /**
     * @param prog     the static program (shared, immutable)
     * @param walkSeed seed of the dynamic walk
     * @param dataOffset added to all data addresses (per-core/process
     *                   disjoint data segments)
     */
    Workload(std::shared_ptr<const ProgramCfg> prog,
             std::uint64_t walkSeed, Addr dataOffset = 0);

    bool next(InstrRecord &out) override;

    /**
     * Bulk pull, record for record and draw for draw the same as
     * calling next() out.size() times. The walk never ends, so this
     * always fills @p out. The non-terminator slots left in the
     * current block are emitted in one run; terminators, async traps
     * and trap-handler bodies take the scalar step.
     */
    std::size_t nextBatch(std::span<InstrRecord> out) override;

    void reset() override;

    /** Completed transactions (returns into the dispatcher). */
    std::uint64_t transactionsCompleted() const { return transactions_; }

    /** Instructions emitted since construction/reset. */
    std::uint64_t instructionsEmitted() const { return emitted_; }

    /** Trap-mediated context switches taken. */
    std::uint64_t contextSwitches() const { return switches_; }

    const ProgramCfg &program() const { return *prog_; }

  private:
    struct Frame
    {
        std::uint32_t retBlock;
        std::uint16_t retInstr;
    };

    /** A suspended or running request context (server thread). */
    struct Context
    {
        std::vector<Frame> stack;
        std::uint32_t curBlock = 0;
        unsigned instrIdx = 0;
    };

    /** Address of instruction slot @p idx in block @p gb. */
    Addr addrOf(std::uint32_t gb, unsigned idx) const;

    /** Fill a record from static (non-CTI) slot @p si at @p pc. */
    void emitStatic(const StaticInstr &si, Addr pc, InstrRecord &out);

    /** Draw the asynchronous events due before a non-handler
     *  instruction (a context switch, then a plain trap); if one
     *  fires, fill @p out with its trap record and return true. */
    bool takeAsync(InstrRecord &out);

    /** Generate a data effective address for a memory op. */
    Addr genDataAddr();

    /** Enter a trap handler; on its return, resume context
     *  @p resumeCtx (== active for plain interrupts). */
    void takeTrap(InstrRecord &out, std::size_t resumeCtx);

    std::shared_ptr<const ProgramCfg> prog_;
    std::uint64_t walkSeed_;
    Addr dataOffset_;
    Addr codeBase_; //!< the program's; blocks store offsets from it

    Rng rng_;
    std::vector<Context> contexts_;
    std::size_t active_ = 0;

    /** Trap handler execution state (handlers are leaf functions). */
    bool inTrap_ = false;
    std::uint32_t trapBlock_ = 0;
    unsigned trapInstr_ = 0;
    std::size_t trapResumeCtx_ = 0;

    /** Consecutive-taken counters for loop back-edges (safety cap). */
    std::vector<std::uint8_t> loopTaken_;

    const ZipfSampler &hotZipf_; //!< shared by the program's walkers
    std::uint64_t coldCursor_ = 0;
    std::uint64_t coldWrap_ = 64; //!< cold-region size (cursor modulus)

    Addr hotBase_ = 0;
    Addr warmBase_ = 0;
    Addr coldBase_ = 0;
    Addr stackBase_ = 0;

    std::uint64_t transactions_ = 0;
    std::uint64_t emitted_ = 0;
    std::uint64_t switches_ = 0;

    double switchProb_ = 0.0;

    /** Back-edge runaway cap (forces loop exit). */
    static constexpr std::uint8_t maxConsecutiveTrips = 96;
};

} // namespace ipref

#endif // IPREF_WORKLOAD_WORKLOAD_HH
