/**
 * @file
 * The instruction record: the unit of information flowing from a
 * workload/trace into the simulator.
 *
 * The record carries the SPARC-flavoured control-transfer taxonomy the
 * paper's Figure 3 uses: conditional branches (taken-forward,
 * taken-backward, not-taken), unconditional branches, and function
 * calls implemented with call / (indirect) jump / return instructions,
 * plus traps.
 */

#ifndef IPREF_TRACE_RECORD_HH
#define IPREF_TRACE_RECORD_HH

#include <cstdint>
#include <string>

#include "util/types.hh"

namespace ipref
{

/** Fixed instruction size (SPARC-like RISC encoding). */
inline constexpr Addr instrBytes = 4;

/** Architectural registers: a record's register bytes lie in
 *  [0, numRegs), and the core's scoreboard has one slot for each. */
inline constexpr unsigned numRegs = 32;

/** Broad instruction classes; CTI classes mirror the paper's taxonomy. */
enum class OpClass : std::uint8_t
{
    IntAlu,       //!< single-cycle integer op
    IntMul,       //!< multi-cycle integer op
    FpAlu,        //!< floating-point op
    Load,         //!< memory read
    Store,        //!< memory write
    CondBranch,   //!< PC-relative conditional branch
    UncondBranch, //!< PC-relative unconditional branch
    Call,         //!< direct call (target embedded in instruction)
    Jump,         //!< indirect jump (register target; indirect calls)
    Return,       //!< function return (register target)
    Trap,         //!< trap into the (simulated) kernel
    NumOpClasses
};

/** Human-readable op class name. */
const char *opClassName(OpClass op);

/**
 * Category of the fetch-stream transition *into* a cache line; used
 * to attribute instruction misses (paper Figure 3).
 */
enum class FetchTransition : std::uint8_t
{
    Sequential,    //!< fall-through from the previous line
    CondNotTaken,  //!< line entered past a not-taken conditional branch
    CondTakenFwd,  //!< taken conditional branch, forward target
    CondTakenBack, //!< taken conditional branch, backward target
    UncondBranch,
    Call,
    Jump,
    Return,
    Trap,
    NumTransitions
};

/** Human-readable transition name (matches Fig. 3 legend). */
const char *transitionName(FetchTransition t);

/** Coarse grouping used by the limit study (paper Figure 4). */
enum class MissGroup : std::uint8_t
{
    Sequential, //!< Sequential
    Branch,     //!< conditional (all outcomes) + unconditional branches
    Function,   //!< call + jump + return
    Trap,
    NumGroups
};

/** Map a transition to its limit-study group. */
MissGroup missGroup(FetchTransition t);

/** One dynamic instruction. */
struct InstrRecord
{
    Addr pc = 0;                //!< instruction address
    Addr target = 0;            //!< next PC if this is a taken CTI
    Addr dataAddr = 0;          //!< effective address for Load/Store
    OpClass op = OpClass::IntAlu;
    bool taken = false;         //!< outcome for CondBranch (true for
                                //!< unconditional CTIs)
    std::uint8_t srcReg[2] = {0, 0}; //!< source architectural registers
    std::uint8_t dstReg = 0;         //!< destination register (0 = none)

    /** Is this a control-transfer instruction? */
    bool
    isCti() const
    {
        return op == OpClass::CondBranch || op == OpClass::UncondBranch ||
               op == OpClass::Call || op == OpClass::Jump ||
               op == OpClass::Return || op == OpClass::Trap;
    }

    /** Is this a memory instruction? */
    bool isMem() const { return op == OpClass::Load || op == OpClass::Store; }

    /** Does this CTI redirect the fetch stream? */
    bool
    redirects() const
    {
        return isCti() && (op != OpClass::CondBranch || taken);
    }

    /** Address of the next dynamic instruction. */
    Addr
    nextPc() const
    {
        return redirects() ? target : pc + instrBytes;
    }

    /**
     * Transition category caused by this instruction when the *next*
     * instruction lands in a different cache line.
     */
    FetchTransition transitionType() const;
};

} // namespace ipref

#endif // IPREF_TRACE_RECORD_HH
