/**
 * @file
 * Static program structure for the synthetic workloads: a layered
 * call graph of functions, each a list of basic blocks with fixed
 * per-site control-flow behaviour.
 *
 * The structure is built once from the layout seed and is immutable
 * afterwards; the dynamic walker (Workload) traverses it. Fixing
 * branch targets, call targets and per-site biases at build time is
 * what gives the fetch stream the *repetitive* discontinuity structure
 * that history-based prefetchers (and the paper's discontinuity
 * predictor) exploit.
 */

#ifndef IPREF_WORKLOAD_CFG_HH
#define IPREF_WORKLOAD_CFG_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "trace/record.hh"
#include "util/rng.hh"
#include "util/types.hh"
#include "workload/workload_config.hh"

namespace ipref
{

/** How a basic block ends. */
enum class TermKind : std::uint8_t
{
    FallThrough, //!< no CTI; execution continues in the next block
    CondBranch,  //!< conditional branch to block `target` (else next)
    UncondBranch,//!< jump to block `target`, or tail call to function
    Call,        //!< direct call to function `target`; resumes at next
    IndirectCall,//!< call through indirect set `target`
    Return,      //!< return to caller
};

/**
 * A basic block: contiguous instructions ending in a terminator.
 *
 * The one `target` field is read per terminator kind:
 *  - CondBranch, and UncondBranch without isTailCall: a global block
 *    index into ProgramCfg::blocks();
 *  - Call, and UncondBranch with isTailCall: a function index into
 *    ProgramCfg::functions();
 *  - IndirectCall: an index into ProgramCfg::indirectSets();
 *  - FallThrough and Return: unused (0).
 *
 * The block stores its address as an offset from the program's code
 * base, which startPc(), termPc() and endPc() take. ProgramCfg keeps
 * every index below 2^24.
 */
struct BasicBlock
{
    std::uint32_t startOff = 0;         //!< byte offset from codeBase
    std::uint32_t instrBase : 24 = 0;   //!< index into ProgramCfg::instrs
    std::uint32_t numInstrs : 8 = 0;    //!< includes the terminator slot
    std::uint32_t target : 24 = 0;      //!< block, function or set index
    TermKind term : 3 = TermKind::FallThrough;
    bool isBackEdge : 1 = false;        //!< CondBranch: loop back-edge?
    bool isTailCall : 1 = false;        //!< UncondBranch to function target
    float takenProb = 0.0f;             //!< CondBranch: P(taken)

    /** Address of the block's first instruction. */
    Addr startPc(Addr codeBase) const { return codeBase + startOff; }

    /** Address of the block's terminator (last instruction). */
    Addr
    termPc(Addr codeBase) const
    {
        return startPc(codeBase) +
               static_cast<Addr>(numInstrs - 1) * instrBytes;
    }

    /** Address just past the block. */
    Addr
    endPc(Addr codeBase) const
    {
        return startPc(codeBase) + static_cast<Addr>(numInstrs) * instrBytes;
    }
};
static_assert(sizeof(BasicBlock) == 16);

/**
 * Static instruction description: the op (IntAlu..Store, all below 8)
 * in bits 5-7 of opDst and the destination register in bits 0-4.
 */
struct StaticInstr
{
    std::uint8_t opDst = 0;
    std::uint8_t src0 = 0;
    std::uint8_t src1 = 0;

    OpClass op() const { return static_cast<OpClass>(opDst >> 5); }
    std::uint8_t dst() const { return opDst & 31; }
};
static_assert(sizeof(StaticInstr) == 3);
static_assert(static_cast<unsigned>(OpClass::Store) < 8);

/** A function: a contiguous range of blocks; entry is the first. */
struct Function
{
    std::uint32_t firstBlock = 0;
    std::uint16_t numBlocks = 0;
    std::uint8_t layer = 0;    //!< call-graph layer (0 = roots)
    bool isTrapHandler = false;
};
static_assert(sizeof(Function) == 8);

/**
 * The candidate callees of one indirect-call site: entries
 * [begin, begin + count) of ProgramCfg::indirectFuncs() and of the
 * matching skewed selection CDF, ProgramCfg::indirectCdf().
 */
struct IndirectSet
{
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
};

/**
 * The whole static program: functions, blocks, instruction slots and
 * indirect-target sets, plus the transaction-dispatch metadata.
 */
class ProgramCfg
{
  public:
    /**
     * Build a program from the config's layoutSeed. Throws ConfigError
     * when a knob is out of range or the program would not fit the
     * compact layout (2^24 or more blocks, instructions or indirect
     * targets).
     */
    explicit ProgramCfg(const WorkloadConfig &cfg);

    const WorkloadConfig &config() const { return cfg_; }

    const std::vector<Function> &functions() const { return funcs_; }
    const std::vector<BasicBlock> &blocks() const { return blocks_; }
    const std::vector<StaticInstr> &instrs() const { return instrs_; }
    const std::vector<IndirectSet> &indirectSets() const { return isets_; }

    /** Callees of every indirect set, one run per set. */
    const std::vector<std::uint32_t> &
    indirectFuncs() const
    {
        return indirectFuncs_;
    }
    /** Selection CDFs, parallel to indirectFuncs(); each run ends at
     *  1.0. */
    const std::vector<double> &indirectCdf() const { return indirectCdf_; }

    /** Indices of layer-0 functions (transaction entry points); the
     *  dispatcher's indirect set is this run. */
    std::span<const std::uint32_t>
    rootFuncs() const
    {
        return {indirectFuncs_.data() + roots_.begin, roots_.count};
    }
    /** Zipf CDF over rootFuncs (transaction popularity). */
    std::span<const double>
    rootCdf() const
    {
        return {indirectCdf_.data() + roots_.begin, roots_.count};
    }

    /** Indices of trap-handler functions. */
    const std::vector<std::uint32_t> &trapFuncs() const { return traps_; }

    /**
     * Zipf sampler over the hot heap lines, built on first use (its
     * CDF is 2 MiB of pow() results) and shared by every walker of
     * this program. Thread-safe.
     */
    const ZipfSampler &hotDataZipf() const;

    /** Entry address of function @p fi (its first block's). */
    Addr
    entryPc(std::uint32_t fi) const
    {
        return blocks_[funcs_[fi].firstBlock].startPc(cfg_.codeBase);
    }

    /** Total bytes of generated code (including trap handlers). */
    Addr codeBytes() const { return codeBytes_; }

    /** Number of call-graph layers. */
    unsigned layers() const { return cfg_.callLayers; }

  private:
    using LayerFuncs = std::vector<std::vector<std::uint32_t>>;

    LayerFuncs buildFunctions(Rng &rng);
    void assignTargets(Rng &rng, const LayerFuncs &layerFuncs);

    /**
     * Assign code addresses in call-affinity order (a Pettis-Hansen
     * style DFS of the call graph from the dispatcher), mirroring the
     * paper's aggressively link-time-optimized binaries: a function's
     * callees tend to sit right after it, so sequential prefetch
     * overrun lands on soon-to-be-executed code.
     */
    void layoutCode();

    WorkloadConfig cfg_;
    std::vector<Function> funcs_;
    std::vector<BasicBlock> blocks_;
    std::vector<StaticInstr> instrs_;
    std::vector<IndirectSet> isets_;
    std::vector<std::uint32_t> indirectFuncs_;
    std::vector<double> indirectCdf_;
    IndirectSet roots_;
    std::vector<std::uint32_t> traps_;
    Addr codeBytes_ = 0;

    mutable std::once_flag hotZipfOnce_;
    mutable std::optional<ZipfSampler> hotZipf_;
};

} // namespace ipref

#endif // IPREF_WORKLOAD_CFG_HH
