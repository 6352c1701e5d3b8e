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
    CondBranch,  //!< conditional branch to targetBlock (else next)
    UncondBranch,//!< unconditional branch to targetBlock
    Call,        //!< direct call to targetFunc; resumes at next block
    IndirectCall,//!< Jump to one of several callee functions
    Return,      //!< return to caller
};

/** A basic block: contiguous instructions ending in a terminator. */
struct BasicBlock
{
    Addr startPc = 0;
    std::uint16_t numInstrs = 0;   //!< includes the terminator slot
    TermKind term = TermKind::FallThrough;
    std::uint32_t targetBlock = 0; //!< global block index (branches)
    std::uint32_t targetFunc = 0;  //!< callee (Call)
    std::uint32_t indirectSet = 0; //!< index into indirect target sets
    float takenProb = 0.0f;        //!< CondBranch: P(taken)
    bool isBackEdge = false;       //!< CondBranch: loop back-edge?
    bool isTailCall = false;       //!< UncondBranch to targetFunc
    std::uint32_t instrBase = 0;   //!< index into ProgramCfg::instrs

    /** Address of the block's terminator (last instruction). */
    Addr
    termPc() const
    {
        return startPc + static_cast<Addr>(numInstrs - 1) * instrBytes;
    }

    /** Address just past the block. */
    Addr
    endPc() const
    {
        return startPc + static_cast<Addr>(numInstrs) * instrBytes;
    }
};

/** Static (non-CTI) instruction description. */
struct StaticInstr
{
    OpClass op = OpClass::IntAlu;
    std::uint8_t src0 = 0;
    std::uint8_t src1 = 0;
    std::uint8_t dst = 0;
};

/** A function: a contiguous range of blocks; entry is the first. */
struct Function
{
    std::uint32_t firstBlock = 0;
    std::uint32_t numBlocks = 0;
    std::uint32_t layer = 0;   //!< call-graph layer (0 = roots)
    Addr entry = 0;
    bool isTrapHandler = false;
};

/** A set of candidate targets for one indirect-call site. */
struct IndirectSet
{
    std::vector<std::uint32_t> funcs; //!< candidate callees
    std::vector<double> cdf;          //!< skewed selection CDF
};

/**
 * The whole static program: functions, blocks, instruction slots and
 * indirect-target sets, plus the transaction-dispatch metadata.
 */
class ProgramCfg
{
  public:
    /** Build a program from the config's layoutSeed. */
    explicit ProgramCfg(const WorkloadConfig &cfg);

    const WorkloadConfig &config() const { return cfg_; }

    const std::vector<Function> &functions() const { return funcs_; }
    const std::vector<BasicBlock> &blocks() const { return blocks_; }
    const std::vector<StaticInstr> &instrs() const { return instrs_; }
    const std::vector<IndirectSet> &indirectSets() const { return isets_; }

    /** Indices of layer-0 functions (transaction entry points). */
    const std::vector<std::uint32_t> &rootFuncs() const { return roots_; }
    /** Zipf CDF over rootFuncs (transaction popularity). */
    const std::vector<double> &rootCdf() const { return rootCdf_; }

    /** Indices of trap-handler functions. */
    const std::vector<std::uint32_t> &trapFuncs() const { return traps_; }

    /**
     * Zipf sampler over the hot heap lines, built on first use (its
     * CDF is 2 MiB of pow() results) and shared by every walker of
     * this program. Thread-safe.
     */
    const ZipfSampler &hotDataZipf() const;

    /** Total bytes of generated code (including trap handlers). */
    Addr codeBytes() const { return codeBytes_; }

    /** Number of call-graph layers. */
    unsigned layers() const { return cfg_.callLayers; }

  private:
    void buildFunctions(Rng &rng);
    void assignTargets(Rng &rng);

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
    std::vector<std::uint32_t> roots_;
    std::vector<double> rootCdf_;
    std::vector<std::uint32_t> traps_;
    std::vector<std::vector<std::uint32_t>> layerFuncs_;
    Addr codeBytes_ = 0;

    mutable std::once_flag hotZipfOnce_;
    mutable std::optional<ZipfSampler> hotZipf_;
};

} // namespace ipref

#endif // IPREF_WORKLOAD_CFG_HH
