/**
 * @file
 * Parameters of the synthetic commercial-workload generator.
 *
 * The generator substitutes for the paper's proprietary traces
 * (database, TPC-W, SPECjAppServer2002, SPECweb99). Each preset tunes
 * these knobs so the resulting instruction stream reproduces the
 * statistical structure the paper reports: multi-megabyte instruction
 * footprints, small functions, 40-60% sequential / 20-40% branch /
 * 15-20% function-call instruction-miss mixes, and data working sets
 * that pressure a 2 MB shared L2.
 */

#ifndef IPREF_WORKLOAD_WORKLOAD_CONFIG_HH
#define IPREF_WORKLOAD_WORKLOAD_CONFIG_HH

#include <cstdint>
#include <string>

#include "trace/record.hh"
#include "util/types.hh"

namespace ipref
{

/** All knobs of the synthetic workload generator. */
struct WorkloadConfig
{
    std::string name = "generic";

    /** Seed for the *static* program structure (code layout, CFG). */
    std::uint64_t layoutSeed = 1;
    /** Seed for the *dynamic* walk (branch outcomes, data addrs). */
    std::uint64_t walkSeed = 1;

    /** Base of the code segment. */
    Addr codeBase = 0x0000000010000000ULL;
    /** Base of the data segment (heap); stack sits above it. */
    Addr dataBase = 0x0000001000000000ULL;

    /** Target total code footprint in bytes. */
    std::uint64_t codeFootprintBytes = 2u << 20;

    // --- Function / CFG structure -----------------------------------
    /** Number of call-graph layers (bounds call depth). */
    unsigned callLayers = 6;
    /** Fraction of functions in layer 0 (transaction entry points). */
    double rootFraction = 0.02;
    /** Basic blocks per function: 1 + geometric(blockCountP). */
    double blockCountP = 0.16;
    /** Instructions per block: min + geometric(blockSizeP), capped
     *  at maxBlockInstrs, which lies in [minBlockInstrs, 255]. */
    unsigned minBlockInstrs = 3;
    unsigned maxBlockInstrs = 24;
    double blockSizeP = 0.18;

    /** Probability a non-final block terminates in each CTI kind
     *  (remainder falls through). */
    double condBranchFraction = 0.38;
    double uncondFraction = 0.13;
    double callFraction = 0.20;
    double indirectCallFraction = 0.03; //!< Jump (virtual dispatch)

    /** Fraction of unconditional-branch sites that are tail calls to
     *  a sibling function (shared helpers / error paths) — these are
     *  the distant branch targets commercial code is full of. */
    double tailCallFraction = 0.62;

    /** Fraction of conditional branches that are loop back-edges. */
    double loopBackFraction = 0.22;
    /** Mean loop trip count (geometric). */
    double meanLoopTrips = 6.0;
    /** Forward conditional branches: probability the site is
     *  mostly-taken (else mostly-not-taken). */
    double fwdTakenSiteFraction = 0.45;
    /** Bias of a mostly-taken / mostly-not-taken site. */
    double takenBias = 0.88;
    /** Per-site jitter applied to the bias (uniform +/-). */
    double biasJitter = 0.08;

    /** Zipf exponent of callee popularity (function hotness). */
    double calleeZipfAlpha = 0.55;
    /** Candidate indirect-jump targets per site. */
    unsigned indirectTargets = 4;
    /** Zipf exponent over transaction types (layer-0 functions). */
    double transactionZipfAlpha = 0.40;

    // --- Instruction mix (non-terminator slots) ---------------------
    double loadFraction = 0.24;
    double storeFraction = 0.11;
    double mulFraction = 0.02;
    double fpFraction = 0.01;

    // --- Data stream -------------------------------------------------
    /** Hot heap region size (zipf-reused). */
    std::uint64_t hotDataBytes = 6u << 20;
    /** Zipf exponent over hot heap lines. */
    double hotDataZipfAlpha = 1.05;
    /**
     * Warm region (buffer pool / session state): uniformly reused,
     * sized at L2 scale, so its hit rate tracks how much L2 capacity
     * the data actually gets — the pollution sensor of Figure 7.
     */
    std::uint64_t warmDataBytes = 2u << 20;
    /** Cold/streaming region size. */
    std::uint64_t coldDataBytes = 32u << 20;
    /** Probability a heap access goes to the hot region. */
    double hotAccessFraction = 0.86;
    /** Probability a heap access goes to the warm region (the
     *  remainder after hot+warm streams through the cold region). */
    double warmAccessFraction = 0.0;
    /** Probability a memory access targets the stack. */
    double stackAccessFraction = 0.30;
    /** Stack frame size in bytes. */
    std::uint64_t stackFrameBytes = 192;

    // --- Concurrency --------------------------------------------------
    /**
     * Number of concurrent request contexts (server threads) the
     * walker interleaves. Context switches go through a trap handler
     * (timer interrupt + scheduler), exactly like an OS preemption,
     * so the fetch stream stays CTI-consistent. This is the main
     * temporal-mixing knob: more contexts stretch instruction reuse
     * distances, which is where commercial I-cache thrash comes from.
     */
    unsigned concurrentContexts = 1;
    /** Mean instructions between context switches (0 = never). */
    double contextSwitchPeriod = 0.0;

    // --- Traps / interrupts -----------------------------------------
    /** Per-instruction probability of taking a trap/interrupt. */
    double trapProbability = 1.5e-5;
    /** Number of trap-handler functions (separate code region). */
    unsigned trapHandlers = 4;

    /** Architectural integer registers available to the generator. */
    static constexpr unsigned numRegs = ipref::numRegs;
};

} // namespace ipref

#endif // IPREF_WORKLOAD_WORKLOAD_CONFIG_HH
