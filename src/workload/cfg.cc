#include "workload/cfg.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/bitutil.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace ipref
{

namespace
{

/** Function address alignment (link-time layout granularity). */
constexpr Addr funcAlign = 32;

/** Most blocks in one function (the dispatcher has 3). */
constexpr unsigned maxFuncBlocks = 24;

/** Bound on every index the image stores (blocks, instructions,
 *  functions, indirect sets and targets). */
constexpr std::uint64_t maxIndex = (std::uint64_t{1} << 24) - 1;

/** Throw unless @p count items of @p what fit a 24-bit index. */
void
checkFits(const WorkloadConfig &cfg, std::uint64_t count, const char *what)
{
    if (count > maxIndex)
        ipref_raise(ConfigError,
                    "workload %s: %llu %s do not fit the program "
                    "image's 24-bit indices",
                    cfg.name.c_str(),
                    static_cast<unsigned long long>(count), what);
}

/** A real-valued knob and the closed range it must lie in. */
struct RealKnob
{
    const char *name;
    double WorkloadConfig::*field;
    double lo, hi;
};

constexpr double unbounded = std::numeric_limits<double>::max();

/** Every real knob but blockCountP and blockSizeP, whose range
 *  (0, 1] is open below. */
constexpr RealKnob realKnobs[] = {
    {"rootFraction", &WorkloadConfig::rootFraction, 0, 1},
    {"condBranchFraction", &WorkloadConfig::condBranchFraction, 0, 1},
    {"uncondFraction", &WorkloadConfig::uncondFraction, 0, 1},
    {"callFraction", &WorkloadConfig::callFraction, 0, 1},
    {"indirectCallFraction", &WorkloadConfig::indirectCallFraction, 0, 1},
    {"tailCallFraction", &WorkloadConfig::tailCallFraction, 0, 1},
    {"loopBackFraction", &WorkloadConfig::loopBackFraction, 0, 1},
    {"meanLoopTrips", &WorkloadConfig::meanLoopTrips, 1, unbounded},
    {"fwdTakenSiteFraction", &WorkloadConfig::fwdTakenSiteFraction, 0, 1},
    {"takenBias", &WorkloadConfig::takenBias, 0, 1},
    {"biasJitter", &WorkloadConfig::biasJitter, 0, 1},
    {"calleeZipfAlpha", &WorkloadConfig::calleeZipfAlpha, 0, 64},
    {"transactionZipfAlpha", &WorkloadConfig::transactionZipfAlpha, 0, 64},
    {"loadFraction", &WorkloadConfig::loadFraction, 0, 1},
    {"storeFraction", &WorkloadConfig::storeFraction, 0, 1},
    {"mulFraction", &WorkloadConfig::mulFraction, 0, 1},
    {"fpFraction", &WorkloadConfig::fpFraction, 0, 1},
    {"hotDataZipfAlpha", &WorkloadConfig::hotDataZipfAlpha, 0, 64},
    {"hotAccessFraction", &WorkloadConfig::hotAccessFraction, 0, 1},
    {"warmAccessFraction", &WorkloadConfig::warmAccessFraction, 0, 1},
    {"stackAccessFraction", &WorkloadConfig::stackAccessFraction, 0, 1},
    {"contextSwitchPeriod", &WorkloadConfig::contextSwitchPeriod, 0,
     unbounded},
    {"trapProbability", &WorkloadConfig::trapProbability, 0, 1},
};

/** Fractions that split one draw between outcomes, the remainder
 *  going to a default; each group must sum to at most 1. */
struct FractionGroup
{
    const char *names;
    double WorkloadConfig::*parts[4];
};

constexpr FractionGroup fractionGroups[] = {
    {"block terminator fractions",
     {&WorkloadConfig::condBranchFraction, &WorkloadConfig::uncondFraction,
      &WorkloadConfig::callFraction,
      &WorkloadConfig::indirectCallFraction}},
    {"instruction mix fractions",
     {&WorkloadConfig::loadFraction, &WorkloadConfig::storeFraction,
      &WorkloadConfig::mulFraction, &WorkloadConfig::fpFraction}},
    {"heap region fractions",
     {&WorkloadConfig::hotAccessFraction,
      &WorkloadConfig::warmAccessFraction}},
};

/** Reject knobs outside their ranges (NaN and infinities included)
 *  and knobs that the compact block and function fields cannot hold,
 *  before anything is built. */
void
validate(const WorkloadConfig &cfg)
{
    for (const RealKnob &k : realKnobs)
        if (!(cfg.*k.field >= k.lo && cfg.*k.field <= k.hi))
            ipref_raise(ConfigError,
                        "workload %s: %s %g outside [%g, %g]",
                        cfg.name.c_str(), k.name, cfg.*k.field, k.lo,
                        k.hi);
    for (const FractionGroup &g : fractionGroups) {
        double sum = 0;
        for (double WorkloadConfig::*part : g.parts)
            sum += part ? cfg.*part : 0.0;
        // A little slack for sums such as 0.1 + 0.2 + 0.3 + 0.4.
        if (sum > 1.0 + 1e-9)
            ipref_raise(ConfigError,
                        "workload %s: %s sum to %g, above 1",
                        cfg.name.c_str(), g.names, sum);
    }
    if (cfg.callLayers < 2 || cfg.callLayers > 255)
        ipref_raise(ConfigError,
                    "workload %s: callLayers %u outside [2, 255]",
                    cfg.name.c_str(), cfg.callLayers);
    if (cfg.minBlockInstrs == 0)
        ipref_raise(ConfigError, "workload %s: minBlockInstrs is 0",
                    cfg.name.c_str());
    if (!(cfg.blockCountP > 0.0 && cfg.blockCountP <= 1.0) ||
        !(cfg.blockSizeP > 0.0 && cfg.blockSizeP <= 1.0))
        ipref_raise(ConfigError,
                    "workload %s: blockCountP %g and blockSizeP %g must "
                    "lie in (0, 1]",
                    cfg.name.c_str(), cfg.blockCountP, cfg.blockSizeP);
    if (cfg.maxBlockInstrs < cfg.minBlockInstrs ||
        cfg.maxBlockInstrs > std::numeric_limits<std::uint8_t>::max())
        ipref_raise(ConfigError,
                    "workload %s: maxBlockInstrs %u outside "
                    "[minBlockInstrs %u, 255]",
                    cfg.name.c_str(), cfg.maxBlockInstrs,
                    cfg.minBlockInstrs);
}

/** Draw a static instruction for a non-terminator slot. */
StaticInstr
drawInstr(const WorkloadConfig &cfg, Rng &rng)
{
    OpClass op = OpClass::IntAlu;
    double u = rng.uniform();
    if (u < cfg.loadFraction) {
        op = OpClass::Load;
    } else if (u < cfg.loadFraction + cfg.storeFraction) {
        op = OpClass::Store;
    } else if (u < cfg.loadFraction + cfg.storeFraction +
                       cfg.mulFraction) {
        op = OpClass::IntMul;
    } else if (u < cfg.loadFraction + cfg.storeFraction +
                       cfg.mulFraction + cfg.fpFraction) {
        op = OpClass::FpAlu;
    }
    unsigned dst = 1 + static_cast<unsigned>(rng.below(31));
    StaticInstr si;
    si.src0 = static_cast<std::uint8_t>(1 + rng.below(31));
    si.src1 = rng.chance(0.5)
                  ? static_cast<std::uint8_t>(1 + rng.below(31))
                  : 0;
    if (op == OpClass::Store)
        dst = 0; // stores produce no register result
    si.opDst = static_cast<std::uint8_t>(
        static_cast<unsigned>(op) << 5 | dst);
    return si;
}

} // namespace

ProgramCfg::ProgramCfg(const WorkloadConfig &cfg) : cfg_(cfg)
{
    validate(cfg_);
    Rng rng(cfg_.layoutSeed ^ hashString("cfg-layout"));
    const LayerFuncs layerFuncs = buildFunctions(rng);
    assignTargets(rng, layerFuncs);
    layoutCode();
}

const ZipfSampler &
ProgramCfg::hotDataZipf() const
{
    std::call_once(hotZipfOnce_, [this] {
        hotZipf_.emplace(
            std::max<std::size_t>(1, cfg_.hotDataBytes / 64),
            cfg_.hotDataZipfAlpha);
    });
    return *hotZipf_;
}

ProgramCfg::LayerFuncs
ProgramCfg::buildFunctions(Rng &rng)
{
    // Expected function size from the block distributions, used to
    // size the function count to the requested code footprint.
    double mean_blocks = 1.0 + (1.0 - cfg_.blockCountP) / cfg_.blockCountP;
    double mean_extra = (1.0 - cfg_.blockSizeP) / cfg_.blockSizeP;
    double mean_instrs = std::min<double>(
        cfg_.maxBlockInstrs,
        static_cast<double>(cfg_.minBlockInstrs) + mean_extra);
    double mean_func_bytes =
        mean_blocks * mean_instrs * static_cast<double>(instrBytes) +
        static_cast<double>(funcAlign) / 2;

    std::size_t num_funcs = std::max<std::size_t>(
        16, static_cast<std::size_t>(
                static_cast<double>(cfg_.codeFootprintBytes) /
                mean_func_bytes));

    // Layer sizes: a thin root layer, the rest split evenly.
    unsigned layers = cfg_.callLayers;
    std::vector<std::size_t> layer_size(layers, 0);
    layer_size[0] = std::max<std::size_t>(
        2, static_cast<std::size_t>(cfg_.rootFraction *
                                    static_cast<double>(num_funcs)));
    std::size_t rest = num_funcs - std::min(num_funcs, layer_size[0]);
    for (unsigned l = 1; l < layers; ++l)
        layer_size[l] = std::max<std::size_t>(2, rest / (layers - 1));

    // Every function has at least one block of minBlockInstrs, so a
    // count too large for the image fails here, before any allocation.
    std::uint64_t total_funcs = 1 + cfg_.trapHandlers;
    for (std::size_t n : layer_size)
        total_funcs += n;
    checkFits(cfg_, total_funcs, "or more blocks");
    checkFits(cfg_, total_funcs * cfg_.minBlockInstrs,
              "or more instructions");

    // Reserve a little over the expected sizes: the totals are sums of
    // thousands of independent draws and stay close to their means, so
    // the image carries no doubling slack.
    const double expect_blocks =
        std::min(1.03 * mean_blocks, double{maxFuncBlocks}) *
        static_cast<double>(total_funcs);
    funcs_.reserve(total_funcs);
    blocks_.reserve(static_cast<std::size_t>(expect_blocks));
    instrs_.reserve(static_cast<std::size_t>(expect_blocks * mean_instrs));

    LayerFuncs layerFuncs(layers);

    auto build_one = [&](unsigned layer, bool trap_handler,
                         bool dispatcher) {
        Function fn;
        fn.layer = static_cast<std::uint8_t>(layer);
        fn.isTrapHandler = trap_handler;
        fn.firstBlock = static_cast<std::uint32_t>(blocks_.size());
        unsigned nblocks =
            dispatcher ? 3
                       : 1 + static_cast<unsigned>(
                                 rng.geometric(cfg_.blockCountP));
        nblocks = std::min(nblocks, maxFuncBlocks);
        fn.numBlocks = static_cast<std::uint16_t>(nblocks);
        checkFits(cfg_, blocks_.size() + nblocks, "blocks");
        // Addresses are assigned later by layoutCode().
        for (unsigned b = 0; b < nblocks; ++b) {
            BasicBlock bb;
            unsigned n = cfg_.minBlockInstrs +
                         static_cast<unsigned>(
                             rng.geometric(cfg_.blockSizeP));
            n = std::min(n, cfg_.maxBlockInstrs);
            checkFits(cfg_, instrs_.size() + n, "instructions");
            bb.numInstrs = n;
            bb.instrBase = static_cast<std::uint32_t>(instrs_.size());
            for (unsigned i = 0; i < n; ++i)
                instrs_.push_back(drawInstr(cfg_, rng));

            // Terminator kind. Targets are assigned in a second pass.
            if (b + 1 == nblocks) {
                bb.term = dispatcher ? TermKind::UncondBranch
                                     : TermKind::Return;
            } else if (dispatcher) {
                // dispatcher: block 0 falls through, block 1 does the
                // indirect transaction dispatch.
                bb.term = b == 1 ? TermKind::IndirectCall
                                 : TermKind::FallThrough;
            } else {
                double u = rng.uniform();
                double c1 = cfg_.condBranchFraction;
                double c2 = c1 + cfg_.uncondFraction;
                double c3 = c2 + cfg_.callFraction;
                double c4 = c3 + cfg_.indirectCallFraction;
                bool leaf = layer + 1 >= layers || trap_handler;
                if (u < c1 && nblocks >= 2) {
                    bb.term = TermKind::CondBranch;
                } else if (u < c2 && b + 2 < nblocks) {
                    bb.term = TermKind::UncondBranch;
                } else if (u < c3 && !leaf) {
                    bb.term = TermKind::Call;
                } else if (u < c4 && !leaf) {
                    bb.term = TermKind::IndirectCall;
                } else {
                    bb.term = TermKind::FallThrough;
                }
            }
            blocks_.push_back(bb);
        }
        funcs_.push_back(fn);
        return static_cast<std::uint32_t>(funcs_.size() - 1);
    };

    // Function 0 is the transaction dispatcher loop.
    build_one(0, false, true);

    for (unsigned l = 0; l < layers; ++l)
        for (std::size_t i = 0; i < layer_size[l]; ++i)
            layerFuncs[l].push_back(build_one(l, false, false));

    for (unsigned i = 0; i < cfg_.trapHandlers; ++i)
        traps_.push_back(build_one(layers - 1, true, false));

    // The roots and their transaction-popularity CDF open the flat
    // indirect tables; the dispatcher's set points at them.
    const auto &roots = layerFuncs[0];
    roots_ = {0, static_cast<std::uint32_t>(roots.size())};
    indirectFuncs_ = roots;
    indirectCdf_.resize(roots.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < roots.size(); ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1),
                              cfg_.transactionZipfAlpha);
        indirectCdf_[i] = sum;
    }
    for (double &v : indirectCdf_)
        v /= sum;
    indirectCdf_.back() = 1.0;
    return layerFuncs;
}

void
ProgramCfg::assignTargets(Rng &rng, const LayerFuncs &layerFuncs)
{
    unsigned layers = cfg_.callLayers;

    // Per-layer zipf samplers for callee popularity: rank == position
    // in the layer (earlier functions are laid out first and hotter,
    // mimicking link-time layout that clusters hot code).
    std::vector<ZipfSampler> layer_zipf;
    layer_zipf.reserve(layers);
    for (unsigned l = 0; l < layers; ++l) {
        layer_zipf.emplace_back(std::max<std::size_t>(
                                    1, layerFuncs[l].size()),
                                cfg_.calleeZipfAlpha);
    }

    auto pick_callee = [&](unsigned caller_layer) -> std::uint32_t {
        // Mostly call the adjacent layer; occasionally skip deeper.
        unsigned target_layer = caller_layer + 1;
        while (target_layer + 1 < layers && rng.chance(0.25))
            ++target_layer;
        const auto &cands = layerFuncs[target_layer];
        ipref_assert(!cands.empty());
        std::size_t rank = layer_zipf[target_layer].sample(rng);
        return cands[rank % cands.size()];
    };

    for (std::size_t fi = 0; fi < funcs_.size(); ++fi) {
        const Function &fn = funcs_[fi];
        bool dispatcher = fi == 0;
        for (std::uint32_t b = 0; b < fn.numBlocks; ++b) {
            std::uint32_t gb = fn.firstBlock + b;
            BasicBlock &bb = blocks_[gb];
            switch (bb.term) {
              case TermKind::CondBranch: {
                bool back = b > 0 && rng.chance(cfg_.loopBackFraction);
                if (back) {
                    std::uint32_t off = 1 + static_cast<std::uint32_t>(
                                                rng.below(b));
                    bb.target = gb - off;
                    bb.isBackEdge = true;
                    double trips = std::max(1.5, cfg_.meanLoopTrips);
                    bb.takenProb =
                        static_cast<float>(1.0 - 1.0 / trips);
                } else if (b + 2 < fn.numBlocks) {
                    std::uint32_t skip = 2 + static_cast<std::uint32_t>(
                        rng.below(std::min<std::uint32_t>(
                            8, fn.numBlocks - b - 2)));
                    bb.target = std::min<std::uint32_t>(
                        gb + skip, fn.firstBlock + fn.numBlocks - 1);
                    bool mostly_taken =
                        rng.chance(cfg_.fwdTakenSiteFraction);
                    double bias = cfg_.takenBias +
                                  (rng.uniform() * 2 - 1) *
                                      cfg_.biasJitter;
                    bias = std::clamp(bias, 0.03, 0.97);
                    bb.takenProb = static_cast<float>(
                        mostly_taken ? bias : 1.0 - bias);
                } else {
                    // no room for a forward skip: make it a rarely
                    // taken exit to the function's last block
                    bb.target = fn.firstBlock + fn.numBlocks - 1;
                    bb.takenProb = 0.1f;
                }
                break;
              }
              case TermKind::UncondBranch: {
                if (dispatcher) {
                    // dispatcher's final block loops back to its head
                    bb.target = fn.firstBlock;
                    break;
                }
                // Some unconditional branches are tail calls to a
                // sibling function: distant targets that create the
                // branch-class misses of Figure 3.
                const auto &sibs = layerFuncs[fn.layer];
                if (!fn.isTrapHandler && sibs.size() > 1 &&
                    rng.chance(cfg_.tailCallFraction)) {
                    bb.isTailCall = true;
                    std::size_t rank = layer_zipf[fn.layer].sample(rng);
                    bb.target = sibs[rank % sibs.size()];
                    if (bb.target == fi)
                        bb.target = sibs[(rank + 1) % sibs.size()];
                    break;
                }
                std::uint32_t last = fn.firstBlock + fn.numBlocks - 1;
                std::uint32_t skip = 2 + static_cast<std::uint32_t>(
                    rng.below(6));
                bb.target = std::min(gb + skip, last);
                break;
              }
              case TermKind::Call:
                bb.target = pick_callee(fn.layer);
                break;
              case TermKind::IndirectCall: {
                IndirectSet iset = roots_;
                if (!dispatcher) {
                    unsigned k = std::max(2u, cfg_.indirectTargets);
                    checkFits(cfg_, indirectFuncs_.size() + k,
                              "indirect-call targets");
                    iset = {static_cast<std::uint32_t>(
                                indirectFuncs_.size()),
                            k};
                    double sum = 0.0;
                    double weight = 1.0; // skewed: 1, 1/2, 1/4, ...
                    for (unsigned t = 0; t < k; ++t) {
                        indirectFuncs_.push_back(pick_callee(fn.layer));
                        sum += weight;
                        weight *= 0.5;
                        indirectCdf_.push_back(sum);
                    }
                    for (std::uint32_t t = 0; t < k; ++t)
                        indirectCdf_[iset.begin + t] /= sum;
                    indirectCdf_.back() = 1.0;
                }
                bb.target = static_cast<std::uint32_t>(isets_.size());
                isets_.push_back(iset);
                break;
              }
              case TermKind::FallThrough:
              case TermKind::Return:
                break;
            }
        }
    }
}

void
ProgramCfg::layoutCode()
{
    // Call-affinity (Pettis-Hansen style) placement: DFS from the
    // dispatcher, placing each function's callees (and tail-call
    // targets) immediately after it in first-use order. Functions
    // never reached from the dispatcher are appended afterwards;
    // trap handlers go to a separate, distant region.
    std::vector<bool> placed(funcs_.size(), false);
    std::vector<std::uint32_t> order;
    order.reserve(funcs_.size());

    std::vector<std::uint32_t> stack;
    stack.push_back(0);
    std::vector<std::uint32_t> callees;
    while (!stack.empty()) {
        std::uint32_t fi = stack.back();
        stack.pop_back();
        if (placed[fi] || funcs_[fi].isTrapHandler)
            continue;
        placed[fi] = true;
        order.push_back(fi);
        // Gather callees in block order; push in reverse so the
        // first call site's target is placed first (right after us).
        callees.clear();
        const Function &fn = funcs_[fi];
        for (std::uint32_t b = 0; b < fn.numBlocks; ++b) {
            const BasicBlock &bb = blocks_[fn.firstBlock + b];
            switch (bb.term) {
              case TermKind::Call:
                callees.push_back(bb.target);
                break;
              case TermKind::UncondBranch:
                if (bb.isTailCall)
                    callees.push_back(bb.target);
                break;
              case TermKind::IndirectCall: {
                const IndirectSet &iset = isets_[bb.target];
                callees.insert(callees.end(),
                               indirectFuncs_.begin() + iset.begin,
                               indirectFuncs_.begin() + iset.begin +
                                   iset.count);
                break;
              }
              default:
                break;
            }
        }
        for (auto it = callees.rbegin(); it != callees.rend(); ++it)
            stack.push_back(*it);
    }
    for (std::uint32_t fi = 0; fi < funcs_.size(); ++fi)
        if (!placed[fi] && !funcs_[fi].isTrapHandler)
            order.push_back(fi);

    // Blocks store offsets from codeBase. Under 2^24 instructions of
    // 4 B, 2^24 functions padded by under 32 B each and a trap gap
    // under 2^19 B, the span stays under 2^30: startOff cannot overflow.
    Addr pc = cfg_.codeBase;
    auto place = [&](std::uint32_t fi) {
        const Function &fn = funcs_[fi];
        pc = alignUp(pc, funcAlign);
        for (std::uint32_t b = 0; b < fn.numBlocks; ++b) {
            BasicBlock &bb = blocks_[fn.firstBlock + b];
            bb.startOff = static_cast<std::uint32_t>(pc - cfg_.codeBase);
            pc += static_cast<Addr>(bb.numInstrs) * instrBytes;
        }
    };
    for (std::uint32_t fi : order)
        place(fi);

    // Trap handlers in a distant region.
    pc = alignUp(pc + (256u << 10), 64u << 10);
    for (std::uint32_t fi : traps_)
        place(fi);
    codeBytes_ = pc - cfg_.codeBase;
    ipref_assert(codeBytes_ <= std::numeric_limits<std::uint32_t>::max());
}

} // namespace ipref
