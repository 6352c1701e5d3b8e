#include "workload/cfg.hh"

#include <algorithm>
#include <cmath>

#include "util/bitutil.hh"
#include "util/logging.hh"

namespace ipref
{

namespace
{

/** Function address alignment (link-time layout granularity). */
constexpr Addr funcAlign = 32;

/** Draw a static instruction for a non-terminator slot. */
StaticInstr
drawInstr(const WorkloadConfig &cfg, Rng &rng)
{
    StaticInstr si;
    double u = rng.uniform();
    if (u < cfg.loadFraction) {
        si.op = OpClass::Load;
    } else if (u < cfg.loadFraction + cfg.storeFraction) {
        si.op = OpClass::Store;
    } else if (u < cfg.loadFraction + cfg.storeFraction +
                       cfg.mulFraction) {
        si.op = OpClass::IntMul;
    } else if (u < cfg.loadFraction + cfg.storeFraction +
                       cfg.mulFraction + cfg.fpFraction) {
        si.op = OpClass::FpAlu;
    } else {
        si.op = OpClass::IntAlu;
    }
    si.dst = static_cast<std::uint8_t>(1 + rng.below(31));
    si.src0 = static_cast<std::uint8_t>(1 + rng.below(31));
    si.src1 = rng.chance(0.5)
                  ? static_cast<std::uint8_t>(1 + rng.below(31))
                  : 0;
    if (si.op == OpClass::Store)
        si.dst = 0; // stores produce no register result
    return si;
}

} // namespace

ProgramCfg::ProgramCfg(const WorkloadConfig &cfg) : cfg_(cfg)
{
    ipref_assert(cfg_.callLayers >= 2);
    Rng rng(cfg_.layoutSeed ^ hashString("cfg-layout"));
    buildFunctions(rng);
    assignTargets(rng);
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

void
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

    layerFuncs_.assign(layers, {});

    auto build_one = [&](unsigned layer, bool trap_handler,
                         bool dispatcher) {
        Function fn;
        fn.layer = layer;
        fn.isTrapHandler = trap_handler;
        fn.firstBlock = static_cast<std::uint32_t>(blocks_.size());
        unsigned nblocks =
            dispatcher ? 3
                       : 1 + static_cast<unsigned>(
                                 rng.geometric(cfg_.blockCountP));
        nblocks = std::min(nblocks, 24u);
        fn.numBlocks = nblocks;
        // Addresses are assigned later by layoutCode().
        for (unsigned b = 0; b < nblocks; ++b) {
            BasicBlock bb;
            unsigned n = cfg_.minBlockInstrs +
                         static_cast<unsigned>(
                             rng.geometric(cfg_.blockSizeP));
            n = std::min(n, cfg_.maxBlockInstrs);
            bb.numInstrs = static_cast<std::uint16_t>(n);
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

    for (unsigned l = 0; l < layers; ++l) {
        for (std::size_t i = 0; i < layer_size[l]; ++i) {
            std::uint32_t idx = build_one(l, false, false);
            layerFuncs_[l].push_back(idx);
            if (l == 0)
                roots_.push_back(idx);
        }
    }

    for (unsigned i = 0; i < cfg_.trapHandlers; ++i)
        traps_.push_back(build_one(layers - 1, true, false));

    // Transaction popularity CDF over root functions.
    ZipfSampler zipf(roots_.size(), cfg_.transactionZipfAlpha);
    rootCdf_.resize(roots_.size());
    {
        double sum = 0.0;
        for (std::size_t i = 0; i < roots_.size(); ++i) {
            sum += 1.0 / std::pow(static_cast<double>(i + 1),
                                  cfg_.transactionZipfAlpha);
            rootCdf_[i] = sum;
        }
        for (auto &v : rootCdf_)
            v /= sum;
        rootCdf_.back() = 1.0;
    }
}

void
ProgramCfg::assignTargets(Rng &rng)
{
    unsigned layers = cfg_.callLayers;

    // Per-layer zipf samplers for callee popularity: rank == position
    // in the layer (earlier functions are laid out first and hotter,
    // mimicking link-time layout that clusters hot code).
    std::vector<ZipfSampler> layer_zipf;
    layer_zipf.reserve(layers);
    for (unsigned l = 0; l < layers; ++l) {
        layer_zipf.emplace_back(std::max<std::size_t>(
                                    1, layerFuncs_[l].size()),
                                cfg_.calleeZipfAlpha);
    }

    auto pick_callee = [&](unsigned caller_layer) -> std::uint32_t {
        // Mostly call the adjacent layer; occasionally skip deeper.
        unsigned target_layer = caller_layer + 1;
        while (target_layer + 1 < layers && rng.chance(0.25))
            ++target_layer;
        const auto &cands = layerFuncs_[target_layer];
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
                    bb.targetBlock = gb - off;
                    bb.isBackEdge = true;
                    double trips = std::max(1.5, cfg_.meanLoopTrips);
                    bb.takenProb =
                        static_cast<float>(1.0 - 1.0 / trips);
                } else if (b + 2 < fn.numBlocks) {
                    std::uint32_t skip = 2 + static_cast<std::uint32_t>(
                        rng.below(std::min<std::uint32_t>(
                            8, fn.numBlocks - b - 2)));
                    bb.targetBlock = std::min(gb + skip,
                                              fn.firstBlock +
                                                  fn.numBlocks - 1);
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
                    bb.targetBlock = fn.firstBlock + fn.numBlocks - 1;
                    bb.takenProb = 0.1f;
                }
                break;
              }
              case TermKind::UncondBranch: {
                if (dispatcher) {
                    // dispatcher's final block loops back to its head
                    bb.targetBlock = fn.firstBlock;
                    break;
                }
                // Some unconditional branches are tail calls to a
                // sibling function: distant targets that create the
                // branch-class misses of Figure 3.
                const auto &sibs = layerFuncs_[fn.layer];
                if (!fn.isTrapHandler && sibs.size() > 1 &&
                    rng.chance(cfg_.tailCallFraction)) {
                    bb.isTailCall = true;
                    std::size_t rank = layer_zipf[fn.layer].sample(rng);
                    bb.targetFunc = sibs[rank % sibs.size()];
                    if (bb.targetFunc == fi)
                        bb.targetFunc =
                            sibs[(rank + 1) % sibs.size()];
                    break;
                }
                std::uint32_t last = fn.firstBlock + fn.numBlocks - 1;
                std::uint32_t skip = 2 + static_cast<std::uint32_t>(
                    rng.below(6));
                bb.targetBlock = std::min(gb + skip, last);
                break;
              }
              case TermKind::Call:
                bb.targetFunc = pick_callee(fn.layer);
                break;
              case TermKind::IndirectCall: {
                IndirectSet iset;
                if (dispatcher) {
                    iset.funcs = roots_;
                    iset.cdf = rootCdf_;
                } else {
                    unsigned k = std::max(2u, cfg_.indirectTargets);
                    double sum = 0.0;
                    for (unsigned t = 0; t < k; ++t) {
                        iset.funcs.push_back(pick_callee(fn.layer));
                        // skewed weights: 1, 1/2, 1/4, ...
                        sum += 1.0 / static_cast<double>(1u << t);
                        iset.cdf.push_back(sum);
                    }
                    for (auto &v : iset.cdf)
                        v /= sum;
                    iset.cdf.back() = 1.0;
                }
                bb.indirectSet =
                    static_cast<std::uint32_t>(isets_.size());
                isets_.push_back(std::move(iset));
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
                callees.push_back(bb.targetFunc);
                break;
              case TermKind::UncondBranch:
                if (bb.isTailCall)
                    callees.push_back(bb.targetFunc);
                break;
              case TermKind::IndirectCall:
                for (std::uint32_t t :
                     isets_[bb.indirectSet].funcs)
                    callees.push_back(t);
                break;
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

    Addr pc = cfg_.codeBase;
    auto place = [&](std::uint32_t fi) {
        Function &fn = funcs_[fi];
        pc = alignUp(pc, funcAlign);
        fn.entry = pc;
        for (std::uint32_t b = 0; b < fn.numBlocks; ++b) {
            BasicBlock &bb = blocks_[fn.firstBlock + b];
            bb.startPc = pc;
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
}

} // namespace ipref
