#include "workload/workload.hh"

#include <algorithm>

#include "util/bitutil.hh"
#include "util/logging.hh"

namespace ipref
{

Workload::Workload(std::shared_ptr<const ProgramCfg> prog,
                   std::uint64_t walkSeed, Addr dataOffset)
    : prog_(std::move(prog)),
      walkSeed_(walkSeed),
      dataOffset_(dataOffset),
      rng_(walkSeed ^ hashString("workload-walk")),
      hotZipf_(prog_->hotDataZipf())
{
    const WorkloadConfig &cfg = prog_->config();
    coldWrap_ = std::max<std::uint64_t>(64, cfg.coldDataBytes);
    hotBase_ = cfg.dataBase + dataOffset_;
    warmBase_ = hotBase_ + alignUp(cfg.hotDataBytes, 1u << 20);
    coldBase_ = warmBase_ + alignUp(cfg.warmDataBytes, 1u << 20);
    stackBase_ = coldBase_ + alignUp(cfg.coldDataBytes, 1u << 20) +
                 (16u << 20);
    loopTaken_.assign(prog_->blocks().size(), 0);
    reset();
}

void
Workload::reset()
{
    const WorkloadConfig &cfg = prog_->config();
    rng_ = Rng(walkSeed_ ^ hashString("workload-walk"));
    std::fill(loopTaken_.begin(), loopTaken_.end(), 0);
    inTrap_ = false;
    coldCursor_ = 0;
    transactions_ = 0;
    emitted_ = 0;
    switches_ = 0;
    active_ = 0;

    unsigned k = std::max(1u, cfg.concurrentContexts);
    contexts_.assign(k, Context{});
    // All contexts start in the dispatcher; their walks diverge.
    for (auto &ctx : contexts_) {
        ctx.curBlock = prog_->functions()[0].firstBlock;
        ctx.instrIdx = 0;
    }
    switchProb_ = cfg.contextSwitchPeriod > 0 && k > 1
                      ? 1.0 / cfg.contextSwitchPeriod
                      : 0.0;
}

Addr
Workload::addrOf(std::uint32_t gb, unsigned idx) const
{
    const BasicBlock &bb = prog_->blocks()[gb];
    return bb.startPc + static_cast<Addr>(idx) * instrBytes;
}

Addr
Workload::genDataAddr()
{
    const WorkloadConfig &cfg = prog_->config();
    double u = rng_.uniform();
    if (u < cfg.stackAccessFraction) {
        // Per-context stacks, 64 KB apart.
        std::uint64_t depth = contexts_[active_].stack.size() + 1;
        Addr base = stackBase_ + (static_cast<Addr>(active_) << 16);
        Addr frame_top = base - depth * cfg.stackFrameBytes;
        return alignDown(frame_top + rng_.below(cfg.stackFrameBytes),
                         4);
    }
    double v = rng_.uniform();
    if (v < cfg.hotAccessFraction) {
        std::uint64_t line = hotZipf_.sample(rng_);
        return hotBase_ + line * 64 + (rng_.below(16) * 4);
    }
    if (v < cfg.hotAccessFraction + cfg.warmAccessFraction &&
        cfg.warmDataBytes >= 64) {
        std::uint64_t line = rng_.below(cfg.warmDataBytes / 64);
        return warmBase_ + line * 64 + (rng_.below(16) * 4);
    }
    // Cold/streaming: walk through the region at word granularity
    // (a scan touches each line ~16 times before moving on). The
    // cursor stays below coldWrap_ and advances by 4 <= coldWrap_, so
    // a single conditional subtract equals the modulo it replaces.
    coldCursor_ += 4;
    if (coldCursor_ >= coldWrap_)
        coldCursor_ -= coldWrap_;
    return coldBase_ + alignDown(coldCursor_, 4);
}

void
Workload::emitStatic(const BasicBlock &bb, InstrRecord &out)
{
    unsigned idx = inTrap_ ? trapInstr_ : contexts_[active_].instrIdx;
    const StaticInstr &si = prog_->instrs()[bb.instrBase + idx];
    out.pc = bb.startPc + static_cast<Addr>(idx) * instrBytes;
    out.op = si.op;
    out.taken = false;
    out.target = 0;
    out.srcReg[0] = si.src0;
    out.srcReg[1] = si.src1;
    out.dstReg = si.dst;
    out.dataAddr = si.op == OpClass::Load || si.op == OpClass::Store
                       ? genDataAddr()
                       : 0;
}

void
Workload::takeTrap(InstrRecord &out, std::size_t resumeCtx)
{
    const auto &funcs = prog_->functions();
    std::uint32_t h =
        prog_->trapFuncs()[rng_.below(prog_->trapFuncs().size())];
    const Context &ctx = contexts_[active_];
    out = InstrRecord{};
    out.pc = addrOf(ctx.curBlock, ctx.instrIdx);
    out.op = OpClass::Trap;
    out.taken = true;
    out.target = funcs[h].entry;
    inTrap_ = true;
    trapBlock_ = funcs[h].firstBlock;
    trapInstr_ = 0;
    trapResumeCtx_ = resumeCtx;
}

bool
Workload::next(InstrRecord &out)
{
    const auto &blocks = prog_->blocks();
    const auto &funcs = prog_->functions();
    const WorkloadConfig &cfg = prog_->config();

    // Asynchronous events, taken "at" the address of the instruction
    // about to execute: timer-interrupt context switches and plain
    // traps. Both run a trap-handler function; the handler's return
    // resumes either the next context (switch) or the same one.
    if (!inTrap_ && !prog_->trapFuncs().empty()) {
        if (switchProb_ > 0 && rng_.chance(switchProb_)) {
            ++switches_;
            takeTrap(out, (active_ + 1) % contexts_.size());
            ++emitted_;
            return true;
        }
        if (cfg.trapProbability > 0 &&
            rng_.chance(cfg.trapProbability)) {
            takeTrap(out, active_);
            ++emitted_;
            return true;
        }
    }

    if (inTrap_) {
        // Execute the (leaf) trap handler.
        const BasicBlock &bb = blocks[trapBlock_];
        bool is_term = trapInstr_ + 1u >= bb.numInstrs;
        if (!is_term || bb.term == TermKind::FallThrough) {
            emitStatic(bb, out);
            if (++trapInstr_ >= bb.numInstrs) {
                ++trapBlock_;
                trapInstr_ = 0;
            }
            ++emitted_;
            return true;
        }
        const StaticInstr &si = prog_->instrs()[bb.instrBase +
                                                trapInstr_];
        out = InstrRecord{};
        out.pc = bb.termPc();
        out.srcReg[0] = si.src0;
        out.srcReg[1] = si.src1;
        switch (bb.term) {
          case TermKind::CondBranch: {
            out.op = OpClass::CondBranch;
            out.target = blocks[bb.targetBlock].startPc;
            bool taken = rng_.chance(bb.takenProb);
            if (bb.isBackEdge) {
                std::uint8_t &cnt = loopTaken_[trapBlock_];
                if (taken) {
                    if (++cnt >= maxConsecutiveTrips) {
                        taken = false;
                        cnt = 0;
                    }
                } else {
                    cnt = 0;
                }
            }
            out.taken = taken;
            if (taken) {
                trapBlock_ = bb.targetBlock;
            } else {
                ++trapBlock_;
            }
            trapInstr_ = 0;
            break;
          }
          case TermKind::UncondBranch:
            out.op = OpClass::UncondBranch;
            out.taken = true;
            out.target = blocks[bb.targetBlock].startPc;
            trapBlock_ = bb.targetBlock;
            trapInstr_ = 0;
            break;
          case TermKind::Return: {
            // End of handler: resume the chosen context.
            out.op = OpClass::Return;
            out.taken = true;
            out.srcReg[0] = 31;
            inTrap_ = false;
            active_ = trapResumeCtx_;
            const Context &ctx = contexts_[active_];
            out.target = addrOf(ctx.curBlock, ctx.instrIdx);
            break;
          }
          default:
            ipref_panic("trap handlers are leaf functions");
        }
        ++emitted_;
        return true;
    }

    Context &ctx = contexts_[active_];
    const BasicBlock &bb = blocks[ctx.curBlock];
    bool is_term = ctx.instrIdx + 1u >= bb.numInstrs;

    if (!is_term || bb.term == TermKind::FallThrough) {
        emitStatic(bb, out);
        ++ctx.instrIdx;
        if (ctx.instrIdx >= bb.numInstrs) {
            ++ctx.curBlock; // blocks are contiguous
            ctx.instrIdx = 0;
        }
        ++emitted_;
        return true;
    }

    // Terminator CTI.
    const StaticInstr &si = prog_->instrs()[bb.instrBase +
                                            ctx.instrIdx];
    out = InstrRecord{};
    out.pc = bb.termPc();
    out.srcReg[0] = si.src0;
    out.srcReg[1] = si.src1;
    out.dstReg = 0;

    auto goto_block = [&](std::uint32_t gb) {
        ctx.curBlock = gb;
        ctx.instrIdx = 0;
    };

    switch (bb.term) {
      case TermKind::CondBranch: {
        out.op = OpClass::CondBranch;
        out.target = blocks[bb.targetBlock].startPc;
        bool taken = rng_.chance(bb.takenProb);
        if (bb.isBackEdge) {
            std::uint8_t &cnt = loopTaken_[ctx.curBlock];
            if (taken) {
                if (++cnt >= maxConsecutiveTrips) {
                    taken = false;
                    cnt = 0;
                }
            } else {
                cnt = 0;
            }
        }
        out.taken = taken;
        if (taken)
            goto_block(bb.targetBlock);
        else
            goto_block(ctx.curBlock + 1);
        break;
      }
      case TermKind::UncondBranch:
        out.op = OpClass::UncondBranch;
        out.taken = true;
        if (bb.isTailCall) {
            // Tail call: jump to the sibling's entry without pushing
            // a frame; its return unwinds to our caller.
            out.target = funcs[bb.targetFunc].entry;
            goto_block(funcs[bb.targetFunc].firstBlock);
        } else {
            out.target = blocks[bb.targetBlock].startPc;
            goto_block(bb.targetBlock);
        }
        break;
      case TermKind::Call:
        out.op = OpClass::Call;
        out.taken = true;
        out.target = funcs[bb.targetFunc].entry;
        out.dstReg = 31; // link register
        ctx.stack.push_back({ctx.curBlock + 1, 0});
        goto_block(funcs[bb.targetFunc].firstBlock);
        break;
      case TermKind::IndirectCall: {
        out.op = OpClass::Jump;
        out.taken = true;
        const IndirectSet &iset =
            prog_->indirectSets()[bb.indirectSet];
        double u = rng_.uniform();
        std::size_t pick = 0;
        while (pick + 1 < iset.cdf.size() && iset.cdf[pick] < u)
            ++pick;
        std::uint32_t callee = iset.funcs[pick];
        out.target = funcs[callee].entry;
        out.dstReg = 31;
        ctx.stack.push_back({ctx.curBlock + 1, 0});
        goto_block(funcs[callee].firstBlock);
        break;
      }
      case TermKind::Return: {
        out.op = OpClass::Return;
        out.taken = true;
        out.srcReg[0] = 31;
        if (ctx.stack.empty()) {
            // Should not happen (dispatcher loops), but recover.
            out.target = funcs[0].entry;
            goto_block(funcs[0].firstBlock);
            break;
        }
        Frame f = ctx.stack.back();
        ctx.stack.pop_back();
        out.target = addrOf(f.retBlock, f.retInstr);
        ctx.curBlock = f.retBlock;
        ctx.instrIdx = f.retInstr;
        // Returning into the dispatcher completes a transaction.
        const Function &d = funcs[0];
        if (f.retBlock >= d.firstBlock &&
            f.retBlock < d.firstBlock + d.numBlocks) {
            ++transactions_;
        }
        break;
      }
      case TermKind::FallThrough:
        ipref_panic("fall-through handled above");
    }

    ++emitted_;
    return true;
}

} // namespace ipref
