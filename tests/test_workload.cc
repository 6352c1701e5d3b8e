/**
 * @file
 * Tests for the synthetic workload generator: CFG structural
 * invariants, stream consistency (the PC chain property), determinism
 * and statistical shape.
 */

#include <gtest/gtest.h>

#include "error_helpers.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <span>
#include <unordered_set>
#include <vector>

#include "trace/trace_stats.hh"
#include "workload/presets.hh"

using namespace ipref;

namespace
{

WorkloadConfig
smallConfig()
{
    WorkloadConfig cfg;
    cfg.name = "tiny";
    cfg.layoutSeed = 99;
    cfg.codeFootprintBytes = 256u << 10;
    cfg.concurrentContexts = 2;
    cfg.contextSwitchPeriod = 500;
    return cfg;
}

std::shared_ptr<const ProgramCfg>
smallProgram()
{
    static std::shared_ptr<const ProgramCfg> prog =
        std::make_shared<const ProgramCfg>(smallConfig());
    return prog;
}

/**
 * Check that every block's one target word indexes the table its
 * terminator names, and that every indirect set is a well-formed run
 * of the flat callee and CDF arrays.
 */
void
expectTargetsIndexTheirTable(const ProgramCfg &prog)
{
    const auto &funcs = prog.functions();
    const auto &blocks = prog.blocks();
    const auto &isets = prog.indirectSets();
    const auto &calleeOf = prog.indirectFuncs();
    const auto &cdf = prog.indirectCdf();
    ASSERT_EQ(calleeOf.size(), cdf.size());
    std::uint64_t branches = 0, calls = 0, tailCalls = 0, indirect = 0;
    for (std::uint32_t fi = 0; fi < funcs.size(); ++fi) {
        const Function &fn = funcs[fi];
        const std::uint32_t end = fn.firstBlock + fn.numBlocks;
        for (std::uint32_t gb = fn.firstBlock; gb < end; ++gb) {
            const BasicBlock &bb = blocks[gb];
            switch (bb.term) {
              case TermKind::CondBranch:
              case TermKind::UncondBranch:
                if (!bb.isTailCall) {
                    // The dispatcher's loop-back branch included.
                    EXPECT_GE(bb.target, fn.firstBlock) << "block " << gb;
                    EXPECT_LT(bb.target, end) << "block " << gb;
                    ++branches;
                    break;
                }
                ASSERT_LT(bb.target, funcs.size()) << "block " << gb;
                EXPECT_NE(bb.target, fi) << "tail call to itself";
                ++tailCalls;
                break;
              case TermKind::Call:
                ASSERT_LT(bb.target, funcs.size()) << "block " << gb;
                ++calls;
                break;
              case TermKind::IndirectCall: {
                ASSERT_LT(bb.target, isets.size()) << "block " << gb;
                const IndirectSet &set = isets[bb.target];
                ASSERT_GE(set.count, 1u);
                ASSERT_LE(std::uint64_t{set.begin} + set.count,
                          calleeOf.size());
                for (std::uint32_t t = set.begin;
                     t < set.begin + set.count; ++t) {
                    EXPECT_LT(calleeOf[t], funcs.size());
                    if (t > set.begin) {
                        EXPECT_GE(cdf[t], cdf[t - 1]);
                    }
                }
                EXPECT_EQ(cdf[set.begin + set.count - 1], 1.0);
                ++indirect;
                break;
              }
              case TermKind::FallThrough:
              case TermKind::Return:
                EXPECT_EQ(bb.target, 0u);
                break;
            }
        }
    }
    EXPECT_GT(branches, 0u);
    EXPECT_GT(calls, 0u);
    EXPECT_GT(tailCalls, 0u);
    EXPECT_GT(indirect, 0u);

    // The dispatcher's set is the root run, stored once.
    const BasicBlock &dispatch = blocks[funcs[0].firstBlock + 1];
    ASSERT_EQ(dispatch.term, TermKind::IndirectCall);
    const IndirectSet &roots = isets[dispatch.target];
    EXPECT_EQ(calleeOf.data() + roots.begin, prog.rootFuncs().data());
    EXPECT_EQ(roots.count, prog.rootFuncs().size());
    EXPECT_EQ(cdf.data() + roots.begin, prog.rootCdf().data());
}

/** Fold the low @p bytes of @p v into FNV-1a hash @p h,
 *  little-endian. */
void
fnvFold(std::uint64_t &h, std::uint64_t v, int bytes)
{
    for (int b = 0; b < bytes; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= 0x100000001b3ULL;
    }
}

/** FNV-1a over a record's fields, little-endian, in declaration order. */
std::uint64_t
foldRecord(std::uint64_t h, const InstrRecord &r)
{
    auto fold = [&h](std::uint64_t v, int bytes) { fnvFold(h, v, bytes); };
    fold(r.pc, 8);
    fold(r.target, 8);
    fold(r.dataAddr, 8);
    fold(static_cast<std::uint8_t>(r.op), 1);
    fold(r.taken, 1);
    fold(r.srcReg[0], 1);
    fold(r.srcReg[1], 1);
    fold(r.dstReg, 1);
    return h;
}

/**
 * FNV-1a over every field of a program image, read through the public
 * accessors, so that a change of layout must keep each value.
 */
std::uint64_t
imageDigest(const ProgramCfg &prog)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto fold = [&h](std::uint64_t v, int bytes) { fnvFold(h, v, bytes); };
    const Addr base = prog.config().codeBase;
    for (const BasicBlock &bb : prog.blocks()) {
        fold(bb.startPc(base), 8);
        fold(bb.instrBase, 4);
        fold(bb.numInstrs, 2);
        fold(bb.target, 4);
        fold(static_cast<std::uint8_t>(bb.term), 1);
        fold(bb.isBackEdge, 1);
        fold(bb.isTailCall, 1);
        fold(std::bit_cast<std::uint32_t>(bb.takenProb), 4);
    }
    for (const StaticInstr &si : prog.instrs()) {
        fold(static_cast<std::uint8_t>(si.op()), 1);
        fold(si.src0, 1);
        fold(si.src1, 1);
        fold(si.dst(), 1);
    }
    for (std::uint32_t fi = 0; fi < prog.functions().size(); ++fi) {
        const Function &fn = prog.functions()[fi];
        fold(prog.entryPc(fi), 8);
        fold(fn.firstBlock, 4);
        fold(fn.numBlocks, 2);
        fold(fn.layer, 1);
        fold(fn.isTrapHandler, 1);
    }
    for (const IndirectSet &set : prog.indirectSets()) {
        fold(set.begin, 4);
        fold(set.count, 4);
    }
    for (std::uint32_t callee : prog.indirectFuncs())
        fold(callee, 4);
    for (double p : prog.indirectCdf())
        fold(std::bit_cast<std::uint64_t>(p), 8);
    for (std::uint32_t t : prog.trapFuncs())
        fold(t, 4);
    fold(prog.codeBytes(), 8);
    return h;
}

bool
sameRecord(const InstrRecord &a, const InstrRecord &b)
{
    return a.pc == b.pc && a.target == b.target &&
           a.dataAddr == b.dataAddr && a.op == b.op &&
           a.taken == b.taken && a.srcReg[0] == b.srcReg[0] &&
           a.srcReg[1] == b.srcReg[1] && a.dstReg == b.dstReg;
}

} // namespace

TEST(Cfg, StructuralInvariants)
{
    auto prog = smallProgram();
    const auto &funcs = prog->functions();
    const auto &blocks = prog->blocks();
    ASSERT_GT(funcs.size(), 16u);

    const Addr base = prog->config().codeBase;
    for (std::uint32_t fi = 0; fi < funcs.size(); ++fi) {
        const Function &fn = funcs[fi];
        ASSERT_GE(fn.numBlocks, 1u);
        // Entry is the first block's address, function-aligned.
        EXPECT_EQ(prog->entryPc(fi), blocks[fn.firstBlock].startPc(base));
        EXPECT_EQ(prog->entryPc(fi) % 32, 0u);
        // Blocks are contiguous in memory.
        for (std::uint32_t b = 0; b + 1 < fn.numBlocks; ++b) {
            const BasicBlock &cur = blocks[fn.firstBlock + b];
            const BasicBlock &nxt = blocks[fn.firstBlock + b + 1];
            EXPECT_EQ(cur.endPc(base), nxt.startPc(base));
        }
        // The last block returns (except the dispatcher's loop).
        const BasicBlock &last =
            blocks[fn.firstBlock + fn.numBlocks - 1];
        if (&fn != &funcs[0]) {
            EXPECT_EQ(last.term, TermKind::Return);
        }
        // Branch targets stay inside the function.
        for (std::uint32_t b = 0; b < fn.numBlocks; ++b) {
            const BasicBlock &bb = blocks[fn.firstBlock + b];
            if (bb.term == TermKind::CondBranch ||
                (bb.term == TermKind::UncondBranch &&
                 !bb.isTailCall && &fn != &funcs[0])) {
                EXPECT_GE(bb.target, fn.firstBlock);
                EXPECT_LT(bb.target, fn.firstBlock + fn.numBlocks);
            }
            if (bb.term == TermKind::Call ||
                (bb.term == TermKind::UncondBranch && bb.isTailCall)) {
                EXPECT_LT(bb.target, funcs.size());
            }
        }
    }
}

TEST(Cfg, TargetsIndexTheirTable)
{
    {
        SCOPED_TRACE("tiny");
        expectTargetsIndexTheirTable(*smallProgram());
    }
    for (WorkloadKind kind : allWorkloadKinds()) {
        SCOPED_TRACE(workloadName(kind));
        expectTargetsIndexTheirTable(*buildProgram(kind));
    }
}

TEST(Cfg, GoldenImageDigests)
{
    // imageDigest of each preset's image; the values predate the
    // 16-byte block, 8-byte function and 3-byte instruction layout.
    const std::uint64_t golden[4] = {
        0xbba0de3ef3ee8825ULL, // DB
        0x1c6a944633ba815dULL, // TPC-W
        0x605770a49501a0c7ULL, // jApp
        0x05ea9ab03da04087ULL, // Web
    };
    for (WorkloadKind kind : allWorkloadKinds())
        EXPECT_EQ(imageDigest(*buildProgram(kind)),
                  golden[static_cast<int>(kind)])
            << workloadName(kind);
}

TEST(Cfg, RejectsCallLayersOutsideByteRange)
{
    for (unsigned layers : {0u, 1u, 256u}) {
        WorkloadConfig cfg = smallConfig();
        cfg.callLayers = layers;
        test::expectThrows<ConfigError>(
            [&] { ProgramCfg prog(cfg); }, "callLayers");
    }
}

TEST(Cfg, RejectsZeroInstructionBlocks)
{
    WorkloadConfig cfg = smallConfig();
    cfg.minBlockInstrs = 0;
    test::expectThrows<ConfigError>([&] { ProgramCfg prog(cfg); },
                                    "minBlockInstrs is 0");
}

TEST(Cfg, RejectsGeometricParamsOutsideUnitInterval)
{
    // Both feed Rng::geometric and size the build's reservations.
    for (double p : {0.0, -0.5, 1.5, std::nan("")}) {
        WorkloadConfig count = smallConfig();
        count.blockCountP = p;
        test::expectThrows<ConfigError>([&] { ProgramCfg prog(count); },
                                        "must lie in (0, 1]");
        WorkloadConfig size = smallConfig();
        size.blockSizeP = p;
        test::expectThrows<ConfigError>([&] { ProgramCfg prog(size); },
                                        "must lie in (0, 1]");
    }
}

TEST(Cfg, RejectsMaxBlockInstrsOutOfRange)
{
    WorkloadConfig below = smallConfig();
    below.minBlockInstrs = 8;
    below.maxBlockInstrs = 7;
    test::expectThrows<ConfigError>([&] { ProgramCfg prog(below); },
                                    "maxBlockInstrs 7");
    WorkloadConfig above = smallConfig();
    above.maxBlockInstrs = 256;
    test::expectThrows<ConfigError>([&] { ProgramCfg prog(above); },
                                    "maxBlockInstrs 256");
}

namespace
{

/** A real-valued knob and the closed range validate() gives it. */
struct RealKnob
{
    const char *name;
    double WorkloadConfig::*field;
    double lo, hi;
};

constexpr double kMax = std::numeric_limits<double>::max();

/** Every double in WorkloadConfig but blockCountP and blockSizeP
 *  (RejectsGeometricParamsOutsideUnitInterval covers those). */
const RealKnob kRealKnobs[] = {
    {"rootFraction", &WorkloadConfig::rootFraction, 0, 1},
    {"condBranchFraction", &WorkloadConfig::condBranchFraction, 0, 1},
    {"uncondFraction", &WorkloadConfig::uncondFraction, 0, 1},
    {"callFraction", &WorkloadConfig::callFraction, 0, 1},
    {"indirectCallFraction", &WorkloadConfig::indirectCallFraction, 0, 1},
    {"tailCallFraction", &WorkloadConfig::tailCallFraction, 0, 1},
    {"loopBackFraction", &WorkloadConfig::loopBackFraction, 0, 1},
    {"meanLoopTrips", &WorkloadConfig::meanLoopTrips, 1, kMax},
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
    {"contextSwitchPeriod", &WorkloadConfig::contextSwitchPeriod, 0, kMax},
    {"trapProbability", &WorkloadConfig::trapProbability, 0, 1},
};

/** smallConfig() with @p k set to @p v. */
WorkloadConfig
withKnob(const RealKnob &k, double v)
{
    WorkloadConfig cfg = smallConfig();
    cfg.*k.field = v;
    return cfg;
}

} // namespace

TEST(Cfg, RejectsNonFiniteReals)
{
    const double inf = std::numeric_limits<double>::infinity();
    for (const RealKnob &k : kRealKnobs) {
        for (double v : {std::nan(""), inf, -inf}) {
            SCOPED_TRACE(::testing::Message() << k.name << " = " << v);
            WorkloadConfig cfg = withKnob(k, v);
            test::expectThrows<ConfigError>(
                [&] { ProgramCfg prog(cfg); },
                std::string(k.name) + " ");
        }
    }
}

TEST(Cfg, RejectsNanHotDataZipfAlpha)
{
    // A NaN exponent once built a sampler with an all-NaN CDF that put
    // every hot access on one line.
    WorkloadConfig cfg = smallConfig();
    cfg.hotDataZipfAlpha = std::nan("");
    test::expectThrows<ConfigError>([&] { ProgramCfg prog(cfg); },
                                    "hotDataZipfAlpha nan outside [0, 64]");
    cfg.hotDataZipfAlpha = -0.5;
    test::expectThrows<ConfigError>([&] { ProgramCfg prog(cfg); },
                                    "hotDataZipfAlpha -0.5 outside");
}

TEST(Cfg, RejectsRealsOutsideTheirRange)
{
    for (const RealKnob &k : kRealKnobs) {
        SCOPED_TRACE(k.name);
        // Each end of the range builds (alone; a fraction group may
        // need its other members lowered to make room for a 1).
        for (double v : {k.lo, std::min(k.hi, 1e6)}) {
            WorkloadConfig cfg = withKnob(k, v);
            for (double WorkloadConfig::*f :
                 {&WorkloadConfig::condBranchFraction,
                  &WorkloadConfig::uncondFraction,
                  &WorkloadConfig::callFraction,
                  &WorkloadConfig::indirectCallFraction,
                  &WorkloadConfig::loadFraction,
                  &WorkloadConfig::storeFraction,
                  &WorkloadConfig::mulFraction, &WorkloadConfig::fpFraction,
                  &WorkloadConfig::hotAccessFraction,
                  &WorkloadConfig::warmAccessFraction})
                if (f != k.field)
                    cfg.*f = 0;
            EXPECT_NO_THROW(ProgramCfg prog(cfg)) << "value " << v;
        }
        const double below = k.lo - (k.lo == 0 ? 1e-6 : 0.5);
        test::expectThrows<ConfigError>(
            [&] { ProgramCfg prog(withKnob(k, below)); },
            std::string(k.name) + " ");
        if (k.hi < kMax)
            test::expectThrows<ConfigError>(
                [&] { ProgramCfg prog(withKnob(k, k.hi + 0.5)); },
                std::string(k.name) + " ");
    }
}

TEST(Cfg, RejectsFractionGroupsAboveOne)
{
    struct Group
    {
        const char *message;
        std::vector<double WorkloadConfig::*> parts;
    };
    const Group groups[] = {
        {"block terminator fractions sum to",
         {&WorkloadConfig::condBranchFraction,
          &WorkloadConfig::uncondFraction, &WorkloadConfig::callFraction,
          &WorkloadConfig::indirectCallFraction}},
        {"instruction mix fractions sum to",
         {&WorkloadConfig::loadFraction, &WorkloadConfig::storeFraction,
          &WorkloadConfig::mulFraction, &WorkloadConfig::fpFraction}},
        {"heap region fractions sum to",
         {&WorkloadConfig::hotAccessFraction,
          &WorkloadConfig::warmAccessFraction}},
    };
    for (const Group &g : groups) {
        SCOPED_TRACE(g.message);
        // Each part at an even share builds, summing exactly to 1 (up
        // to rounding)...
        WorkloadConfig even = smallConfig();
        for (auto part : g.parts)
            even.*part = 1.0 / static_cast<double>(g.parts.size());
        EXPECT_NO_THROW(ProgramCfg prog(even));
        // ...and any part raised past it does not.
        for (auto part : g.parts) {
            WorkloadConfig over = even;
            over.*part += 0.01;
            test::expectThrows<ConfigError>([&] { ProgramCfg prog(over); },
                                            g.message);
        }
    }
}

TEST(Cfg, BuildsAtTheLayoutLimits)
{
    // The widest knobs the compact fields hold still build: the trap
    // handlers sit in layer 254.
    WorkloadConfig cfg = smallConfig();
    cfg.callLayers = 255;
    cfg.minBlockInstrs = 1;
    cfg.maxBlockInstrs = 255;
    ProgramCfg prog(cfg);
    EXPECT_EQ(prog.functions().back().layer, 254u);
    EXPECT_TRUE(prog.functions().back().isTrapHandler);
}

TEST(Cfg, RejectsBlockCountAbove24Bits)
{
    // About 4e7 functions of about 205 B, more than 2^24 but fewer
    // than 2^32: refused before anything is allocated.
    WorkloadConfig cfg = smallConfig();
    cfg.codeFootprintBytes = std::uint64_t{8} << 30;
    test::expectThrows<ConfigError>([&] { ProgramCfg prog(cfg); },
                                    "or more blocks");
}

TEST(Cfg, RejectsInstructionCountAbove24Bits)
{
    // About 1e5 functions of 255-instruction blocks (6.4 kB each):
    // few enough blocks, but at least 2.5e7 instructions. Refused
    // before anything is allocated.
    WorkloadConfig cfg = smallConfig();
    cfg.minBlockInstrs = 255;
    cfg.maxBlockInstrs = 255;
    cfg.codeFootprintBytes = std::uint64_t{100000} * 6400;
    test::expectThrows<ConfigError>([&] { ProgramCfg prog(cfg); },
                                    "or more instructions");
}

TEST(Cfg, RejectsIndirectTargetCountAbove24Bits)
{
    // The first non-dispatcher site would push the flat callee table
    // past 2^24 entries; it is refused before the push.
    WorkloadConfig cfg = smallConfig();
    cfg.indirectTargets = 1u << 24;
    test::expectThrows<ConfigError>([&] { ProgramCfg prog(cfg); },
                                    "indirect-call targets");
}

TEST(Cfg, TrapHandlersAreLeaves)
{
    auto prog = smallProgram();
    const auto &blocks = prog->blocks();
    for (std::uint32_t ti : prog->trapFuncs()) {
        const Function &fn = prog->functions()[ti];
        EXPECT_TRUE(fn.isTrapHandler);
        for (std::uint32_t b = 0; b < fn.numBlocks; ++b) {
            TermKind t = blocks[fn.firstBlock + b].term;
            EXPECT_NE(t, TermKind::Call);
            EXPECT_NE(t, TermKind::IndirectCall);
        }
    }
}

TEST(Cfg, FunctionsDoNotOverlap)
{
    auto prog = smallProgram();
    std::vector<std::pair<Addr, Addr>> ranges;
    const auto &blocks = prog->blocks();
    const Addr base = prog->config().codeBase;
    for (std::uint32_t fi = 0; fi < prog->functions().size(); ++fi) {
        const Function &fn = prog->functions()[fi];
        Addr lo = prog->entryPc(fi);
        Addr hi =
            blocks[fn.firstBlock + fn.numBlocks - 1].endPc(base);
        ranges.push_back({lo, hi});
    }
    std::sort(ranges.begin(), ranges.end());
    for (std::size_t i = 0; i + 1 < ranges.size(); ++i)
        EXPECT_LE(ranges[i].second, ranges[i + 1].first);
}

TEST(Cfg, RootCdfIsMonotoneAndComplete)
{
    auto prog = smallProgram();
    const auto &cdf = prog->rootCdf();
    ASSERT_FALSE(cdf.empty());
    for (std::size_t i = 1; i < cdf.size(); ++i)
        EXPECT_GE(cdf[i], cdf[i - 1]);
    EXPECT_DOUBLE_EQ(cdf.back(), 1.0);
}

TEST(Workload, PcChainConsistency)
{
    // The defining stream property: every instruction's address is
    // the previous instruction's nextPc(). Traps and context
    // switches must preserve it too.
    Workload wl(smallProgram(), 1234);
    InstrRecord prev, cur;
    ASSERT_TRUE(wl.next(prev));
    for (int i = 0; i < 200000; ++i) {
        ASSERT_TRUE(wl.next(cur));
        ASSERT_EQ(cur.pc, prev.nextPc())
            << "broken chain at instruction " << i;
        prev = cur;
    }
}

TEST(Workload, DeterministicForSeed)
{
    Workload a(smallProgram(), 77);
    Workload b(smallProgram(), 77);
    InstrRecord ra, rb;
    for (int i = 0; i < 20000; ++i) {
        ASSERT_TRUE(a.next(ra));
        ASSERT_TRUE(b.next(rb));
        ASSERT_EQ(ra.pc, rb.pc);
        ASSERT_EQ(ra.dataAddr, rb.dataAddr);
        ASSERT_EQ(static_cast<int>(ra.op), static_cast<int>(rb.op));
    }
}

TEST(Workload, ResetReproducesStream)
{
    Workload wl(smallProgram(), 42);
    std::vector<Addr> first;
    InstrRecord r;
    for (int i = 0; i < 5000; ++i) {
        wl.next(r);
        first.push_back(r.pc);
    }
    wl.reset();
    for (int i = 0; i < 5000; ++i) {
        wl.next(r);
        ASSERT_EQ(r.pc, first[i]);
    }
}

TEST(Workload, SeedsDiverge)
{
    Workload a(smallProgram(), 1);
    Workload b(smallProgram(), 2);
    InstrRecord ra, rb;
    int same = 0;
    for (int i = 0; i < 10000; ++i) {
        a.next(ra);
        b.next(rb);
        same += ra.pc == rb.pc;
    }
    EXPECT_LT(same, 9000);
}

TEST(Workload, MakesProgress)
{
    Workload wl(smallProgram(), 5);
    InstrRecord r;
    for (int i = 0; i < 300000; ++i)
        wl.next(r);
    EXPECT_GT(wl.transactionsCompleted(), 10u);
    EXPECT_GT(wl.contextSwitches(), 100u);
    EXPECT_EQ(wl.instructionsEmitted(), 300000u);
}

TEST(Workload, CodeAddressesWithinFootprint)
{
    auto prog = smallProgram();
    Workload wl(prog, 6);
    const WorkloadConfig &cfg = prog->config();
    InstrRecord r;
    for (int i = 0; i < 100000; ++i) {
        wl.next(r);
        EXPECT_GE(r.pc, cfg.codeBase);
        EXPECT_LT(r.pc, cfg.codeBase + prog->codeBytes());
    }
}

TEST(Workload, DataAddressesInDataSegment)
{
    auto prog = smallProgram();
    Workload wl(prog, 7, /*dataOffset=*/0x10000000);
    const WorkloadConfig &cfg = prog->config();
    InstrRecord r;
    int mem_ops = 0;
    for (int i = 0; i < 100000; ++i) {
        wl.next(r);
        if (!r.isMem())
            continue;
        ++mem_ops;
        EXPECT_GE(r.dataAddr, cfg.dataBase + 0x10000000);
        EXPECT_EQ(r.dataAddr % 4, 0u);
    }
    EXPECT_GT(mem_ops, 20000);
}

TEST(Workload, DisjointDataSegmentsPerCore)
{
    auto w0 = makeWorkload(WorkloadKind::WEB, 0);
    auto w1 = makeWorkload(WorkloadKind::WEB, 1);
    std::unordered_set<Addr> lines0;
    InstrRecord r;
    for (int i = 0; i < 50000; ++i) {
        w0->next(r);
        if (r.isMem())
            lines0.insert(r.dataAddr >> 6);
    }
    for (int i = 0; i < 50000; ++i) {
        w1->next(r);
        if (r.isMem()) {
            EXPECT_EQ(lines0.count(r.dataAddr >> 6), 0u);
        }
    }
}

TEST(Workload, SharedCodeAcrossCores)
{
    // Same application on two cores shares the program text.
    auto w0 = makeWorkload(WorkloadKind::WEB, 0);
    auto w1 = makeWorkload(WorkloadKind::WEB, 1);
    EXPECT_EQ(&w0->program(), &w1->program());
}

TEST(Workload, InstructionMixMatchesConfig)
{
    auto prog = smallProgram();
    Workload wl(prog, 9);
    TraceSummary s = summarizeTrace(wl, 300000);
    double loads = s.opFraction(OpClass::Load);
    double stores = s.opFraction(OpClass::Store);
    // Terminator slots dilute the static mix slightly.
    EXPECT_NEAR(loads, prog->config().loadFraction, 0.06);
    EXPECT_NEAR(stores, prog->config().storeFraction, 0.04);
    EXPECT_GT(s.opFraction(OpClass::CondBranch), 0.02);
    EXPECT_GT(s.opFraction(OpClass::Call) +
                  s.opFraction(OpClass::Jump),
              0.005);
}

TEST(Workload, TrapsAreRare)
{
    auto prog = smallProgram();
    Workload wl(prog, 10);
    TraceSummary s = summarizeTrace(wl, 400000);
    double traps = s.opFraction(OpClass::Trap);
    // switches (1/500) dominate the plain trap rate here
    EXPECT_GT(traps, 0.0005);
    EXPECT_LT(traps, 0.01);
}

TEST(Workload, BatchMatchesScalarStep)
{
    // nextBatch's block-run fast path against next() on a twin
    // walker: every record, in every span size, whether a run ends
    // at a terminator, a span boundary or an async trap.
    const std::size_t spans[] = {1, 3, 512, 4096};
    std::vector<InstrRecord> buf(4096);
    std::uint64_t plainTraps = 0;
    for (WorkloadKind kind : allWorkloadKinds()) {
        for (CoreId core = 0; core < 4; ++core) {
            SCOPED_TRACE(testing::Message() << workloadName(kind)
                                            << " core " << core);
            auto batched = makeWorkload(kind, core, 1);
            auto scalar = makeWorkload(kind, core, 1);
            std::uint64_t traps = 0;
            std::uint64_t pulled = 0;
            for (std::size_t k = 0; pulled < (1u << 17); ++k) {
                std::span<InstrRecord> span(buf.data(), spans[k % 4]);
                ASSERT_EQ(batched->nextBatch(span), span.size());
                for (const InstrRecord &got : span) {
                    InstrRecord want;
                    ASSERT_TRUE(scalar->next(want));
                    ASSERT_TRUE(sameRecord(got, want))
                        << "record " << pulled;
                    traps += got.op == OpClass::Trap;
                    ++pulled;
                }
            }
            EXPECT_EQ(batched->instructionsEmitted(), pulled);
            EXPECT_EQ(batched->instructionsEmitted(),
                      scalar->instructionsEmitted());
            EXPECT_EQ(batched->transactionsCompleted(),
                      scalar->transactionsCompleted());
            EXPECT_EQ(batched->contextSwitches(),
                      scalar->contextSwitches());
            EXPECT_GT(batched->contextSwitches(), 0u);
            plainTraps += traps - batched->contextSwitches();
        }
    }
    EXPECT_GT(plainTraps, 0u);
}

TEST(Workload, GoldenStreamDigests)
{
    // FNV-1a of the first 1M records of every preset and core at seed
    // 1, pulled in 512-record batches like the core's fetch block.
    // The values predate the block-run fast path and the guided Zipf
    // search, so a change shared by next() and nextBatch() shows too.
    const std::uint64_t golden[4][4] = {
        {0xe2e9463b9ba0c462ULL, 0x6d2b64f69bf9a302ULL,
         0x34eb647581ba5deaULL, 0x4ba2914f8e3881ddULL}, // DB
        {0xd2a95e25daf0402bULL, 0x78bf6a6214cfb79cULL,
         0x0074e5539e6d547fULL, 0x33e5d455bb461e4cULL}, // TPC-W
        {0xbcdea10d5f835f81ULL, 0x40a6bf9236920d81ULL,
         0x6bf9b7105d4acb5dULL, 0x80b3ea1b8a60798eULL}, // jApp
        {0xa063ef16b0df67d6ULL, 0xf6d1af69c2c2fa60ULL,
         0xb6614274ab7f05c4ULL, 0xc42c47615030c07eULL}, // Web
    };
    constexpr std::size_t records = 1'000'000;
    std::vector<InstrRecord> buf(512);
    for (WorkloadKind kind : allWorkloadKinds()) {
        for (CoreId core = 0; core < 4; ++core) {
            auto wl = makeWorkload(kind, core, 1);
            std::uint64_t h = 0xcbf29ce484222325ULL;
            for (std::size_t done = 0; done < records;) {
                std::span<InstrRecord> span(
                    buf.data(), std::min(buf.size(), records - done));
                wl->nextBatch(span);
                for (const InstrRecord &r : span)
                    h = foldRecord(h, r);
                done += span.size();
            }
            EXPECT_EQ(h, golden[static_cast<int>(kind)][core])
                << workloadName(kind) << " core " << core;
        }
    }
}

TEST(Presets, AllBuildAndRun)
{
    for (WorkloadKind kind : allWorkloadKinds()) {
        auto wl = makeWorkload(kind, 0);
        InstrRecord r;
        for (int i = 0; i < 1000; ++i)
            ASSERT_TRUE(wl->next(r));
    }
}

TEST(Presets, NamesRoundTrip)
{
    EXPECT_EQ(parseWorkloadKind("db"), WorkloadKind::DB);
    EXPECT_EQ(parseWorkloadKind("TPC-W"), WorkloadKind::TPCW);
    EXPECT_EQ(parseWorkloadKind("jApp"), WorkloadKind::JAPP);
    EXPECT_EQ(parseWorkloadKind("SPECweb99"), WorkloadKind::WEB);
    EXPECT_STREQ(workloadName(WorkloadKind::TPCW), "TPC-W");
}

TEST(Presets, UnknownNameThrows)
{
    test::expectThrows<ConfigError>(
        [] { parseWorkloadKind("quake3"); }, "unknown workload");
}

TEST(Presets, ProgramsAreMemoized)
{
    auto a = buildProgram(WorkloadKind::DB);
    auto b = buildProgram(WorkloadKind::DB);
    EXPECT_EQ(a.get(), b.get());
}

TEST(Presets, DistinctAddressSpaces)
{
    // Different applications occupy different code regions so the
    // CMP "Mix" does not alias.
    std::set<Addr> bases;
    for (WorkloadKind kind : allWorkloadKinds())
        bases.insert(presetConfig(kind).codeBase);
    EXPECT_EQ(bases.size(), allWorkloadKinds().size());
}
