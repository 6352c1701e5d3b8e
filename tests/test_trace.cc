/**
 * @file
 * Tests for the trace layer: record semantics, sources, opening
 * trace files and the summarizer. Round trips through the v3 format
 * live in test_trace_v3.cc.
 */

#include <gtest/gtest.h>

#include "error_helpers.hh"

#include <cstdio>
#include <sstream>

#include "trace/record.hh"
#include "trace/trace_file.hh"
#include "trace/trace_source.hh"
#include "trace/trace_stats.hh"
#include "trace/trace_v3.hh"

using namespace ipref;

namespace
{

InstrRecord
makeInstr(Addr pc, OpClass op, bool taken = false, Addr target = 0)
{
    InstrRecord r;
    r.pc = pc;
    r.op = op;
    r.taken = taken;
    r.target = target;
    return r;
}

} // namespace

TEST(Record, NextPcSequential)
{
    InstrRecord r = makeInstr(0x1000, OpClass::IntAlu);
    EXPECT_FALSE(r.isCti());
    EXPECT_FALSE(r.redirects());
    EXPECT_EQ(r.nextPc(), 0x1004u);
}

TEST(Record, NextPcTakenBranch)
{
    InstrRecord r =
        makeInstr(0x1000, OpClass::CondBranch, true, 0x2000);
    EXPECT_TRUE(r.isCti());
    EXPECT_TRUE(r.redirects());
    EXPECT_EQ(r.nextPc(), 0x2000u);
}

TEST(Record, NextPcNotTakenBranch)
{
    InstrRecord r =
        makeInstr(0x1000, OpClass::CondBranch, false, 0x2000);
    EXPECT_FALSE(r.redirects());
    EXPECT_EQ(r.nextPc(), 0x1004u);
}

TEST(Record, TransitionTaxonomy)
{
    EXPECT_EQ(makeInstr(0, OpClass::IntAlu).transitionType(),
              FetchTransition::Sequential);
    EXPECT_EQ(makeInstr(0x100, OpClass::CondBranch, false, 0x200)
                  .transitionType(),
              FetchTransition::CondNotTaken);
    EXPECT_EQ(makeInstr(0x100, OpClass::CondBranch, true, 0x200)
                  .transitionType(),
              FetchTransition::CondTakenFwd);
    EXPECT_EQ(makeInstr(0x200, OpClass::CondBranch, true, 0x100)
                  .transitionType(),
              FetchTransition::CondTakenBack);
    EXPECT_EQ(makeInstr(0, OpClass::UncondBranch, true, 8)
                  .transitionType(),
              FetchTransition::UncondBranch);
    EXPECT_EQ(makeInstr(0, OpClass::Call, true, 8).transitionType(),
              FetchTransition::Call);
    EXPECT_EQ(makeInstr(0, OpClass::Jump, true, 8).transitionType(),
              FetchTransition::Jump);
    EXPECT_EQ(makeInstr(0, OpClass::Return, true, 8).transitionType(),
              FetchTransition::Return);
    EXPECT_EQ(makeInstr(0, OpClass::Trap, true, 8).transitionType(),
              FetchTransition::Trap);
}

TEST(Record, MissGroups)
{
    EXPECT_EQ(missGroup(FetchTransition::Sequential),
              MissGroup::Sequential);
    EXPECT_EQ(missGroup(FetchTransition::CondNotTaken),
              MissGroup::Branch);
    EXPECT_EQ(missGroup(FetchTransition::CondTakenFwd),
              MissGroup::Branch);
    EXPECT_EQ(missGroup(FetchTransition::CondTakenBack),
              MissGroup::Branch);
    EXPECT_EQ(missGroup(FetchTransition::UncondBranch),
              MissGroup::Branch);
    EXPECT_EQ(missGroup(FetchTransition::Call), MissGroup::Function);
    EXPECT_EQ(missGroup(FetchTransition::Jump), MissGroup::Function);
    EXPECT_EQ(missGroup(FetchTransition::Return),
              MissGroup::Function);
    EXPECT_EQ(missGroup(FetchTransition::Trap), MissGroup::Trap);
}

TEST(Record, Names)
{
    EXPECT_STREQ(opClassName(OpClass::Load), "Load");
    EXPECT_STREQ(transitionName(FetchTransition::CondTakenFwd),
                 "Cond branch (tf)");
}

TEST(VectorSource, IterationAndReset)
{
    std::vector<InstrRecord> recs = {
        makeInstr(0x10, OpClass::IntAlu),
        makeInstr(0x14, OpClass::Load)};
    VectorTraceSource src(recs);
    InstrRecord r;
    ASSERT_TRUE(src.next(r));
    EXPECT_EQ(r.pc, 0x10u);
    ASSERT_TRUE(src.next(r));
    EXPECT_EQ(r.pc, 0x14u);
    EXPECT_FALSE(src.next(r));
    src.reset();
    ASSERT_TRUE(src.next(r));
    EXPECT_EQ(r.pc, 0x10u);
}

TEST(LoopingSource, WrapsAround)
{
    std::vector<InstrRecord> recs = {makeInstr(0x10, OpClass::IntAlu)};
    VectorTraceSource inner(recs);
    LoopingTraceSource src(inner);
    InstrRecord r;
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(src.next(r));
        EXPECT_EQ(r.pc, 0x10u);
    }
}

TEST(TraceFile, MissingFileThrows)
{
    test::expectThrows<TraceError>(
        [] { openTraceReader("/nonexistent/path/x.trc"); },
        "cannot open");
}

namespace
{

void
writeRawFile(const std::string &path, const void *bytes, std::size_t n)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes, 1, n, f);
    std::fclose(f);
}

} // namespace

TEST(TraceFile, BadMagicIsFatal)
{
    std::string path = ::testing::TempDir() + "bad.trc";
    const char junk[64] = "not a trace file at all............";
    writeRawFile(path, junk, sizeof(junk));
    for (TraceReadMode mode :
         {TraceReadMode::Strict, TraceReadMode::Tolerant})
        test::expectThrows<TraceError>(
            [&] { openTraceReader(path, mode); },
            "unsupported trace magic \"not a tr\"");
    std::remove(path.c_str());
}

TEST(TraceFile, RetiredFormatsAreRejected)
{
    // Files in the retired v1/v2 layouts: a well-formed header of
    // either is still refused, naming the magic it found.
    std::string path = ::testing::TempDir() + "retired.trc";
    for (char version : {'1', '2'}) {
        unsigned char bytes[128] = {'I', 'P', 'R', 'T', 'R', 'C', '0'};
        bytes[7] = static_cast<unsigned char>(version);
        bytes[8] = 1; // record count
        writeRawFile(path, bytes, sizeof(bytes));
        std::string found = std::string("IPRTRC0") + version;
        test::expectThrows<TraceError>(
            [&] { openTraceReader(path, TraceReadMode::Tolerant); },
            "unsupported trace magic \"" + found +
                "\": only IPRTRC03 (v3) trace files are readable");
    }
    std::remove(path.c_str());
}

TEST(TraceStats, SummarizesMixAndTransitions)
{
    // Two lines: 16 ALU ops in line 0, then a call into line 4.
    std::vector<InstrRecord> recs;
    for (int i = 0; i < 15; ++i)
        recs.push_back(makeInstr(0x1000 + 4 * i, OpClass::IntAlu));
    recs.push_back(
        makeInstr(0x103c, OpClass::Call, true, 0x1100));
    recs.push_back(makeInstr(0x1100, OpClass::Load));
    recs.back().dataAddr = 0x900000;
    VectorTraceSource src(recs);
    TraceSummary s = summarizeTrace(src);
    EXPECT_EQ(s.instructions, 17u);
    EXPECT_EQ(s.opCounts[static_cast<std::size_t>(OpClass::Call)],
              1u);
    EXPECT_EQ(s.lineTransitions[static_cast<std::size_t>(
                  FetchTransition::Call)],
              1u);
    EXPECT_EQ(s.codeLinesTouched, 2u);
    EXPECT_EQ(s.dataLinesTouched, 1u);
    EXPECT_GT(s.discontinuityFraction(), 0.9);
    std::ostringstream os;
    s.print(os);
    EXPECT_NE(os.str().find("instructions: 17"), std::string::npos);
}

TEST(TraceStats, MaxInstrsBound)
{
    std::vector<InstrRecord> recs(50, makeInstr(0x10, OpClass::IntAlu));
    VectorTraceSource src(recs);
    TraceSummary s = summarizeTrace(src, 10);
    EXPECT_EQ(s.instructions, 10u);
}
