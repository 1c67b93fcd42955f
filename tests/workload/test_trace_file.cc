/**
 * @file
 * Trace file I/O tests: round-trips, format sniffing, replay
 * semantics, and error handling.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "scratch_dir.hh"
#include "workload/spec.hh"
#include "workload/synth.hh"
#include "workload/trace_file.hh"

namespace mopac
{
namespace
{

TraceData
sampleTrace()
{
    TraceData trace;
    TraceRecord a;
    a.inst_gap = 12;
    a.line_addr = 0xABCDEF;
    trace.records.push_back(a);
    TraceRecord b;
    b.inst_gap = 0;
    b.line_addr = 0x42;
    b.is_write = true;
    trace.records.push_back(b);
    TraceRecord c;
    c.inst_gap = 7;
    c.line_addr = 0x1000000042ull;
    c.depends_on_prev = true;
    trace.records.push_back(c);
    return trace;
}

void
expectEqual(const TraceData &a, const TraceData &b)
{
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].inst_gap, b.records[i].inst_gap) << i;
        EXPECT_EQ(a.records[i].line_addr, b.records[i].line_addr) << i;
        EXPECT_EQ(a.records[i].is_write, b.records[i].is_write) << i;
        EXPECT_EQ(a.records[i].depends_on_prev,
                  b.records[i].depends_on_prev)
            << i;
    }
}

TEST(TraceFile, TextRoundTrip)
{
    const test::ScratchDir scratch;
    const std::string path = scratch.path("t.mtr");
    const TraceData trace = sampleTrace();
    writeTraceText(trace, path);
    expectEqual(trace, loadTrace(path));
}

TEST(TraceFile, BinaryRoundTrip)
{
    const test::ScratchDir scratch;
    const std::string path = scratch.path("t.mtb");
    const TraceData trace = sampleTrace();
    writeTraceBinary(trace, path);
    expectEqual(trace, loadTrace(path));
}

TEST(TraceFile, CapturedSyntheticTraceRoundTrips)
{
    AddressMap map{Geometry{}};
    auto gen = makeTraceSource(findWorkload("mcf"), map, 0, 8, 5);
    const TraceData trace = captureTrace(*gen, 5000);
    ASSERT_EQ(trace.records.size(), 5000u);

    const test::ScratchDir scratch;
    const std::string path = scratch.path("synth.mtb");
    writeTraceBinary(trace, path);
    expectEqual(trace, loadTrace(path));
}

TEST(TraceFile, TextToleratesCommentsAndBlanks)
{
    const test::ScratchDir scratch;
    const std::string path = scratch.path("c.mtr");
    {
        std::ofstream out(path);
        out << "# header comment\n"
            << "\n"
            << "10 R ff\n"
            << "0 W 1a # inline comment\n";
    }
    const TraceData trace = loadTrace(path);
    ASSERT_EQ(trace.records.size(), 2u);
    EXPECT_EQ(trace.records[0].line_addr, 0xFFu);
    EXPECT_TRUE(trace.records[1].is_write);
}

TEST(TraceFile, ReplayLoopsForever)
{
    FileTraceSource src(sampleTrace());
    EXPECT_EQ(src.size(), 3u);
    for (int loop = 0; loop < 3; ++loop) {
        EXPECT_EQ(src.next().inst_gap, 12u);
        EXPECT_TRUE(src.next().is_write);
        EXPECT_TRUE(src.next().depends_on_prev);
    }
    EXPECT_EQ(src.loops(), 3u);
}

TEST(TraceFileDeathTest, MissingFileIsFatal)
{
    EXPECT_EXIT(loadTrace("/nonexistent/trace.mtb"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(TraceFileDeathTest, MalformedTextIsFatal)
{
    const test::ScratchDir scratch;
    const std::string path = scratch.path("bad.mtr");
    {
        std::ofstream out(path);
        out << "10 X ff\n";
    }
    EXPECT_EXIT(loadTrace(path), ::testing::ExitedWithCode(1),
                "bad record kind");
}

TEST(TraceFileDeathTest, EmptyReplayIsFatal)
{
    EXPECT_EXIT(FileTraceSource(TraceData{}),
                ::testing::ExitedWithCode(1), "non-empty");
}

} // namespace
} // namespace mopac
