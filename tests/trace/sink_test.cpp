/**
 * @file
 * Unit tests for trace records and sinks.
 */

#include <gtest/gtest.h>

#include "trace/pipeline.hpp"
#include "trace/sink.hpp"

namespace kb {
namespace {

TEST(Access, Constructors)
{
    const Access r = readOf(17);
    const Access w = writeOf(17);
    EXPECT_FALSE(r.isWrite());
    EXPECT_TRUE(w.isWrite());
    EXPECT_EQ(r.addr, 17u);
    EXPECT_NE(r, w);
    EXPECT_EQ(r, readOf(17));
}

TEST(CountingSink, CountsReadsAndWrites)
{
    CountingSink sink;
    sink.onAccess(readOf(1));
    sink.onAccess(readOf(2));
    sink.onAccess(writeOf(3));
    EXPECT_EQ(sink.reads(), 2u);
    EXPECT_EQ(sink.writes(), 1u);
    EXPECT_EQ(sink.total(), 3u);
}

TEST(CountingSink, OnRunCountsEveryWord)
{
    CountingSink sink;
    sink.onRun(100, 5, AccessType::Read);
    sink.onRun(200, 3, AccessType::Write);
    EXPECT_EQ(sink.reads(), 5u);
    EXPECT_EQ(sink.writes(), 3u);
}

TEST(VectorSink, RecordsInOrder)
{
    VectorSink sink;
    sink.onAccess(readOf(4));
    sink.onAccess(writeOf(5));
    ASSERT_EQ(sink.trace().size(), 2u);
    EXPECT_EQ(sink.trace()[0], readOf(4));
    EXPECT_EQ(sink.trace()[1], writeOf(5));
}

TEST(VectorSink, TakeMovesTrace)
{
    VectorSink sink;
    sink.onAccess(readOf(1));
    auto trace = sink.take();
    EXPECT_EQ(trace.size(), 1u);
    EXPECT_TRUE(sink.trace().empty());
}

TEST(CallbackSink, InvokesCallback)
{
    int calls = 0;
    CallbackSink sink([&](const Access &a) {
        ++calls;
        EXPECT_EQ(a.addr, 9u);
    });
    sink.onAccess(readOf(9));
    EXPECT_EQ(calls, 1);
}

TEST(CallbackSink, RunCallbackReceivesWholeRuns)
{
    std::uint64_t run_words = 0;
    int run_calls = 0, word_calls = 0;
    CallbackSink sink(
        [&](const Access &) { ++word_calls; },
        [&](std::uint64_t base, std::uint64_t words, AccessType type) {
            ++run_calls;
            run_words += words;
            EXPECT_EQ(base, 50u);
            EXPECT_EQ(type, AccessType::Write);
        });
    sink.onRun(50, 12, AccessType::Write);
    EXPECT_EQ(run_calls, 1);
    EXPECT_EQ(run_words, 12u);
    EXPECT_EQ(word_calls, 0); // one dispatch for the run, not twelve
    sink.onAccess(readOf(1));
    EXPECT_EQ(word_calls, 1);
}

TEST(CallbackSink, WithoutRunCallbackRunsExpandPerWord)
{
    std::vector<Access> seen;
    CallbackSink sink([&](const Access &a) { seen.push_back(a); });
    sink.onRun(7, 3, AccessType::Read);
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], readOf(7));
    EXPECT_EQ(seen[2], readOf(9));
}

TEST(AnalysisPipeline, FansOut)
{
    CountingSink a, b;
    AnalysisPipeline pipeline;
    pipeline.attach(a);
    pipeline.attach(b);
    pipeline.onAccess(readOf(1));
    pipeline.onAccess(writeOf(2));
    pipeline.flush();
    EXPECT_EQ(a.total(), 2u);
    EXPECT_EQ(b.total(), 2u);
    EXPECT_EQ(a.writes(), 1u);
}

TEST(NullSink, Discards)
{
    NullSink sink;
    sink.onAccess(readOf(1)); // must not crash
}

} // namespace
} // namespace kb
