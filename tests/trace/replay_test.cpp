/**
 * @file
 * Unit tests for streaming replay (ReplaySink) and the bulk onRun
 * path through the sink hierarchy.
 */

#include <gtest/gtest.h>

#include "mem/lru_cache.hpp"
#include "trace/pipeline.hpp"
#include "trace/replay.hpp"
#include "trace/sink.hpp"

namespace kb {
namespace {

TEST(ReplaySink, DrivesSingleModel)
{
    LruCache lru(2);
    ReplaySink sink(lru);
    sink.onAccess(readOf(1));
    sink.onAccess(writeOf(2));
    sink.onAccess(readOf(3)); // evicts 1
    sink.flush();
    EXPECT_EQ(sink.accessCount(), 3u);
    EXPECT_EQ(lru.stats().accesses, 3u);
    EXPECT_EQ(lru.stats().misses, 3u);
    EXPECT_EQ(lru.stats().writebacks, 1u); // the dirty word 2
}

TEST(ReplaySink, FansOutToSeveralModels)
{
    LruCache big(64), small(2);
    ReplaySink sink({&big, &small});
    for (std::uint64_t a = 0; a < 8; ++a)
        sink.onAccess(readOf(a % 4));
    sink.flush();
    EXPECT_EQ(big.stats().accesses, 8u);
    EXPECT_EQ(small.stats().accesses, 8u);
    EXPECT_EQ(big.stats().misses, 4u);   // all four words fit
    EXPECT_GT(small.stats().misses, 4u); // capacity 2 thrashes
}

TEST(ReplaySink, RunsEqualWordAtATime)
{
    LruCache via_run(8), via_words(8);
    ReplaySink run_sink(via_run), word_sink(via_words);
    run_sink.onRun(100, 16, AccessType::Write);
    for (std::uint64_t i = 0; i < 16; ++i)
        word_sink.onAccess(writeOf(100 + i));
    run_sink.flush();
    word_sink.flush();
    EXPECT_EQ(via_run.stats().accesses, via_words.stats().accesses);
    EXPECT_EQ(via_run.stats().misses, via_words.stats().misses);
    EXPECT_EQ(via_run.stats().writebacks,
              via_words.stats().writebacks);
}

TEST(Sinks, CountingSinkCountsRunsInBulk)
{
    // Counting a run is O(1) through CountingSink's onRun override,
    // not a word-at-a-time expansion.
    CountingSink sink;
    sink.onRun(0, 1u << 20, AccessType::Read);
    sink.onRun(1u << 20, 1u << 10, AccessType::Write);
    EXPECT_EQ(sink.reads(), 1u << 20);
    EXPECT_EQ(sink.writes(), 1u << 10);
}

TEST(Sinks, PipelineForwardsRunsToConsumers)
{
    CountingSink counter;
    VectorSink recorder;
    AnalysisPipeline pipeline;
    pipeline.attach(counter);
    pipeline.attach(recorder);
    pipeline.onRun(10, 3, AccessType::Write);
    pipeline.flush();
    EXPECT_EQ(counter.writes(), 3u);
    ASSERT_EQ(recorder.trace().size(), 3u);
    EXPECT_EQ(recorder.trace()[0], writeOf(10));
    EXPECT_EQ(recorder.trace()[2], writeOf(12));
}

TEST(Sinks, VectorSinkExpandsRunsInOrder)
{
    VectorSink sink;
    sink.onRun(5, 2, AccessType::Read);
    sink.onAccess(writeOf(9));
    ASSERT_EQ(sink.trace().size(), 3u);
    EXPECT_EQ(sink.trace()[0], readOf(5));
    EXPECT_EQ(sink.trace()[1], readOf(6));
    EXPECT_EQ(sink.trace()[2], writeOf(9));
}

TEST(Sinks, NullSinkDiscardsRuns)
{
    NullSink sink;
    sink.onRun(0, 1u << 30, AccessType::Read); // O(1), must be instant
}

} // namespace
} // namespace kb
