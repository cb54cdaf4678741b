/**
 * @file
 * Randomized differential tests for the rewritten analyzer cores.
 *
 * Three independent references pin the new implementations down:
 * the hierarchical MarkRank counter and the batched-run
 * ReuseDistanceAnalyzer diff against a self-contained copy of the
 * Fenwick-tree formulation they replaced; the multi-plane
 * MultiSetReuseAnalyzer diffs against both per-set-count analyzer
 * passes and direct SetAssocCache replay; and the streaming OPT path
 * diffs against the buffered simulateOptCurve — over every
 * registered kernel plus adversarial synthetic traces (wraparound
 * runs, all-cold streams, single-word hammers) and seeded random
 * mixes. The streaming stress also asserts the memory bound: peak
 * resident bytes stay put when the trace gets 8x longer.
 *
 * The pipeline suite pins the chunked AnalysisPipeline down the same
 * way: one emission through the chunk ring into a
 * ReuseDistanceAnalyzer and a MultiSetReuseAnalyzer attached side by
 * side must reproduce, bit for bit, the same two analyzers fed
 * directly — over every registered kernel, the adversarial streams,
 * and chunk sizes 1/7/4096 so ops land on every possible
 * chunk-boundary phase. A fully-assoc
 * scalar-vs-SIMD differential covers the run-block index and the
 * block-scan rankInc against the original per-word loops.
 */

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/registry.hpp"
#include "mem/opt_cache.hpp"
#include "mem/set_assoc.hpp"
#include "trace/pipeline.hpp"
#include "trace/reuse.hpp"
#include "trace/sink.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

#include "per_kernel.hpp"

namespace kb {
namespace {

TEST(PerKernelCoverage, ParameterListIsTheRegistry)
{
    EXPECT_EQ(kKernelNames, KernelRegistry::instance().names());
}

/**
 * The retired Fenwick-tree reuse-distance implementation, kept
 * verbatim as the differential reference: O(log T) point updates and
 * prefix sums over a marks array, with the lazy rebuild the bulk
 * cold path used. Everything the analyzer API exposes is reproduced.
 */
class FenwickReuseReference
{
  public:
    void
    access(const Access &a)
    {
        const auto [state, inserted] = words_.tryEmplace(a.addr);
        if (inserted) {
            const std::uint64_t pos = time_;
            state->last_use = time_++;
            ++cold_;
            if (a.isWrite()) {
                ++cold_writebacks_;
                state->dirty_window = 0;
            } else {
                state->dirty_window = kColdWindow;
            }
            growMarks(static_cast<std::size_t>(pos) + 1);
            if (tree_stale_) {
                marks_[pos] = 1;
            } else {
                fenwickAdd(static_cast<std::size_t>(pos), +1);
            }
            return;
        }

        const std::uint64_t now = time_++;
        const std::uint64_t prev = state->last_use;
        growMarks(static_cast<std::size_t>(now) + 1);
        ensureTree();
        const std::uint64_t until_now =
            now == 0 ? 0 : fenwickSum(static_cast<std::size_t>(now - 1));
        const std::uint64_t until_prev =
            fenwickSum(static_cast<std::size_t>(prev));
        const std::uint64_t distance = until_now - until_prev;
        if (hist_.size() <= distance)
            hist_.resize(distance + 1, 0);
        ++hist_[distance];
        fenwickAdd(static_cast<std::size_t>(prev), -1);
        fenwickAdd(static_cast<std::size_t>(now), +1);
        state->last_use = now;
        state->dirty_window = std::max(state->dirty_window, distance);
        if (a.isWrite()) {
            if (state->dirty_window == kColdWindow) {
                ++cold_writebacks_;
            } else {
                if (wb_hist_.size() <= state->dirty_window)
                    wb_hist_.resize(state->dirty_window + 1, 0);
                ++wb_hist_[state->dirty_window];
            }
            state->dirty_window = 0;
        }
    }

    const std::vector<std::uint64_t> &histogram() const { return hist_; }
    const std::vector<std::uint64_t> &
    writeHistogram() const
    {
        return wb_hist_;
    }
    std::uint64_t coldMisses() const { return cold_; }
    std::uint64_t coldWritebacks() const { return cold_writebacks_; }
    std::uint64_t accesses() const { return time_; }
    std::uint64_t distinctWords() const { return words_.size(); }

  private:
    static constexpr std::uint64_t kColdWindow =
        std::numeric_limits<std::uint64_t>::max();

    struct WordState
    {
        std::uint64_t last_use = 0;
        std::uint64_t dirty_window = 0;
    };

    void
    growMarks(std::size_t n)
    {
        if (marks_.size() >= n)
            return;
        marks_.resize(std::max(n, marks_.size() * 2 + 16), 0);
        tree_stale_ = true;
    }

    void
    ensureTree()
    {
        if (!tree_stale_)
            return;
        tree_.assign(marks_.size(), 0);
        for (std::size_t i = 1; i <= marks_.size(); ++i) {
            tree_[i - 1] += marks_[i - 1];
            const std::size_t parent = i + (i & (~i + 1));
            if (parent <= marks_.size())
                tree_[parent - 1] += tree_[i - 1];
        }
        tree_stale_ = false;
    }

    void
    fenwickAdd(std::size_t pos, std::int64_t delta)
    {
        marks_[pos] = static_cast<std::uint8_t>(
            static_cast<std::int64_t>(marks_[pos]) + delta);
        for (std::size_t i = pos + 1; i <= tree_.size();
             i += i & (~i + 1))
            tree_[i - 1] += delta;
    }

    std::uint64_t
    fenwickSum(std::size_t pos) const
    {
        std::int64_t sum = 0;
        for (std::size_t i = std::min(pos + 1, tree_.size()); i > 0;
             i -= i & (~i + 1))
            sum += tree_[i - 1];
        return static_cast<std::uint64_t>(sum);
    }

    std::vector<std::uint8_t> marks_;
    std::vector<std::int64_t> tree_;
    bool tree_stale_ = true;
    FlatWordMap<WordState> words_;
    std::vector<std::uint64_t> hist_;
    std::vector<std::uint64_t> wb_hist_;
    std::uint64_t cold_ = 0;
    std::uint64_t cold_writebacks_ = 0;
    std::uint64_t time_ = 0;
};

/** One emitted run; word-at-a-time accesses are runs of one. */
struct Run
{
    std::uint64_t base = 0;
    std::uint64_t words = 1;
    AccessType type = AccessType::Read;
};

/** Named adversarial run streams the batched paths must not bend on. */
std::vector<std::pair<std::string, std::vector<Run>>>
adversarialStreams()
{
    std::vector<std::pair<std::string, std::vector<Run>>> streams;

    // Address-space wraparound: runs crossing 2^64 exercise the
    // base+i arithmetic (addresses stay distinct modulo 2^64).
    const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
    streams.push_back({"wraparound_runs",
                       {{top - 5, 16, AccessType::Read},
                        {top - 5, 16, AccessType::Write},
                        {top - 2, 7, AccessType::Read},
                        {3, 4, AccessType::Read}}});

    // All-cold: disjoint first-touch runs, the bulk mark path end to
    // end with no warm access ever interleaving.
    {
        std::vector<Run> runs;
        for (std::uint64_t i = 0; i < 64; ++i)
            runs.push_back({i * 1000, 100,
                            i % 3 == 0 ? AccessType::Write
                                       : AccessType::Read});
        streams.push_back({"all_cold", std::move(runs)});
    }

    // Single-word hammer: distance 0 forever, alternating dirt.
    {
        std::vector<Run> runs;
        for (std::uint64_t i = 0; i < 500; ++i)
            runs.push_back({42, 1,
                            i % 2 == 0 ? AccessType::Write
                                       : AccessType::Read});
        streams.push_back({"single_word_hammer", std::move(runs)});
    }

    // Cold/warm interleave: every run half overlaps the previous one,
    // so phase 2 flips between streak flushes and warm queries.
    {
        std::vector<Run> runs;
        for (std::uint64_t i = 0; i < 200; ++i)
            runs.push_back({i * 8, 16,
                            i % 4 == 0 ? AccessType::Write
                                       : AccessType::Read});
        streams.push_back({"half_overlap_runs", std::move(runs)});
    }
    return streams;
}

/** Seeded random run mix (lengths, overlaps and types all vary). */
std::vector<Run>
randomStream(std::uint64_t seed)
{
    Xoshiro256 rng(seed);
    std::vector<Run> runs;
    for (int i = 0; i < 300; ++i) {
        runs.push_back({rng.below(4000), 1 + rng.below(64),
                        rng.below(3) == 0 ? AccessType::Write
                                          : AccessType::Read});
    }
    return runs;
}

std::vector<Access>
expand(const std::vector<Run> &runs)
{
    std::vector<Access> trace;
    for (const auto &r : runs)
        for (std::uint64_t i = 0; i < r.words; ++i)
            trace.push_back(Access{r.base + i, r.type});
    return trace;
}

/** A small fixed-schedule kernel trace (m_lo keeps them fast). */
std::vector<Access>
kernelTrace(const std::string &name, std::uint64_t &schedule_m)
{
    const auto kernel = KernelRegistry::instance().shared(name);
    std::uint64_t m_lo = 0, m_hi = 0;
    kernel->defaultSweepRange(m_lo, m_hi);
    schedule_m = m_lo;
    const std::uint64_t n = kernel->regimeProblemSize(
        kernel->suggestProblemSize(schedule_m), schedule_m);
    VectorSink buffer;
    kernel->emitTrace(n, schedule_m, buffer);
    return buffer.take();
}

void
expectMatchesReference(const ReuseDistanceAnalyzer &analyzer,
                       const FenwickReuseReference &reference)
{
    EXPECT_EQ(analyzer.accesses(), reference.accesses());
    EXPECT_EQ(analyzer.coldMisses(), reference.coldMisses());
    EXPECT_EQ(analyzer.coldWritebacks(), reference.coldWritebacks());
    EXPECT_EQ(analyzer.distinctWords(), reference.distinctWords());
    EXPECT_EQ(analyzer.histogram(), reference.histogram());
    EXPECT_EQ(analyzer.writeHistogram(), reference.writeHistogram());
}

/** MarkRank against a naive bit vector, random set/clear/setRun. */
TEST(MarkRankDiff, MatchesNaiveBitVector)
{
    Xoshiro256 rng(2024);
    MarkRank rank;
    std::vector<std::uint8_t> naive;
    std::vector<std::uint64_t> set_positions;

    std::uint64_t frontier = 0;
    for (int step = 0; step < 4000; ++step) {
        const std::uint64_t roll = rng.below(10);
        if (roll < 4 || set_positions.empty()) {
            // Grow with a cold streak of 1..200 positions.
            const std::uint64_t len = 1 + rng.below(200);
            rank.grow(frontier + len);
            naive.resize(frontier + len, 0);
            rank.setRun(frontier, len);
            for (std::uint64_t i = 0; i < len; ++i) {
                naive[frontier + i] = 1;
                set_positions.push_back(frontier + i);
            }
            frontier += len;
        } else if (roll < 7) {
            // Move one mark (clear + set at the frontier), the warm
            // access pattern.
            const std::size_t pick = static_cast<std::size_t>(
                rng.below(set_positions.size()));
            const std::uint64_t pos = set_positions[pick];
            rank.clear(pos);
            naive[pos] = 0;
            rank.grow(frontier + 1);
            naive.resize(frontier + 1, 0);
            rank.set(frontier);
            naive[frontier] = 1;
            set_positions[pick] = frontier;
            ++frontier;
        } else {
            // Rank query at a random position (past and present).
            const std::uint64_t p = rng.below(frontier);
            std::uint64_t expected = 0;
            for (std::uint64_t i = 0; i <= p; ++i)
                expected += naive[i];
            ASSERT_EQ(rank.rankInc(p), expected) << "position " << p;
        }
    }
    std::uint64_t total = 0;
    for (const auto bit : naive)
        total += bit;
    EXPECT_EQ(rank.total(), total);
}

class HierarchicalReuseDiff : public ::testing::TestWithParam<std::string>
{
};

TEST_P(HierarchicalReuseDiff, MatchesFenwickOnKernel)
{
    std::uint64_t schedule_m = 0;
    const auto trace = kernelTrace(GetParam(), schedule_m);
    ASSERT_FALSE(trace.empty());

    ReuseDistanceAnalyzer analyzer;
    FenwickReuseReference reference;
    for (const auto &a : trace) {
        analyzer.onAccess(a);
        reference.access(a);
    }
    expectMatchesReference(analyzer, reference);
}

KB_INSTANTIATE_PER_KERNEL(HierarchicalReuseDiff);

TEST(HierarchicalReuseDiff, MatchesFenwickOnAdversarialAndRandomRuns)
{
    auto streams = adversarialStreams();
    for (std::uint64_t seed = 1; seed <= 12; ++seed)
        streams.push_back(
            {"random_" + std::to_string(seed), randomStream(seed)});

    for (const auto &[label, runs] : streams) {
        SCOPED_TRACE(label);
        // Via the batched run path AND via word-at-a-time accesses —
        // both must match the reference (and hence each other).
        ReuseDistanceAnalyzer via_runs, via_words;
        FenwickReuseReference reference;
        for (const auto &r : runs) {
            via_runs.onRun(r.base, r.words, r.type);
            for (std::uint64_t i = 0; i < r.words; ++i) {
                via_words.onAccess(Access{r.base + i, r.type});
                reference.access(Access{r.base + i, r.type});
            }
        }
        expectMatchesReference(via_runs, reference);
        expectMatchesReference(via_words, reference);
    }
}

/** Every plane of one multi-set pass must equal the per-set-count
 *  analyzer pass it fused, and both must equal direct replay. */
void
expectMultiSetMatches(const std::vector<Access> &trace,
                      const std::vector<std::uint64_t> &set_counts,
                      std::uint64_t max_ways)
{
    MultiSetReuseAnalyzer multi(set_counts, max_ways);
    for (const auto &a : trace)
        multi.onAccess(a);

    for (std::size_t p = 0; p < set_counts.size(); ++p) {
        SCOPED_TRACE("sets " + std::to_string(set_counts[p]));
        MultiSetReuseAnalyzer single({set_counts[p]}, max_ways);
        for (const auto &a : trace)
            single.onAccess(a);

        const auto multi_curve = multi.waysCurve(p);
        const auto single_curve = single.waysCurve(0);
        for (std::uint64_t w = 1; w <= max_ways + 3; ++w) {
            EXPECT_EQ(multi_curve.missesAt(w), single_curve.missesAt(w))
                << "ways " << w;
            EXPECT_EQ(multi_curve.writebacksAt(w),
                      single_curve.writebacksAt(w))
                << "ways " << w;
        }
        // Ground truth within the exact range: direct replay.
        for (std::uint64_t w = 1; w <= max_ways; ++w) {
            SetAssocCache cache(set_counts[p], w,
                                ReplacementPolicy::LRU);
            for (const auto &a : trace)
                cache.access(a);
            cache.flush();
            EXPECT_EQ(multi_curve.missesAt(w), cache.stats().misses)
                << "ways " << w;
            EXPECT_EQ(multi_curve.writebacksAt(w),
                      cache.stats().writebacks)
                << "ways " << w;
        }
    }
}

class MultiSetDiff : public ::testing::TestWithParam<std::string>
{
};

TEST_P(MultiSetDiff, MatchesPerSetPassesAndReplayOnKernel)
{
    std::uint64_t schedule_m = 0;
    const auto trace = kernelTrace(GetParam(), schedule_m);
    expectMultiSetMatches(trace, {1, 3, 8, 32}, 4);
}

KB_INSTANTIATE_PER_KERNEL(MultiSetDiff);

TEST(MultiSetDiff, MatchesPerSetPassesOnAdversarialAndRandomRuns)
{
    auto streams = adversarialStreams();
    for (std::uint64_t seed = 21; seed <= 26; ++seed)
        streams.push_back(
            {"random_" + std::to_string(seed), randomStream(seed)});
    for (const auto &[label, runs] : streams) {
        SCOPED_TRACE(label);
        expectMultiSetMatches(expand(runs), {1, 2, 7, 16}, 4);
    }
}

/** SIMD row scans against the scalar oracle: identical curves. Runs
 *  feed the bulk onRun path so the compressed ordered rows engage. */
void
expectSimdMatchesScalar(const std::vector<Run> &runs,
                        const std::vector<std::uint64_t> &set_counts,
                        std::uint64_t max_ways)
{
    MultiSetReuseAnalyzer simd(set_counts, max_ways,
                               AnalyzerPath::Simd);
    MultiSetReuseAnalyzer scalar(set_counts, max_ways,
                                 AnalyzerPath::Scalar);
    for (const auto &r : runs) {
        simd.onRun(r.base, r.words, r.type);
        scalar.onRun(r.base, r.words, r.type);
    }
    for (std::size_t p = 0; p < set_counts.size(); ++p) {
        SCOPED_TRACE("sets " + std::to_string(set_counts[p]));
        const auto s = simd.waysCurve(p);
        const auto o = scalar.waysCurve(p);
        for (std::uint64_t w = 1; w <= max_ways + 3; ++w) {
            EXPECT_EQ(s.missesAt(w), o.missesAt(w)) << "ways " << w;
            EXPECT_EQ(s.writebacksAt(w), o.writebacksAt(w))
                << "ways " << w;
        }
    }
}

class MultiSetSimdDiff : public ::testing::TestWithParam<std::string>
{
};

TEST_P(MultiSetSimdDiff, MatchesScalarOnKernel)
{
    // Emissions feed both analyzers directly as sinks, so the
    // kernels' run-aware onRun calls hit the bulk compressed path
    // exactly as in the production sweep.
    const auto kernel = KernelRegistry::instance().shared(GetParam());
    std::uint64_t m_lo = 0, m_hi = 0;
    kernel->defaultSweepRange(m_lo, m_hi);
    const std::uint64_t n = kernel->regimeProblemSize(
        kernel->suggestProblemSize(m_lo), m_lo);
    const std::vector<std::uint64_t> set_counts{1, 3, 8, 32};
    MultiSetReuseAnalyzer simd(set_counts, 8, AnalyzerPath::Simd);
    MultiSetReuseAnalyzer scalar(set_counts, 8, AnalyzerPath::Scalar);
    kernel->emitTrace(n, m_lo, simd);
    kernel->emitTrace(n, m_lo, scalar);
    for (std::size_t p = 0; p < set_counts.size(); ++p) {
        SCOPED_TRACE("sets " + std::to_string(set_counts[p]));
        const auto s = simd.waysCurve(p);
        const auto o = scalar.waysCurve(p);
        for (std::uint64_t w = 1; w <= 11; ++w) {
            EXPECT_EQ(s.missesAt(w), o.missesAt(w)) << "ways " << w;
            EXPECT_EQ(s.writebacksAt(w), o.writebacksAt(w))
                << "ways " << w;
        }
    }
}

KB_INSTANTIATE_PER_KERNEL(MultiSetSimdDiff);

TEST(MultiSetSimdDiff, MatchesScalarOnAdversarialShapes)
{
    auto streams = adversarialStreams();
    for (std::uint64_t seed = 41; seed <= 46; ++seed)
        streams.push_back(
            {"random_" + std::to_string(seed), randomStream(seed)});
    // Mid-trace escape from the u32 compressed-row address range:
    // warm small addresses first, then a run past 2^32 forces the
    // one-time demotion to stamp rows, then more small-address reuse
    // checks the demoted state carried every stamp and window over.
    {
        // `kb::Run` qualified: inside a TEST body the unqualified
        // name collides with testing::Test::Run.
        std::vector<kb::Run> runs;
        for (std::uint64_t i = 0; i < 40; ++i)
            runs.push_back({i * 16, 24,
                            i % 3 == 0 ? AccessType::Write
                                       : AccessType::Read});
        runs.push_back({(1ull << 32) - 20, 64, AccessType::Write});
        for (std::uint64_t i = 0; i < 40; ++i)
            runs.push_back({i * 16, 24,
                            i % 5 == 0 ? AccessType::Write
                                       : AccessType::Read});
        streams.push_back({"u32_range_demotion", std::move(runs)});
    }

    // Compressed rows of every width class (1..3, 5, 7 leave lanes
    // unused, 8 fills the line), rows wider than 8 ways that take the
    // scalar run from a Simd analyzer (9, 16), and a set count of 1
    // (every access in one row, maximum victim-tie pressure).
    const std::vector<std::uint64_t> ways_grid{1, 2, 3, 5, 7, 8, 9, 16};
    for (const auto &[label, runs] : streams) {
        SCOPED_TRACE(label);
        for (const auto ways : ways_grid) {
            SCOPED_TRACE("max_ways " + std::to_string(ways));
            expectSimdMatchesScalar(runs, {1, 2, 7, 16}, ways);
        }
    }
}

void
expectOptStreamingMatchesBuffered(const std::vector<Access> &trace,
                                  std::vector<std::uint64_t> caps,
                                  OptStreamOptions options,
                                  OptStreamStats *stats = nullptr)
{
    const auto buffered = simulateOptCurve(trace, caps);
    const auto streamed = simulateOptCurveStreaming(
        [&](TraceSink &sink) {
            for (const auto &a : trace)
                sink.onAccess(a);
        },
        caps, options, stats);
    ASSERT_EQ(streamed.capacities(), buffered.capacities());
    EXPECT_EQ(streamed.accesses(), buffered.accesses());
    for (const auto cap : buffered.capacities()) {
        EXPECT_EQ(streamed.missesAt(cap), buffered.missesAt(cap))
            << "capacity " << cap;
        EXPECT_EQ(streamed.writebacksAt(cap),
                  buffered.writebacksAt(cap))
            << "capacity " << cap;
    }
}

class StreamingOptDiff : public ::testing::TestWithParam<std::string>
{
};

TEST_P(StreamingOptDiff, MatchesBufferedOnKernel)
{
    // Tiny chunks force many boundary crossings; a tiny spill budget
    // forces the disk path on every kernel-sized trace.
    OptStreamOptions options;
    options.chunk_positions = 1024;
    options.spill_threshold_bytes = 1 << 14;

    std::uint64_t schedule_m = 0;
    const auto trace = kernelTrace(GetParam(), schedule_m);
    expectOptStreamingMatchesBuffered(
        trace, {1, 3, schedule_m / 2 + 1, schedule_m, 4 * schedule_m},
        options);
}

KB_INSTANTIATE_PER_KERNEL(StreamingOptDiff);

TEST(StreamingOptDiff, MatchesBufferedOnAdversarialAndRandomRuns)
{
    OptStreamOptions options;
    options.chunk_positions = 256;
    options.spill_threshold_bytes = 1 << 12;

    auto streams = adversarialStreams();
    for (std::uint64_t seed = 31; seed <= 36; ++seed)
        streams.push_back(
            {"random_" + std::to_string(seed), randomStream(seed)});
    for (const auto &[label, runs] : streams) {
        SCOPED_TRACE(label);
        expectOptStreamingMatchesBuffered(expand(runs),
                                          {1, 2, 5, 16, 300}, options);
    }
}

/** The acceptance bound: peak resident analyzer memory must not grow
 *  with trace length — 8x the trace, same high-water mark. */
TEST(StreamingOptDiff, PeakResidentMemoryIndependentOfTraceLength)
{
    OptStreamOptions options;
    options.chunk_positions = 256;
    options.spill_threshold_bytes = 1 << 12;

    // Cyclic sweep over a fixed footprint: every lap past the first
    // is all warm accesses, so records accumulate at full rate.
    const auto cyclicTrace = [](std::uint64_t laps) {
        std::vector<Access> trace;
        for (std::uint64_t lap = 0; lap < laps; ++lap)
            for (std::uint64_t a = 0; a < 600; ++a)
                trace.push_back(a % 7 == 0 ? writeOf(a) : readOf(a));
        return trace;
    };

    OptStreamStats short_stats, long_stats;
    expectOptStreamingMatchesBuffered(cyclicTrace(8), {4, 64, 512},
                                      options, &short_stats);
    expectOptStreamingMatchesBuffered(cyclicTrace(64), {4, 64, 512},
                                      options, &long_stats);

    EXPECT_EQ(long_stats.positions, 8 * short_stats.positions);
    EXPECT_GT(long_stats.spilled_bytes, short_stats.spilled_bytes);
    // The bound itself: closed chunks plus patch records never pass
    // the spill budget by more than one record, and the resident
    // total adds one open chunk at 12 bytes per position (u64 next
    // use + u32 word id) — for the 8x trace just as for the 1x.
    const std::uint64_t record = 12;
    const std::uint64_t bound = options.spill_threshold_bytes + record +
                                options.chunk_positions * 12;
    EXPECT_LE(short_stats.peak_resident_bytes, bound);
    EXPECT_LE(long_stats.peak_resident_bytes, bound);
    EXPECT_EQ(long_stats.peak_resident_bytes,
              short_stats.peak_resident_bytes)
        << "peak resident bytes must not grow with trace length";
}

/** Later accesses reuse words whose previous positions sit in chunks
 *  that are already on disk, so their next uses travel as patch
 *  records: a cyclic scan over about three chunks of words with a
 *  budget below one chunk spills every chunk as it closes. */
TEST(StreamingOptDiff, NextUsesIntoSpilledChunksArePatched)
{
    OptStreamOptions options;
    options.chunk_positions = 256;
    options.spill_threshold_bytes = 2048; // one chunk is 3072 bytes

    std::vector<Access> trace;
    for (std::uint64_t lap = 0; lap < 6; ++lap)
        for (std::uint64_t a = 0; a < 770; ++a)
            trace.push_back(a % 3 == 0 ? writeOf(a) : readOf(a));

    const std::vector<std::uint64_t> caps{1, 64, 300, 769, 770, 1000};
    OptStreamStats stats;
    expectOptStreamingMatchesBuffered(trace, caps, options, &stats);
    EXPECT_GT(stats.spilled_bytes, 0u);

    const auto streamed = simulateOptCurveStreaming(
        [&](TraceSink &sink) {
            for (const auto &a : trace)
                sink.onAccess(a);
        },
        caps, options);
    for (const auto cap : caps) {
        const auto direct = simulateOpt(trace, cap).stats;
        EXPECT_EQ(streamed.missesAt(cap), direct.misses)
            << "capacity " << cap;
        EXPECT_EQ(streamed.writebacksAt(cap), direct.writebacks)
            << "capacity " << cap;
    }
}

/** A trace shorter than one chunk materializes a trace-sized array,
 *  not a full chunk: the engine's per-point OPT cells run the
 *  recorder on traces far below the default 4Mi-position chunk. */
TEST(StreamingOptDiff, ChunkArraySizedToShortTrace)
{
    OptStreamOptions options; // default chunk_positions
    std::vector<Access> trace;
    for (std::uint64_t lap = 0; lap < 5; ++lap)
        for (std::uint64_t a = 0; a < 40; ++a)
            trace.push_back(a % 5 == 0 ? writeOf(a) : readOf(a));

    OptStreamStats stats;
    expectOptStreamingMatchesBuffered(trace, {3, 16, 64}, options,
                                      &stats);
    EXPECT_EQ(stats.positions, trace.size());
    EXPECT_LT(stats.positions, options.chunk_positions);
    EXPECT_LE(stats.peak_resident_bytes,
              stats.peak_pending_bytes + stats.positions * 12);

    // The longest chunk the u32 offset allows: the open chunk reserves
    // at most a default-sized chunk, so a short trace still fits.
    options.chunk_positions = 1ull << 32;
    expectOptStreamingMatchesBuffered(trace, {3, 16, 64}, options);
}

/** A re-emission longer than the recorded trace is fatal at the end
 *  of the recorded positions instead of reading past the last chunk
 *  array. */
TEST(StreamingOptDiffDeathTest, LongerSecondEmissionIsFatal)
{
    const auto emitLaps = [](TraceSink &sink, std::uint64_t laps) {
        for (std::uint64_t lap = 0; lap < laps; ++lap)
            for (std::uint64_t a = 0; a < 10; ++a)
                sink.onAccess(readOf(a));
    };
    EXPECT_EXIT(
        {
            OptStreamOptions options;
            options.chunk_positions = 16;
            OptNextUseRecorder recorder(options);
            emitLaps(recorder, 3);
            recorder.finish(
                [&](TraceSink &sink) { emitLaps(sink, 4); }, {4});
        },
        ::testing::ExitedWithCode(1), "did not replay");
}

void
expectSameReuse(const ReuseDistanceAnalyzer &a,
                const ReuseDistanceAnalyzer &b)
{
    EXPECT_EQ(a.accesses(), b.accesses());
    EXPECT_EQ(a.coldMisses(), b.coldMisses());
    EXPECT_EQ(a.coldWritebacks(), b.coldWritebacks());
    EXPECT_EQ(a.distinctWords(), b.distinctWords());
    EXPECT_EQ(a.histogram(), b.histogram());
    EXPECT_EQ(a.writeHistogram(), b.writeHistogram());
}

/** Both Mattson curves of two analyzer pairs agree bit for bit. */
void
expectSameCurves(const ReuseDistanceAnalyzer &piped_fully,
                 const MultiSetReuseAnalyzer &piped_multi,
                 const ReuseDistanceAnalyzer &fully,
                 const MultiSetReuseAnalyzer &multi,
                 std::uint64_t max_ways)
{
    expectSameReuse(piped_fully, fully);
    const auto piped_lru = piped_fully.missCurve();
    const auto direct_lru = fully.missCurve();
    for (const std::uint64_t m : {1u, 2u, 7u, 64u, 1000u}) {
        EXPECT_EQ(piped_lru.missesAt(m), direct_lru.missesAt(m))
            << "capacity " << m;
        EXPECT_EQ(piped_lru.writebacksAt(m), direct_lru.writebacksAt(m))
            << "capacity " << m;
    }
    ASSERT_EQ(piped_multi.planeCount(), multi.planeCount());
    for (std::size_t p = 0; p < multi.planeCount(); ++p) {
        SCOPED_TRACE("sets " + std::to_string(multi.setsAt(p)));
        const auto f = piped_multi.waysCurve(p);
        const auto s = multi.waysCurve(p);
        for (std::uint64_t w = 1; w <= max_ways + 3; ++w) {
            EXPECT_EQ(f.missesAt(w), s.missesAt(w)) << "ways " << w;
            EXPECT_EQ(f.writebacksAt(w), s.writebacksAt(w))
                << "ways " << w;
        }
    }
}

/**
 * The pipeline contract the engine's fast path relies on: a
 * MultiSetReuseAnalyzer and a ReuseDistanceAnalyzer attached as two
 * consumers of one chunked emission must each build exactly what the
 * same analyzer builds when fed directly. Single words go through
 * onAccess and longer runs through onRun so both pipeline op kinds
 * cross every chunk-boundary phase.
 */
void
expectPipelineMatchesDirect(const std::vector<Run> &runs,
                            const std::vector<std::uint64_t> &set_counts,
                            std::uint64_t max_ways, AnalyzerPath path,
                            std::uint64_t chunk_ops)
{
    ReuseDistanceAnalyzer fully(path);
    MultiSetReuseAnalyzer multi(set_counts, max_ways, path);
    std::uint64_t total_words = 0;
    for (const auto &r : runs) {
        fully.onRun(r.base, r.words, r.type);
        multi.onRun(r.base, r.words, r.type);
        total_words += r.words;
    }

    ReuseDistanceAnalyzer piped_fully(path);
    MultiSetReuseAnalyzer piped_multi(set_counts, max_ways, path);
    AnalysisPipeline pipeline(chunk_ops);
    pipeline.attach(piped_multi);
    pipeline.attach(piped_fully);
    for (const auto &r : runs) {
        if (r.words == 1)
            pipeline.onAccess(Access{r.base, r.type});
        else
            pipeline.onRun(r.base, r.words, r.type);
    }
    pipeline.flush();
    ASSERT_EQ(pipeline.wordsDelivered(), total_words);
    expectSameCurves(piped_fully, piped_multi, fully, multi, max_ways);
}

class PipelineConsumersDiff
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PipelineConsumersDiff, MatchesDirectFeedingOnKernel)
{
    // Real emissions, production shape: the kernel emits once into
    // the pipeline exactly as the engine's per-point cells drive it,
    // and the references each get their own direct emission.
    const auto kernel = KernelRegistry::instance().shared(GetParam());
    std::uint64_t m_lo = 0, m_hi = 0;
    kernel->defaultSweepRange(m_lo, m_hi);
    const std::uint64_t n = kernel->regimeProblemSize(
        kernel->suggestProblemSize(m_lo), m_lo);
    const std::vector<std::uint64_t> set_counts{1, 3, 8, 32};

    for (const auto path : {AnalyzerPath::Scalar, AnalyzerPath::Simd}) {
        SCOPED_TRACE(std::string("path ") + analyzerPathName(path));
        ReuseDistanceAnalyzer fully(path);
        MultiSetReuseAnalyzer multi(set_counts, 8, path);
        kernel->emitTrace(n, m_lo, fully);
        kernel->emitTrace(n, m_lo, multi);

        ReuseDistanceAnalyzer piped_fully(path);
        MultiSetReuseAnalyzer piped_multi(set_counts, 8, path);
        AnalysisPipeline pipeline;
        pipeline.attach(piped_multi);
        pipeline.attach(piped_fully);
        kernel->emitTrace(n, m_lo, pipeline);
        pipeline.flush();

        ASSERT_EQ(pipeline.wordsDelivered(), fully.accesses());
        EXPECT_GT(pipeline.chunksDelivered(), 0u);
        expectSameCurves(piped_fully, piped_multi, fully, multi, 8);
    }
}

KB_INSTANTIATE_PER_KERNEL(PipelineConsumersDiff);

TEST(PipelineConsumersDiff, MatchesDirectFeedingOnAdversarialAndRandomRuns)
{
    auto streams = adversarialStreams();
    for (std::uint64_t seed = 51; seed <= 56; ++seed)
        streams.push_back(
            {"random_" + std::to_string(seed), randomStream(seed)});
    for (const auto &[label, runs] : streams) {
        SCOPED_TRACE(label);
        for (const auto path :
             {AnalyzerPath::Scalar, AnalyzerPath::Simd}) {
            SCOPED_TRACE(std::string("path ") +
                         analyzerPathName(path));
            expectPipelineMatchesDirect(
                runs, {1, 2, 7, 16}, 8, path,
                AnalysisPipeline::kDefaultChunkOps);
        }
    }
}

TEST(PipelineConsumersDiff, ChunkBoundaryStress)
{
    // Chunk size 1 delivers after every op (maximum boundary
    // crossings), 7 lands boundaries on every op-index phase of the
    // run/word mixes, 4096 is the production default. All must be
    // invisible: each consumer sees the identical op sequence.
    auto streams = adversarialStreams();
    streams.push_back({"random_61", randomStream(61)});
    for (const auto &[label, runs] : streams) {
        SCOPED_TRACE(label);
        for (const std::uint64_t chunk_ops : {1u, 7u, 4096u}) {
            SCOPED_TRACE("chunk_ops " + std::to_string(chunk_ops));
            for (const auto path :
                 {AnalyzerPath::Scalar, AnalyzerPath::Simd}) {
                SCOPED_TRACE(std::string("path ") +
                             analyzerPathName(path));
                expectPipelineMatchesDirect(runs, {1, 4, 16}, 4, path,
                                            chunk_ops);
            }
        }
    }
}

/** The run-block index and block-scan rankInc against the scalar
 *  per-word loops: identical histograms on streams built to hit the
 *  index (exact repeats, shorter-prefix probes, longer-run misses,
 *  overwrites that extend a registered block). */
TEST(FullyAssocSimdDiff, RunBlockIndexMatchesScalar)
{
    auto streams = adversarialStreams();
    for (std::uint64_t seed = 71; seed <= 76; ++seed)
        streams.push_back(
            {"random_" + std::to_string(seed), randomStream(seed)});
    {
        // Block-index workout. `kb::Run` qualified: inside a TEST
        // body the unqualified name collides with testing::Test::Run.
        std::vector<kb::Run> runs;
        for (int rep = 0; rep < 4; ++rep) {
            runs.push_back({0, 64, AccessType::Read});   // register/hit
            runs.push_back({0, 32, AccessType::Write});  // prefix hit
            runs.push_back({0, 100, AccessType::Read});  // miss: longer
            runs.push_back({0, 100, AccessType::Read});  // now a hit
            runs.push_back({500, 1, AccessType::Read});  // too short
            runs.push_back({32, 32, AccessType::Read});  // offset base
        }
        streams.push_back({"run_block_workout", std::move(runs)});
    }

    for (const auto &[label, runs] : streams) {
        SCOPED_TRACE(label);
        ReuseDistanceAnalyzer simd(AnalyzerPath::Simd);
        ReuseDistanceAnalyzer scalar(AnalyzerPath::Scalar);
        for (const auto &r : runs) {
            simd.onRun(r.base, r.words, r.type);
            scalar.onRun(r.base, r.words, r.type);
        }
        expectSameReuse(simd, scalar);
        const auto s = simd.missCurve();
        const auto o = scalar.missCurve();
        for (const std::uint64_t m : {1u, 3u, 16u, 250u}) {
            EXPECT_EQ(s.missesAt(m), o.missesAt(m))
                << "capacity " << m;
            EXPECT_EQ(s.writebacksAt(m), o.writebacksAt(m))
                << "capacity " << m;
        }
    }
}

} // namespace
} // namespace kb
