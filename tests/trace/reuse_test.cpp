/**
 * @file
 * Unit and property tests for exact reuse-distance analysis.
 *
 * The key property: the MissCurve produced in one pass must agree
 * with an actual LRU cache simulated at every capacity.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "mem/lru_cache.hpp"
#include "trace/reuse.hpp"
#include "util/rng.hpp"

namespace kb {
namespace {

TEST(ReuseDistance, ColdMissesOnly)
{
    ReuseDistanceAnalyzer rd;
    for (std::uint64_t a = 0; a < 5; ++a)
        rd.onAccess(readOf(a));
    EXPECT_EQ(rd.coldMisses(), 5u);
    EXPECT_EQ(rd.distinctWords(), 5u);
    const auto curve = rd.missCurve();
    EXPECT_EQ(curve.missesAt(1), 5u);
    EXPECT_EQ(curve.missesAt(100), 5u);
}

TEST(ReuseDistance, ImmediateReuseIsDistanceZero)
{
    ReuseDistanceAnalyzer rd;
    rd.onAccess(readOf(7));
    rd.onAccess(readOf(7));
    ASSERT_GE(rd.histogram().size(), 1u);
    EXPECT_EQ(rd.histogram()[0], 1u);
    // Capacity 1 suffices to hit the second access.
    EXPECT_EQ(rd.missCurve().missesAt(1), 1u);
}

TEST(ReuseDistance, KnownDistances)
{
    // a b c a : the second 'a' has reuse distance 2.
    ReuseDistanceAnalyzer rd;
    rd.onAccess(readOf(0));
    rd.onAccess(readOf(1));
    rd.onAccess(readOf(2));
    rd.onAccess(readOf(0));
    ASSERT_GE(rd.histogram().size(), 3u);
    EXPECT_EQ(rd.histogram()[2], 1u);
    const auto curve = rd.missCurve();
    EXPECT_EQ(curve.missesAt(2), 4u); // distance 2 misses at cap 2
    EXPECT_EQ(curve.missesAt(3), 3u); // hits at cap 3
}

TEST(ReuseDistance, FootprintIsWorkingSetBound)
{
    ReuseDistanceAnalyzer rd;
    for (int rep = 0; rep < 3; ++rep)
        for (std::uint64_t a = 0; a < 10; ++a)
            rd.onAccess(readOf(a));
    const auto curve = rd.missCurve();
    EXPECT_EQ(curve.footprint(), 10u);
    EXPECT_EQ(curve.missesAt(10), 10u); // only cold misses
    EXPECT_EQ(curve.missesAt(9), 30u);  // cyclic thrash: all miss
}

TEST(ReuseDistance, MissCurveIsMonotone)
{
    Xoshiro256 rng(11);
    ReuseDistanceAnalyzer rd;
    for (int i = 0; i < 5000; ++i)
        rd.onAccess(readOf(rng.below(200)));
    const auto curve = rd.missCurve();
    for (std::uint64_t cap = 1; cap < 250; ++cap)
        EXPECT_GE(curve.missesAt(cap), curve.missesAt(cap + 1));
}

/**
 * Cross-validation: the one-pass curve equals a real LRU simulation
 * at several capacities, over several random trace mixes.
 */
class ReuseVsLru
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>>
{
};

TEST_P(ReuseVsLru, CurveMatchesSimulatedLru)
{
    const auto [addr_space, seed] = GetParam();
    Xoshiro256 rng(static_cast<std::uint64_t>(seed));
    std::vector<Access> trace;
    for (int i = 0; i < 4000; ++i) {
        // Mix of uniform and strided accesses to vary the histogram.
        const std::uint64_t a = (i % 3 == 0)
                                    ? (i % addr_space)
                                    : rng.below(addr_space);
        trace.push_back(i % 5 == 0 ? writeOf(a) : readOf(a));
    }

    ReuseDistanceAnalyzer rd;
    for (const auto &a : trace)
        rd.onAccess(a);
    const auto curve = rd.missCurve();

    for (std::uint64_t cap : {1u, 2u, 3u, 7u, 16u, 61u, 128u, 1000u}) {
        LruCache lru(cap);
        for (const auto &a : trace)
            lru.access(a);
        EXPECT_EQ(curve.missesAt(cap), lru.stats().misses)
            << "capacity " << cap;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, ReuseVsLru,
    ::testing::Combine(::testing::Values<std::uint64_t>(8, 64, 300),
                       ::testing::Values(1, 2, 3)));

TEST(ReuseDistance, AccessesCounted)
{
    ReuseDistanceAnalyzer rd;
    for (int i = 0; i < 42; ++i)
        rd.onAccess(readOf(static_cast<std::uint64_t>(i % 7)));
    EXPECT_EQ(rd.accesses(), 42u);
    EXPECT_EQ(rd.missCurve().accesses(), 42u);
}

TEST(ReuseDistance, HitsComplementMisses)
{
    ReuseDistanceAnalyzer rd;
    for (int rep = 0; rep < 4; ++rep)
        for (std::uint64_t a = 0; a < 6; ++a)
            rd.onAccess(readOf(a));
    const auto curve = rd.missCurve();
    for (std::uint64_t cap : {1u, 3u, 6u, 10u})
        EXPECT_EQ(curve.hitsAt(cap) + curve.missesAt(cap),
                  curve.accesses());
    EXPECT_EQ(curve.hitsAt(6), 18u); // everything after the cold lap
}

TEST(ReuseDistance, FirstWriteIsDirtyAtEveryCapacity)
{
    // r1 w1: the word's only write begins its one dirty epoch; at any
    // capacity exactly one writeback crosses the boundary (eviction
    // or flush).
    ReuseDistanceAnalyzer rd;
    rd.onAccess(readOf(1));
    rd.onAccess(writeOf(1));
    EXPECT_EQ(rd.coldWritebacks(), 1u);
    const auto curve = rd.missCurve();
    for (std::uint64_t cap : {1u, 2u, 100u})
        EXPECT_EQ(curve.writebacksAt(cap), 1u);
}

TEST(ReuseDistance, RepeatedWriteSplitsEpochsBelowItsDirtyDistance)
{
    // w1 r2 w1: the second write's dirty distance is 1 (word 2 touched
    // between the writes). Capacity 1 evicts in between -> two dirty
    // epochs; capacity >= 2 keeps the word resident -> one.
    ReuseDistanceAnalyzer rd;
    rd.onAccess(writeOf(1));
    rd.onAccess(readOf(2));
    rd.onAccess(writeOf(1));
    const auto curve = rd.missCurve();
    EXPECT_EQ(curve.writebacksAt(1), 2u);
    EXPECT_EQ(curve.writebacksAt(2), 1u);
    EXPECT_EQ(curve.writebacksAt(100), 1u);
    EXPECT_EQ(curve.ioWords(2),
              curve.missesAt(2) + curve.writebacksAt(2));
}

TEST(ReuseDistance, OnRunIsBitIdenticalToPerAccessFeed)
{
    // Same access stream fed as runs vs word-at-a-time must produce
    // identical histograms — the bulk first-touch path is an
    // optimization, not an approximation.
    Xoshiro256 rng(77);
    struct Run
    {
        std::uint64_t base;
        std::uint64_t words;
        AccessType type;
    };
    std::vector<Run> runs;
    for (int i = 0; i < 200; ++i) {
        runs.push_back(Run{rng.below(2000), 1 + rng.below(100),
                           rng.below(3) == 0 ? AccessType::Write
                                             : AccessType::Read});
    }

    ReuseDistanceAnalyzer via_runs, via_words;
    for (const auto &r : runs) {
        via_runs.onRun(r.base, r.words, r.type);
        for (std::uint64_t i = 0; i < r.words; ++i)
            via_words.onAccess(Access{r.base + i, r.type});
    }

    EXPECT_EQ(via_runs.accesses(), via_words.accesses());
    EXPECT_EQ(via_runs.coldMisses(), via_words.coldMisses());
    EXPECT_EQ(via_runs.coldWritebacks(), via_words.coldWritebacks());
    EXPECT_EQ(via_runs.distinctWords(), via_words.distinctWords());
    EXPECT_EQ(via_runs.histogram(), via_words.histogram());
    EXPECT_EQ(via_runs.writeHistogram(), via_words.writeHistogram());
}

TEST(ReuseDistance, LargeColdRunsUseTheBulkPathCorrectly)
{
    // A fresh array streamed in (one big first-touch run), then
    // re-read: every distance in the second lap is footprint-1 ...
    // exercised through the bulk bitmap mark path.
    const std::uint64_t n = 100000;
    ReuseDistanceAnalyzer rd;
    rd.onRun(0, n, AccessType::Read);
    EXPECT_EQ(rd.coldMisses(), n);
    rd.onRun(0, n, AccessType::Read);
    const auto curve = rd.missCurve();
    EXPECT_EQ(curve.footprint(), n);
    EXPECT_EQ(curve.missesAt(n), n);      // second lap all hits
    EXPECT_EQ(curve.missesAt(n - 1), 2 * n); // one short: thrash
}

TEST(SetAssocReuse, LumpedCurveStoreRoundTripAgrees)
{
    // Regression: the set-assoc analyzer carries its lumped bucket
    // (distances >= max_ways) in the curve's *cold* term so queries
    // at and beyond max_ways saturate there. A store round-trip must
    // preserve exactly that semantics — encode/decode must not
    // reconstruct a curve that answers the lumped range differently.
    const std::uint64_t max_ways = 4;
    MultiSetReuseAnalyzer analyzer({2}, max_ways);
    Xoshiro256 rng(99);
    // Hammer a few sets with more distinct same-set words than
    // max_ways so the lumped bucket and every finite distance fill,
    // writes included (dirty epochs cross the lumped boundary too).
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t addr = rng.below(24);
        analyzer.onAccess(i % 3 == 0 ? writeOf(addr) : readOf(addr));
    }
    const auto curve = analyzer.waysCurve(0);

    ByteWriter writer;
    curve.encode(writer);
    ByteReader reader(writer.bytes());
    MissCurve decoded(std::vector<std::uint64_t>{}, 0, 0);
    ASSERT_TRUE(MissCurve::decode(reader, decoded));

    // Identical answers across the exact range, at max_ways, and
    // beyond it (the lumped saturation region).
    for (std::uint64_t w = 1; w <= max_ways + 8; ++w) {
        EXPECT_EQ(decoded.missesAt(w), curve.missesAt(w))
            << "ways " << w;
        EXPECT_EQ(decoded.writebacksAt(w), curve.writebacksAt(w))
            << "ways " << w;
        EXPECT_EQ(decoded.ioWords(w), curve.ioWords(w)) << "ways " << w;
    }
    EXPECT_EQ(decoded.accesses(), curve.accesses());
    // The lumped bucket must really be populated for this to test
    // anything, and saturation must hold past max_ways.
    EXPECT_GT(decoded.missesAt(max_ways + 8), 0u);
    EXPECT_EQ(decoded.missesAt(max_ways + 8),
              decoded.missesAt(max_ways + 1));
}

} // namespace
} // namespace kb
