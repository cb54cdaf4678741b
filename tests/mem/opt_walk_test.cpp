/**
 * @file
 * Differential tests aimed at the segmented Belady stack walk itself:
 * heap compaction under churn, the never-reused key order across the
 * whole 64-bit address space, warm-up before band 1 fills, and the
 * single-band grid. Every case checks simulateOptCurve and the
 * streaming walk (chunk sizes 1, 7 and 4096) against one simulateOpt
 * run per capacity.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mem/opt_cache.hpp"
#include "util/rng.hpp"

namespace kb {
namespace {

constexpr std::uint64_t kTopAddr = (1ull << 63) - 1;

void
expectMatches(const OptCurve &curve, const std::vector<Access> &trace,
              const std::vector<OptResult> &direct)
{
    ASSERT_EQ(curve.accesses(), trace.size());
    ASSERT_EQ(curve.capacities().size(), direct.size());
    for (const auto &d : direct) {
        SCOPED_TRACE("capacity " + std::to_string(d.capacity));
        EXPECT_EQ(curve.missesAt(d.capacity), d.stats.misses);
        EXPECT_EQ(curve.writebacksAt(d.capacity), d.stats.writebacks);
    }
}

/** Buffered and streaming curves vs per-capacity simulateOpt. */
void
expectWalkMatchesOracle(const std::vector<Access> &trace,
                        const std::vector<std::uint64_t> &caps)
{
    std::vector<OptResult> direct;
    for (const auto cap : caps)
        direct.push_back(simulateOpt(trace, cap));

    {
        SCOPED_TRACE("buffered");
        expectMatches(simulateOptCurve(trace, caps), trace, direct);
    }
    for (const std::uint64_t chunk : {1, 7, 4096}) {
        SCOPED_TRACE("streaming, chunk_positions " +
                     std::to_string(chunk));
        OptStreamOptions options;
        options.chunk_positions = chunk;
        const auto curve = simulateOptCurveStreaming(
            [&](TraceSink &sink) {
                for (const auto &a : trace)
                    sink.onAccess(a);
            },
            caps, options);
        expectMatches(curve, trace, direct);
    }
}

Access
mixed(Xoshiro256 &rng, std::uint64_t addr)
{
    return rng.below(5) == 0 ? writeOf(addr) : readOf(addr);
}

TEST(OptWalk, CompactionChurnMatchesOracle)
{
    // Laps over a cyclic set that alternates between 1000 words
    // (inside C_2 = 1200: band 2 never fills and takes a push per
    // miss) and 1500 words (the overflow is in play). Each word is
    // re-touched right away, a band-1 hit that pushes a refreshed
    // entry. Both band heaps pass 256 entries and 4x their live
    // counts, so compaction runs over and over mid-walk.
    Xoshiro256 rng(11);
    std::vector<Access> trace;
    for (int lap = 0; lap < 6; ++lap) {
        const std::uint64_t words = lap % 2 == 0 ? 1000 : 1500;
        for (std::uint64_t a = 0; a < words; ++a) {
            trace.push_back(mixed(rng, a));
            trace.push_back(mixed(rng, a));
            if (a >= 3 && rng.below(2) == 0)
                trace.push_back(mixed(rng, a - 3));
        }
    }
    expectWalkMatchesOracle(trace, {300, 1200});
}

TEST(OptWalk, NeverReusedWordsAcrossTheAddressSpace)
{
    // Words touched once (or a few times and then never again)
    // compete with a reused working set. They sit just below and
    // above 2^63 and up to 2^64 - 1, and arrive against address
    // order, so the walk's id tie-break among never-reused words
    // differs from simulateOpt's address tie-break: the counts must
    // not see the difference.
    Xoshiro256 rng(5);
    std::vector<Access> trace;
    std::uint64_t fresh = 0;
    for (int step = 0; step < 4000; ++step) {
        switch (rng.below(5)) {
        case 0:
            trace.push_back(mixed(rng, kTopAddr - rng.below(1 << 20)));
            break;
        case 1:
            trace.push_back(mixed(rng, ~std::uint64_t{0} - 2 * fresh));
            ++fresh;
            break;
        case 2:
            trace.push_back(mixed(rng, kTopAddr + 1 + rng.below(64)));
            break;
        default:
            trace.push_back(mixed(rng, rng.below(40)));
        }
    }
    trace.push_back(readOf(kTopAddr));
    trace.push_back(readOf(kTopAddr + 1));
    expectWalkMatchesOracle(trace, {1, 2, 4, 8, 16, 32, 64});
}

TEST(OptWalk, WarmUpBeforeBandOneFills)
{
    // The footprint grows one word at a time under re-touches of the
    // words seen so far, so every cache level spends a long stretch
    // not yet full (the landing-without-eviction path).
    Xoshiro256 rng(7);
    std::vector<Access> trace;
    for (std::uint64_t n = 1; n <= 700; ++n) {
        trace.push_back(mixed(rng, n - 1));
        for (int r = 0; r < 4; ++r)
            trace.push_back(mixed(rng, rng.below(n)));
    }
    expectWalkMatchesOracle(trace, {8, 64, 512});
}

TEST(OptWalk, SingleCapacityGrid)
{
    Xoshiro256 rng(13);
    std::vector<Access> trace;
    for (int step = 0; step < 3000; ++step)
        trace.push_back(mixed(rng, rng.below(200)));
    for (const std::uint64_t cap : {1, 37, 5000}) {
        SCOPED_TRACE("capacity " + std::to_string(cap));
        expectWalkMatchesOracle(trace, {cap});
    }
}

} // namespace
} // namespace kb
