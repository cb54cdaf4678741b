/**
 * @file
 * Differential tests for the fully associative random-replacement
 * memory: RandomCache must match the one-set
 * SetAssocCache(1, M, Random, seed) it replaces access by access —
 * the hit/miss return and every MemoryStats counter — including
 * across a flush() that empties the memory mid-stream.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/registry.hpp"
#include "mem/random_cache.hpp"
#include "mem/set_assoc.hpp"
#include "trace/sink.hpp"
#include "util/rng.hpp"

namespace kb {
namespace {

/** One step of a differential stream: an access or a flush. */
struct Step
{
    std::uint64_t addr = 0;
    bool write = false;
    bool flush = false;
};

void
expectSameStats(const MemoryStats &a, const MemoryStats &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.writebacks, b.writebacks);
}

/** Replay @p steps through both models, comparing after every step. */
void
expectMatchesOneSetCache(const std::vector<Step> &steps,
                         std::uint64_t m, std::uint64_t seed)
{
    RandomCache fast(m, seed);
    SetAssocCache oracle(1, m, ReplacementPolicy::Random, seed);
    ASSERT_EQ(fast.capacity(), oracle.capacity());
    for (std::size_t i = 0; i < steps.size(); ++i) {
        const Step &s = steps[i];
        if (s.flush) {
            fast.flush();
            oracle.flush();
        } else {
            ASSERT_EQ(fast.access(s.addr, s.write),
                      oracle.access(s.addr, s.write))
                << "step " << i << " addr " << s.addr;
        }
        const MemoryStats &a = fast.stats();
        const MemoryStats &b = oracle.stats();
        ASSERT_TRUE(a.accesses == b.accesses && a.hits == b.hits &&
                    a.misses == b.misses &&
                    a.evictions == b.evictions &&
                    a.writebacks == b.writebacks)
            << "counters diverge at step " << i;
    }
    fast.flush();
    oracle.flush();
    expectSameStats(fast.stats(), oracle.stats());
}

void
sweep(std::vector<Step> &out, std::uint64_t base, std::uint64_t words,
      bool write = false)
{
    for (std::uint64_t a = 0; a < words; ++a)
        out.push_back(Step{base + a, write, false});
}

/** Cyclic laps over a footprint of @p footprint words, every third
 *  word a store. */
std::vector<Step>
cyclic(std::uint64_t footprint, std::uint64_t laps)
{
    std::vector<Step> steps;
    for (std::uint64_t lap = 0; lap < laps; ++lap)
        for (std::uint64_t a = 0; a < footprint; ++a)
            steps.push_back(Step{a, a % 3 == 0, false});
    return steps;
}

/** The adversarial streams, labelled, for capacity @p m. */
std::vector<std::pair<std::string, std::vector<Step>>>
streamsFor(std::uint64_t m)
{
    std::vector<std::pair<std::string, std::vector<Step>>> streams;

    std::vector<Step> cold;
    sweep(cold, 1000, 3 * m + 5, true);
    streams.push_back({"all_cold_sweep", cold});

    std::vector<Step> hammer;
    for (int i = 0; i < 200; ++i)
        hammer.push_back(Step{42, i % 2 == 0, false});
    streams.push_back({"single_word_hammer", hammer});

    streams.push_back({"cyclic_m", cyclic(m, 6)});
    streams.push_back({"cyclic_m_plus_1", cyclic(m + 1, 6)});
    streams.push_back({"cyclic_2m", cyclic(2 * m, 4)});

    // Runs longer than M: each one overflows the memory on its own,
    // and the second lap re-touches a run only partly resident.
    std::vector<Step> runs;
    for (int lap = 0; lap < 3; ++lap) {
        sweep(runs, 0, m + m / 2 + 1, lap == 1);
        sweep(runs, 5 * m, 2 * m + 3, false);
    }
    streams.push_back({"runs_longer_than_m", runs});

    // Read/write mix over a footprint a little above M.
    std::vector<Step> mix;
    Xoshiro256 rng(m + 3);
    for (std::uint64_t i = 0; i < 8 * m + 200; ++i)
        mix.push_back(Step{rng.below(m + m / 4 + 2),
                           rng.below(4) == 0, false});
    streams.push_back({"read_write_mix", mix});

    // Flush mid-stream: the fill counter restarts at slot 0, so the
    // refill after the flush must again take slots in index order
    // before any random victim is drawn.
    std::vector<Step> flushed = cyclic(m + 1, 3);
    flushed.push_back(Step{0, false, true});
    sweep(flushed, 0, m + 2, true);
    for (const Step &s : cyclic(2 * m, 2))
        flushed.push_back(s);
    flushed.push_back(Step{0, false, true});
    flushed.push_back(Step{0, false, true}); // flushing empty is a no-op
    sweep(flushed, 7, m, false);
    streams.push_back({"flush_mid_stream", flushed});

    return streams;
}

TEST(RandomCacheDiff, MatchesOneSetRandomCacheOnAdversarialStreams)
{
    for (const std::uint64_t m : {1u, 2u, 3u, 7u, 64u, 2048u}) {
        for (const std::uint64_t seed : {1u, 7u, 99u}) {
            for (const auto &[label, steps] : streamsFor(m)) {
                SCOPED_TRACE("M " + std::to_string(m) + " seed " +
                             std::to_string(seed) + " " + label);
                expectMatchesOneSetCache(steps, m, seed);
            }
        }
    }
}

TEST(RandomCacheDiff, MatchesOneSetRandomCacheOnMatmulTrace)
{
    const auto kernel = KernelRegistry::instance().shared("matmul");
    const std::uint64_t m = 64;
    VectorSink buffer;
    kernel->emitTrace(kernel->regimeProblemSize(24, m), m, buffer);
    ASSERT_GT(buffer.trace().size(), 0u);

    std::vector<Step> steps;
    steps.reserve(buffer.trace().size());
    for (const Access &a : buffer.trace())
        steps.push_back(Step{a.addr, a.isWrite(), false});
    for (const std::uint64_t cap : {7u, 64u, 100u}) {
        SCOPED_TRACE("M " + std::to_string(cap));
        expectMatchesOneSetCache(steps, cap, 7);
    }
}

TEST(RandomCache, EvictsOnlyOnceFull)
{
    RandomCache c(4, 7);
    for (std::uint64_t a = 0; a < 4; ++a)
        EXPECT_FALSE(c.access(a, a == 0));
    EXPECT_EQ(c.stats().evictions, 0u);
    for (std::uint64_t a = 0; a < 4; ++a)
        EXPECT_TRUE(c.access(a, false));
    EXPECT_FALSE(c.access(9, false));
    EXPECT_EQ(c.stats().evictions, 1u);
    EXPECT_EQ(c.capacity(), 4u);
    EXPECT_EQ(c.name(), "random");
}

} // namespace
} // namespace kb
