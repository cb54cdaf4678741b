/**
 * @file
 * Equivalence tests for the stack-distance fast paths: the
 * single-pass curves must be bit-identical to direct replay — per
 * kernel, per capacity, for misses, writebacks (including the
 * end-of-trace flush) and ioWords — for fully associative LRU
 * (ReuseDistanceAnalyzer), set-associative LRU per set count
 * (MultiSetReuseAnalyzer), and Belady OPT at whole capacity sets
 * (simulateOptCurve); the engine's fast-path jobs must return
 * exactly what the forced direct-replay jobs return; and a repeated
 * fast-path job must come out of the CurveStore without re-emitting
 * its trace.
 */

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/sweep.hpp"
#include "engine/curve_store.hpp"
#include "engine/engine.hpp"
#include "kernels/registry.hpp"
#include "mem/lru_cache.hpp"
#include "mem/opt_cache.hpp"
#include "mem/set_assoc.hpp"
#include "trace/reuse.hpp"
#include "trace/sink.hpp"
#include "util/rng.hpp"

#include "per_kernel.hpp"

namespace kb {
namespace {

/** Direct replay reference: trace through LruCache(cap) + flush. */
MemoryStats
replayLru(const std::vector<Access> &trace, std::uint64_t cap)
{
    LruCache lru(cap);
    for (const auto &a : trace)
        lru.access(a);
    lru.flush();
    return lru.stats();
}

/** Direct replay reference: SetAssocCache(sets, ways, LRU) + flush. */
MemoryStats
replaySetAssoc(const std::vector<Access> &trace, std::uint64_t sets,
               std::uint64_t ways)
{
    SetAssocCache cache(sets, ways, ReplacementPolicy::LRU);
    for (const auto &a : trace)
        cache.access(a);
    cache.flush();
    return cache.stats();
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

/** Candidate capacities bracketing the interesting regions. */
std::vector<std::uint64_t>
capacityGrid(std::uint64_t schedule_m, std::uint64_t footprint)
{
    std::set<std::uint64_t> caps = {1,
                                    2,
                                    3,
                                    7,
                                    std::max<std::uint64_t>(
                                        schedule_m / 2, 1),
                                    schedule_m,
                                    2 * schedule_m,
                                    std::max<std::uint64_t>(footprint, 1),
                                    footprint + 9};
    return {caps.begin(), caps.end()};
}

TEST(PerKernelCoverage, ParameterListIsTheRegistry)
{
    EXPECT_EQ(kKernelNames, KernelRegistry::instance().names());
}

class KernelFastPath : public ::testing::TestWithParam<std::string>
{
};

/**
 * The tentpole property, per registered kernel: one analyzer pass
 * over the kernel's fixed-schedule trace reproduces direct LRU replay
 * at every capacity, bit for bit.
 */
TEST_P(KernelFastPath, LruCurveMatchesDirectReplay)
{
    const auto kernel = KernelRegistry::instance().shared(GetParam());
    std::uint64_t m_lo = 0, m_hi = 0;
    kernel->defaultSweepRange(m_lo, m_hi);
    const std::uint64_t schedule_m = m_lo; // small, fast traces
    const std::uint64_t n = kernel->regimeProblemSize(
        kernel->suggestProblemSize(schedule_m), schedule_m);

    VectorSink buffer;
    kernel->emitTrace(n, schedule_m, buffer);
    const auto &trace = buffer.trace();
    ASSERT_FALSE(trace.empty());

    ReuseDistanceAnalyzer analyzer;
    kernel->emitTrace(n, schedule_m, analyzer);
    const auto curve = analyzer.missCurve();
    EXPECT_EQ(curve.accesses(), trace.size());

    for (const auto cap : capacityGrid(schedule_m, curve.footprint())) {
        SCOPED_TRACE("capacity " + std::to_string(cap));
        const auto direct = replayLru(trace, cap);
        EXPECT_EQ(curve.missesAt(cap), direct.misses);
        EXPECT_EQ(curve.hitsAt(cap), direct.hits);
        EXPECT_EQ(curve.writebacksAt(cap), direct.writebacks);
        EXPECT_EQ(curve.ioWords(cap), direct.ioWords());
    }
}

/**
 * Tentpole property (set-associative): one per-set Mattson pass per
 * set count reproduces direct SetAssocCache LRU replay at every
 * associativity up to the analyzer bound — per kernel, bit for bit,
 * writebacks and flush included.
 */
TEST_P(KernelFastPath, SetAssocCurveMatchesDirectReplay)
{
    std::uint64_t schedule_m = 0;
    const auto trace = kernelTrace(GetParam(), schedule_m);
    ASSERT_FALSE(trace.empty());

    for (const std::uint64_t sets :
         {std::uint64_t{1}, std::uint64_t{3},
          std::max<std::uint64_t>(schedule_m / 8, 2)}) {
        SCOPED_TRACE("sets " + std::to_string(sets));
        MultiSetReuseAnalyzer analyzer({sets}, 8);
        for (const auto &a : trace)
            analyzer.onAccess(a);
        const auto curve = analyzer.waysCurve(0);
        EXPECT_EQ(analyzer.accesses(), trace.size());

        for (const std::uint64_t ways : {1, 2, 7, 8}) {
            SCOPED_TRACE("ways " + std::to_string(ways));
            const auto direct = replaySetAssoc(trace, sets, ways);
            EXPECT_EQ(curve.missesAt(ways), direct.misses);
            EXPECT_EQ(curve.hitsAt(ways), direct.hits);
            EXPECT_EQ(curve.writebacksAt(ways), direct.writebacks);
            EXPECT_EQ(curve.ioWords(ways), direct.ioWords());
        }
    }
}

/// OPT's capacities are checked round-robin in this many cases per
/// kernel, so ctest can spread them: the direct simulateOpt per
/// capacity is most of the cost (grid4d under ASan+UBSan on a 4-vCPU
/// x86-64 guest: 114 s of simulateOpt runs against 7 s for the one
/// curve).
constexpr std::size_t kOptSlices = 4;

/**
 * Tentpole property (OPT): one segmented Belady-stack walk over every
 * capacity reproduces simulateOpt at capacities slice, slice +
 * kOptSlices, ... of the grid — per kernel, bit for bit, writebacks
 * and flush included.
 */
void
expectOptCurveMatchesSimulateOpt(const std::string &name,
                                 std::size_t slice)
{
    std::uint64_t schedule_m = 0;
    const auto trace = kernelTrace(name, schedule_m);
    ASSERT_FALSE(trace.empty());

    const auto caps = capacityGrid(schedule_m, schedule_m);
    const auto curve = simulateOptCurve(trace, caps);
    EXPECT_EQ(curve.accesses(), trace.size());
    for (std::size_t i = slice; i < caps.size(); i += kOptSlices) {
        const auto cap = caps[i];
        SCOPED_TRACE("capacity " + std::to_string(cap));
        const auto direct = simulateOpt(trace, cap);
        EXPECT_EQ(curve.missesAt(cap), direct.stats.misses);
        EXPECT_EQ(curve.writebacksAt(cap), direct.stats.writebacks);
        EXPECT_EQ(curve.ioWords(cap), direct.stats.ioWords());
    }
}

TEST_P(KernelFastPath, OptCurveMatchesSimulateOpt)
{
    expectOptCurveMatchesSimulateOpt(GetParam(), 0);
}

TEST_P(KernelFastPath, OptCurveMatchesSimulateOptSlice1)
{
    expectOptCurveMatchesSimulateOpt(GetParam(), 1);
}

TEST_P(KernelFastPath, OptCurveMatchesSimulateOptSlice2)
{
    expectOptCurveMatchesSimulateOpt(GetParam(), 2);
}

TEST_P(KernelFastPath, OptCurveMatchesSimulateOptSlice3)
{
    expectOptCurveMatchesSimulateOpt(GetParam(), 3);
}

/**
 * Per-point 8-way LRU cells come off a one-plane stack analyzer; per
 * kernel, every cell of a per-point job and of a tile = M/2 job must
 * equal the direct SetAssocCache replay that force_replay runs — at
 * capacities that are not multiples of 8 and, where the kernel's
 * minimum memory allows, at a single set.
 */
TEST_P(KernelFastPath, PerPointSetAssocMatchesForcedReplay)
{
    const auto kernel = KernelRegistry::instance().shared(GetParam());
    SweepJob job;
    job.kernel = GetParam();
    job.models = {MemoryModelKind::SetAssocLru};
    job.models_only = true;
    // 5, 10, 21, 43 where the kernel allows 5 words.
    job.m_lo = std::max<std::uint64_t>(kernel->minMemory(0), 5);
    job.m_hi = 8 * job.m_lo + 3;
    job.points = 4;
    // The regime of a small capacity keeps grid4d's traces short.
    job.n_hint = kernel->suggestProblemSize(4 * job.m_lo);

    for (const std::uint64_t headroom : {0, 2}) {
        SCOPED_TRACE("schedule_headroom " + std::to_string(headroom));
        job.schedule_headroom = headroom;
        SweepJob oracle = job;
        oracle.force_replay = true;

        // A cold store, so every cell is computed, not served.
        CurveStore::instance().clear();
        const std::uint64_t before = engineEmissionCount();
        const auto fast = ExperimentEngine(1).runOne(job);
        EXPECT_EQ(engineEmissionCount() - before, fast.points.size());
        const auto direct = ExperimentEngine(1).runOne(oracle);

        ASSERT_EQ(fast.points.size(), direct.points.size());
        for (std::size_t p = 0; p < fast.points.size(); ++p) {
            SCOPED_TRACE("m " + std::to_string(fast.points[p].sample.m));
            EXPECT_EQ(fast.points[p].sample.m, direct.points[p].sample.m);
            EXPECT_EQ(fast.points[p].model_io, direct.points[p].model_io);
        }
    }
    CurveStore::instance().clear();
}

KB_INSTANTIATE_PER_KERNEL(KernelFastPath);

/**
 * Randomized property: on random read/write mixes (fed partly through
 * onRun so the bulk cold path is exercised), the one-pass curve
 * equals direct replay at every probed capacity.
 */
class FastPathRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(FastPathRandom, RandomTracesMatchDirectReplay)
{
    const auto seed = static_cast<std::uint64_t>(GetParam());
    Xoshiro256 rng(seed);
    const std::uint64_t addr_space = 64 + rng.below(512);

    std::vector<Access> trace;
    ReuseDistanceAnalyzer analyzer;
    for (int step = 0; step < 600; ++step) {
        if (rng.below(4) == 0) {
            // A contiguous run (sometimes entirely first-touch).
            const std::uint64_t base = rng.below(4 * addr_space);
            const std::uint64_t words = 1 + rng.below(64);
            const auto type = rng.below(3) == 0 ? AccessType::Write
                                                : AccessType::Read;
            for (std::uint64_t i = 0; i < words; ++i)
                trace.push_back(Access{base + i, type});
            analyzer.onRun(base, words, type);
        } else {
            const std::uint64_t a = rng.below(addr_space);
            const Access access =
                rng.below(3) == 0 ? writeOf(a) : readOf(a);
            trace.push_back(access);
            analyzer.onAccess(access);
        }
    }
    const auto curve = analyzer.missCurve();
    ASSERT_EQ(curve.accesses(), trace.size());

    for (std::uint64_t cap :
         {1u, 2u, 5u, 16u, 33u, 100u, 250u, 750u, 5000u}) {
        SCOPED_TRACE("capacity " + std::to_string(cap));
        const auto direct = replayLru(trace, cap);
        EXPECT_EQ(curve.missesAt(cap), direct.misses);
        EXPECT_EQ(curve.writebacksAt(cap), direct.writebacks);
        EXPECT_EQ(curve.ioWords(cap), direct.ioWords());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastPathRandom,
                         ::testing::Range(1, 9));

/** A random read/write trace with contiguous runs mixed in. */
std::vector<Access>
randomTrace(std::uint64_t seed, TraceSink &sink)
{
    Xoshiro256 rng(seed);
    const std::uint64_t addr_space = 64 + rng.below(512);
    std::vector<Access> trace;
    for (int step = 0; step < 600; ++step) {
        if (rng.below(4) == 0) {
            const std::uint64_t base = rng.below(4 * addr_space);
            const std::uint64_t words = 1 + rng.below(64);
            const auto type = rng.below(3) == 0 ? AccessType::Write
                                                : AccessType::Read;
            for (std::uint64_t i = 0; i < words; ++i)
                trace.push_back(Access{base + i, type});
            sink.onRun(base, words, type);
        } else {
            const std::uint64_t a = rng.below(addr_space);
            const Access access =
                rng.below(3) == 0 ? writeOf(a) : readOf(a);
            trace.push_back(access);
            sink.onAccess(access);
        }
    }
    return trace;
}

/** Randomized set-associative equivalence across set counts. */
TEST_P(FastPathRandom, SetAssocRandomTracesMatchDirectReplay)
{
    const auto seed = static_cast<std::uint64_t>(GetParam());
    for (const std::uint64_t sets :
         {std::uint64_t{1}, std::uint64_t{5}, std::uint64_t{32}}) {
        SCOPED_TRACE("sets " + std::to_string(sets));
        MultiSetReuseAnalyzer analyzer({sets}, 8);
        const auto trace = randomTrace(seed, analyzer);
        const auto curve = analyzer.waysCurve(0);
        ASSERT_EQ(analyzer.accesses(), trace.size());
        for (const std::uint64_t ways : {1, 3, 8}) {
            SCOPED_TRACE("ways " + std::to_string(ways));
            const auto direct = replaySetAssoc(trace, sets, ways);
            EXPECT_EQ(curve.missesAt(ways), direct.misses);
            EXPECT_EQ(curve.writebacksAt(ways), direct.writebacks);
            EXPECT_EQ(curve.ioWords(ways), direct.ioWords());
        }
    }
}

/** Randomized OPT equivalence at a mixed capacity set. */
TEST_P(FastPathRandom, OptRandomTracesMatchSimulateOpt)
{
    const auto seed = static_cast<std::uint64_t>(GetParam());
    NullSink null;
    const auto trace = randomTrace(seed, null);
    const std::vector<std::uint64_t> caps = {1,  2,   5,   16,  33,
                                             100, 250, 750, 5000};
    const auto curve = simulateOptCurve(trace, caps);
    ASSERT_EQ(curve.accesses(), trace.size());
    for (const auto cap : caps) {
        SCOPED_TRACE("capacity " + std::to_string(cap));
        const auto direct = simulateOpt(trace, cap);
        EXPECT_EQ(curve.missesAt(cap), direct.stats.misses);
        EXPECT_EQ(curve.writebacksAt(cap), direct.stats.writebacks);
        EXPECT_EQ(curve.ioWords(cap), direct.stats.ioWords());
    }
}

/**
 * Regression: flush()-time writeback accounting. A trace that ends
 * with dirty residents must count them in both paths.
 */
TEST(StackDistanceFastPath, FlushWritebacksMatchDirectReplay)
{
    // Three words written and never evicted at large capacity: only
    // the flush writes them back.
    std::vector<Access> trace = {writeOf(1), writeOf(2), writeOf(3),
                                 readOf(1),  readOf(2),  readOf(3)};
    ReuseDistanceAnalyzer analyzer;
    for (const auto &a : trace)
        analyzer.onAccess(a);
    const auto curve = analyzer.missCurve();

    for (std::uint64_t cap : {1u, 2u, 3u, 4u, 100u}) {
        SCOPED_TRACE("capacity " + std::to_string(cap));
        const auto direct = replayLru(trace, cap);
        EXPECT_EQ(curve.writebacksAt(cap), direct.writebacks);
        EXPECT_EQ(curve.ioWords(cap), direct.ioWords());
    }
    // At capacity >= 3 nothing is evicted: exactly 3 flush writebacks.
    EXPECT_EQ(curve.writebacksAt(100), 3u);
}

/** Engine level: fast path vs forced direct replay, bit-identical. */
TEST(EngineFastPath, JobResultsMatchForcedDirectReplay)
{
    SweepJob job;
    job.kernel = "matmul";
    job.m_lo = 48;
    job.m_hi = 512;
    job.points = 5;
    job.models = {MemoryModelKind::Lru, MemoryModelKind::SetAssocLru,
                  MemoryModelKind::SetAssocFifo,
                  MemoryModelKind::RandomRepl, MemoryModelKind::Opt};
    job.schedule_m = 512;

    SweepJob direct_job = job;
    direct_job.force_replay = true;

    const auto fast = ExperimentEngine(1).runOne(job);
    const auto direct = ExperimentEngine(1).runOne(direct_job);
    const auto fast_mt = ExperimentEngine(4).runOne(job);

    ASSERT_EQ(fast.points.size(), direct.points.size());
    for (std::size_t p = 0; p < fast.points.size(); ++p) {
        SCOPED_TRACE("point " + std::to_string(p));
        EXPECT_EQ(fast.points[p].sample.m, direct.points[p].sample.m);
        EXPECT_EQ(fast.points[p].sample.ratio,
                  direct.points[p].sample.ratio);
        // The whole model row, every discipline, bit for bit.
        EXPECT_EQ(fast.points[p].model_io, direct.points[p].model_io);
        EXPECT_EQ(fast.points[p].model_io,
                  fast_mt.points[p].model_io);
    }
}

/** FFT couples its regime size to M; a pinned schedule_m must pin the
 *  replayed computation too, so fast and direct still agree. */
TEST(EngineFastPath, CoupledRegimeKernelMatchesDirectReplay)
{
    SweepJob job;
    job.kernel = "fft";
    job.m_lo = 16;
    job.m_hi = 128;
    job.points = 4;
    job.models = {MemoryModelKind::Lru};
    job.schedule_m = 64;

    SweepJob direct_job = job;
    direct_job.force_replay = true;

    const auto fast = ExperimentEngine(1).runOne(job);
    const auto direct = ExperimentEngine(1).runOne(direct_job);
    ASSERT_EQ(fast.points.size(), direct.points.size());
    for (std::size_t p = 0; p < fast.points.size(); ++p)
        EXPECT_EQ(fast.points[p].model_io, direct.points[p].model_io);
}

TEST(EngineFastPath, ModelsOnlySkipsSamplesButKeepsGrid)
{
    SweepJob job;
    job.kernel = "matmul";
    job.m_lo = 64;
    job.m_hi = 512;
    job.points = 4;
    job.models = {MemoryModelKind::Lru};
    job.schedule_m = 512;

    SweepJob quick = job;
    quick.models_only = true;

    const auto full = ExperimentEngine(1).runOne(job);
    const auto io_only = ExperimentEngine(1).runOne(quick);
    ASSERT_EQ(full.points.size(), io_only.points.size());
    for (std::size_t p = 0; p < full.points.size(); ++p) {
        EXPECT_EQ(io_only.points[p].sample.m,
                  full.points[p].sample.m);
        EXPECT_EQ(io_only.points[p].sample.ratio, 0.0);
        EXPECT_EQ(io_only.points[p].model_io,
                  full.points[p].model_io);
    }
}

TEST(EngineFastPath, MeasureCioCurveIsMonotoneAndLruBacked)
{
    const auto result = measureCioCurve("matmul", 512, 64, 512, 5);
    const auto lru = modelColumn(result, MemoryModelKind::Lru);
    ASSERT_GE(result.points.size(), 3u);
    for (std::size_t p = 1; p < result.points.size(); ++p) {
        // Inclusion property: more memory never costs more I/O.
        EXPECT_LE(result.points[p].model_io[lru],
                  result.points[p - 1].model_io[lru]);
    }
}

/**
 * The cross-job CurveStore: a repeated fast-path job must return the
 * cached curves without emitting its trace again, and the results
 * must be bit-identical to the cold run.
 */
TEST(EngineCurveStore, RepeatedJobReusesCurvesWithoutReemission)
{
    CurveStore::instance().clear();

    SweepJob job;
    job.kernel = "matmul";
    job.m_lo = 48;
    job.m_hi = 512;
    job.points = 5;
    job.models = {MemoryModelKind::Lru, MemoryModelKind::SetAssocLru,
                  MemoryModelKind::Opt};
    job.schedule_m = 256;
    job.models_only = true;

    const ExperimentEngine engine(1);
    const std::uint64_t emissions_before = engineEmissionCount();
    const auto cold = engine.runOne(job);
    const std::uint64_t cold_emissions =
        engineEmissionCount() - emissions_before;
    // Four emissions: one per consumer (LRU, multi-set, OPT pass 1),
    // each on its own pool task, plus the streaming OPT walk's second
    // pass instead of an O(trace) buffer.
    EXPECT_EQ(cold_emissions, 4u)
        << "fast path should emit the job's trace once per consumer "
           "(lru, 8way-lru, opt pass 1) plus once for OPT pass 2";

    const auto warm = engine.runOne(job);
    EXPECT_EQ(engineEmissionCount() - emissions_before,
              cold_emissions)
        << "a repeated job must be served from the CurveStore "
           "without re-emitting";
    const auto stats = CurveStore::instance().stats();
    EXPECT_GT(stats.hits, 0u);

    ASSERT_EQ(cold.points.size(), warm.points.size());
    for (std::size_t p = 0; p < cold.points.size(); ++p) {
        EXPECT_EQ(cold.points[p].sample.m, warm.points[p].sample.m);
        EXPECT_EQ(cold.points[p].model_io, warm.points[p].model_io);
    }

    // Cached curves must also agree with a forced direct replay.
    SweepJob direct_job = job;
    direct_job.force_replay = true;
    const auto direct = engine.runOne(direct_job);
    for (std::size_t p = 0; p < warm.points.size(); ++p)
        EXPECT_EQ(warm.points[p].model_io, direct.points[p].model_io);

    CurveStore::instance().clear();
}

/** Alternating grids over the same trace must widen the cached OPT
 *  curve, not thrash it: the second round adds zero emissions. */
TEST(EngineCurveStore, AlternatingGridsMergeInsteadOfThrashing)
{
    CurveStore::instance().clear();

    SweepJob narrow;
    narrow.kernel = "matmul";
    narrow.m_lo = 48;
    narrow.m_hi = 256;
    narrow.points = 3;
    narrow.models = {MemoryModelKind::Opt};
    narrow.schedule_m = 256;
    narrow.models_only = true;

    SweepJob wide = narrow;
    wide.m_hi = 512;
    wide.points = 5;

    const ExperimentEngine engine(1);
    const auto narrow_cold = engine.runOne(narrow);
    const auto wide_cold = engine.runOne(wide);
    const std::uint64_t emissions = engineEmissionCount();

    const auto narrow_warm = engine.runOne(narrow);
    const auto wide_warm = engine.runOne(wide);
    EXPECT_EQ(engineEmissionCount(), emissions)
        << "both grids must be served from the merged cached curve";
    for (std::size_t p = 0; p < narrow_cold.points.size(); ++p)
        EXPECT_EQ(narrow_cold.points[p].model_io,
                  narrow_warm.points[p].model_io);
    for (std::size_t p = 0; p < wide_cold.points.size(); ++p)
        EXPECT_EQ(wide_cold.points[p].model_io,
                  wide_warm.points[p].model_io);

    CurveStore::instance().clear();
}

/** Queries beyond the analyzer's ways bound saturate at the lumped
 *  bucket instead of under-reporting misses. */
TEST(SetAssocFastPath, QueriesBeyondMaxWaysSaturate)
{
    MultiSetReuseAnalyzer analyzer({2}, 4);
    // One set sees 6 distinct words round-robin: at 4 ways every
    // revisit is lumped; a naive curve would report 0 misses at
    // W > 4 even though a 5-way set still misses.
    for (int round = 0; round < 3; ++round)
        for (std::uint64_t w = 0; w < 6; ++w)
            analyzer.onAccess(readOf(2 * w)); // all map to set 0
    const auto curve = analyzer.waysCurve(0);
    EXPECT_GT(curve.missesAt(4), 0u);
    EXPECT_GE(curve.missesAt(5), curve.missesAt(4))
        << "beyond the exact range the curve must not drop below "
           "the lumped bucket";
    EXPECT_EQ(curve.missesAt(5), curve.missesAt(4));
}

/** schedule_headroom: a per-point tile = M/2 job must match the
 *  hand-rolled replay it makes declarative (E12's shape). */
TEST(EngineScheduleHeadroom, MatchesHandRolledHalfTileReplay)
{
    SweepJob job;
    job.kernel = "matmul";
    job.m_lo = 64;
    job.m_hi = 512;
    job.points = 4;
    job.n_hint = 96;
    job.models = {MemoryModelKind::SetAssocLru};
    job.schedule_headroom = 2;
    job.models_only = true;

    const auto result = ExperimentEngine(1).runOne(job);
    const auto kernel = KernelRegistry::instance().shared("matmul");
    ASSERT_GE(result.points.size(), 3u);
    for (const auto &point : result.points) {
        const std::uint64_t m = point.sample.m;
        SCOPED_TRACE("m " + std::to_string(m));
        SetAssocCache cache(std::max<std::uint64_t>((m + 7) / 8, 1),
                            8, ReplacementPolicy::LRU);
        VectorSink buffer;
        kernel->emitTrace(96, m / 2, buffer);
        for (const auto &a : buffer.trace())
            cache.access(a);
        cache.flush();
        EXPECT_EQ(point.model_io[0], cache.stats().ioWords());
    }
}

} // namespace
} // namespace kb
