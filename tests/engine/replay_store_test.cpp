/**
 * @file
 * Tests for the store-backed replay path — the tentpole property:
 * replayed per-point results (non-inclusion models, tile-headroom
 * jobs, plain per-point-schedule jobs) are keyed into the CurveStore
 * like curves, so a warm store serves a fresh process's *replay*
 * sweep with ZERO trace emissions and bit-identical results; mixed
 * fixed-schedule jobs (curves + replayed columns) go fully warm too;
 * and force_replay bypasses the store entirely so A/B "direct"
 * numbers stay honest.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/curve_store.hpp"
#include "engine/engine.hpp"
#include "kernels/registry.hpp"
#include "mem/opt_cache.hpp"
#include "trace/sink.hpp"

namespace fs = std::filesystem;

namespace kb {
namespace {

/** RAII reset of the process-wide store around every test. */
class ReplayStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto &store = CurveStore::instance();
        store.setDiskDirectory("");
        store.setTier1Capacity(64);
        store.clear();
    }

    void
    TearDown() override
    {
        auto &store = CurveStore::instance();
        if (!store.diskDirectory().empty())
            store.clearDisk();
        store.setDiskDirectory("");
        store.clear();
    }

    std::string
    scratchDir(const std::string &name)
    {
        const fs::path dir =
            fs::path(::testing::TempDir()) / ("kb_replay_" + name);
        fs::remove_all(dir);
        return dir.string();
    }

    static void
    expectSamePoints(const SweepResult &a, const SweepResult &b)
    {
        ASSERT_EQ(a.points.size(), b.points.size());
        for (std::size_t p = 0; p < a.points.size(); ++p) {
            EXPECT_EQ(a.points[p].sample.m, b.points[p].sample.m);
            EXPECT_EQ(a.points[p].model_io, b.points[p].model_io);
        }
    }
};

/** The acceptance property: a warm disk store serves a fresh
 *  process's replay-MODEL sweep (tile-headroom job: per-point
 *  schedules, no fast path possible) with zero trace emissions. */
TEST_F(ReplayStoreTest, WarmStoreServesHeadroomReplaySweepWithZeroEmissions)
{
    auto &store = CurveStore::instance();
    store.setDiskDirectory(scratchDir("headroom"));

    SweepJob job;
    job.kernel = "matmul";
    job.m_lo = 64;
    job.m_hi = 512;
    job.points = 4;
    job.n_hint = 96;
    job.models = {MemoryModelKind::SetAssocLru,
                  MemoryModelKind::SetAssocFifo,
                  MemoryModelKind::RandomRepl};
    job.schedule_headroom = 2;
    job.models_only = true;

    const ExperimentEngine engine(1);
    const std::uint64_t before = engineEmissionCount();
    const auto cold = engine.runOne(job);
    const std::uint64_t cold_emissions =
        engineEmissionCount() - before;
    EXPECT_GT(cold_emissions, 0u)
        << "the cold run must really replay";
    EXPECT_GT(store.stats().replay_stores, 0u);

    // Fresh process: tier 1 dies, tier 2 persists.
    store.clear();
    const auto warm = engine.runOne(job);
    EXPECT_EQ(engineEmissionCount() - before, cold_emissions)
        << "a warm store must serve a fresh process's replay-model "
           "sweep with zero trace emissions";
    EXPECT_GT(store.stats().replay_hits, 0u);
    EXPECT_GT(store.stats().disk_hits, 0u);
    expectSamePoints(cold, warm);
}

/** Plain per-point-schedule jobs (schedule follows capacity — the
 *  historical default) ride the replay store too. */
TEST_F(ReplayStoreTest, PerPointScheduleJobGoesWarmInMemory)
{
    SweepJob job;
    job.kernel = "fft";
    job.m_lo = 16;
    job.m_hi = 128;
    job.points = 4;
    job.models = {MemoryModelKind::Lru, MemoryModelKind::Opt};

    const ExperimentEngine engine(1);
    const std::uint64_t before = engineEmissionCount();
    const auto cold = engine.runOne(job);
    const std::uint64_t cold_emissions =
        engineEmissionCount() - before;
    EXPECT_GT(cold_emissions, 0u);

    const auto warm = engine.runOne(job);
    EXPECT_EQ(engineEmissionCount() - before, cold_emissions)
        << "repeating a per-point replay job must add zero emissions";
    expectSamePoints(cold, warm);
}

/** A fixed-schedule job mixing fast-path curves with replayed
 *  non-inclusion columns goes FULLY warm: previously the replayed
 *  columns forced a re-emission even with every curve cached. */
TEST_F(ReplayStoreTest, MixedFixedScheduleJobGoesFullyWarmFromDisk)
{
    auto &store = CurveStore::instance();
    store.setDiskDirectory(scratchDir("mixed"));

    SweepJob job;
    job.kernel = "matmul";
    job.m_lo = 48;
    job.m_hi = 512;
    job.points = 5;
    job.models = {MemoryModelKind::Lru, MemoryModelKind::SetAssocLru,
                  MemoryModelKind::SetAssocFifo,
                  MemoryModelKind::RandomRepl, MemoryModelKind::Opt};
    job.schedule_m = 256;
    job.models_only = true;

    const ExperimentEngine engine(1);
    const std::uint64_t before = engineEmissionCount();
    const auto cold = engine.runOne(job);
    // One emission per consumer (lru, 8way-lru, the fifo+random
    // replay, opt pass 1) + streaming OPT's second pass.
    EXPECT_EQ(engineEmissionCount() - before, 5u)
        << "the fast path emits the fixed-schedule trace once per "
           "consumer plus once for OPT pass 2";

    store.clear();
    const auto warm = engine.runOne(job);
    EXPECT_EQ(engineEmissionCount() - before, 5u)
        << "warm disk must serve curves AND replayed columns with "
           "zero further emissions";
    expectSamePoints(cold, warm);
}

/** Per-point OPT runs the streaming recorder over a one-capacity
 *  grid: every point's column must equal the buffered simulateOpt
 *  oracle on the trace that point replays, and a cold OPT cell costs
 *  exactly two emissions (the shared pass plus the recorder's second
 *  pass) while a warm one costs none. Covers the per-point schedule
 *  (schedule_m = 0) and a schedule_headroom job, each sharing its
 *  emission with a streaming model, with and without force_replay. */
TEST_F(ReplayStoreTest, PerPointOptMatchesBufferedOracleAtTwoEmissions)
{
    const auto kernel = KernelRegistry::instance().shared("matmul");

    SweepJob per_point;
    per_point.kernel = "matmul";
    per_point.m_lo = 32;
    per_point.m_hi = 256;
    per_point.points = 4;
    per_point.n_hint = 48;
    per_point.models = {MemoryModelKind::Lru, MemoryModelKind::Opt};
    per_point.models_only = true;

    SweepJob headroom = per_point;
    headroom.models = {MemoryModelKind::RandomRepl, MemoryModelKind::Opt};
    headroom.schedule_headroom = 2;

    const ExperimentEngine engine(1);
    for (const SweepJob &base : {per_point, headroom}) {
        for (const bool force : {false, true}) {
            SCOPED_TRACE(std::string(base.schedule_headroom
                                         ? "schedule_headroom"
                                         : "per-point schedule") +
                         (force ? ", force_replay" : ""));
            CurveStore::instance().clear();
            SweepJob job = base;
            job.force_replay = force;

            const std::uint64_t before = engineEmissionCount();
            const auto cold = engine.runOne(job);
            ASSERT_GE(cold.points.size(), 3u);
            EXPECT_EQ(engineEmissionCount() - before,
                      2 * cold.points.size())
                << "a cold OPT cell costs two emissions";

            for (const auto &point : cold.points) {
                const std::uint64_t m = point.sample.m;
                SCOPED_TRACE("m " + std::to_string(m));
                const std::uint64_t trace_m =
                    job.schedule_headroom
                        ? std::max(m / job.schedule_headroom,
                                   kernel->minMemory(cold.n_hint))
                        : m;
                VectorSink buffer;
                kernel->emitTrace(
                    kernel->regimeProblemSize(cold.n_hint, trace_m),
                    trace_m, buffer);
                EXPECT_EQ(point.model_io[1],
                          simulateOpt(buffer.trace(), m)
                              .stats.ioWords());
            }

            const std::uint64_t warm_before = engineEmissionCount();
            const auto warm = engine.runOne(job);
            EXPECT_EQ(engineEmissionCount() - warm_before,
                      force ? 2 * cold.points.size() : 0u)
                << (force ? "force_replay re-emits every cell"
                          : "a warm OPT cell costs no emission");
            expectSamePoints(cold, warm);
        }
    }
}

/** force_replay must bypass the store both ways: its results match,
 *  but it really replays (the A/B bench's honesty contract). */
TEST_F(ReplayStoreTest, ForceReplayBypassesTheStore)
{
    SweepJob job;
    job.kernel = "matmul";
    job.m_lo = 64;
    job.m_hi = 256;
    job.points = 3;
    job.n_hint = 96;
    job.models = {MemoryModelKind::SetAssocFifo};
    job.schedule_headroom = 2;
    job.models_only = true;

    const ExperimentEngine engine(1);
    const auto cached = engine.runOne(job); // populates the store
    const auto replay_stores =
        CurveStore::instance().stats().replay_stores;
    EXPECT_GT(replay_stores, 0u);

    SweepJob direct = job;
    direct.force_replay = true;
    const std::uint64_t before = engineEmissionCount();
    const auto forced = engine.runOne(direct);
    EXPECT_GT(engineEmissionCount() - before, 0u)
        << "force_replay must re-emit even with a hot store";
    EXPECT_EQ(CurveStore::instance().stats().replay_stores,
              replay_stores)
        << "force_replay must not write the store either";
    expectSamePoints(cached, forced);
}

/** The store API itself: replayed points accumulate per (trace,
 *  model) entry, round-trip through disk, and keep families with
 *  different configs apart. */
TEST_F(ReplayStoreTest, ReplayEntriesAccumulateAndRoundTrip)
{
    auto &store = CurveStore::instance();
    store.setDiskDirectory(scratchDir("api"));
    const TraceKey trace{"matmul", 96, 128};
    const ReplayModelKey fifo{2, 8};
    const ReplayModelKey random{3, 7};

    store.storeReplayIo(trace, fifo, 64, 111);
    store.storeReplayIo(trace, fifo, 128, 222);
    store.storeReplayIo(trace, random, 64, 333);

    // Fresh process: everything must come back off disk, per config.
    store.clear();
    auto io = store.findReplayIo(trace, fifo, 64);
    ASSERT_TRUE(io.has_value());
    EXPECT_EQ(*io, 111u);
    io = store.findReplayIo(trace, fifo, 128);
    ASSERT_TRUE(io.has_value());
    EXPECT_EQ(*io, 222u);
    io = store.findReplayIo(trace, random, 64);
    ASSERT_TRUE(io.has_value());
    EXPECT_EQ(*io, 333u);
    EXPECT_FALSE(store.findReplayIo(trace, random, 128).has_value());
    EXPECT_FALSE(store.findReplayIo(trace, fifo, 96).has_value());

    const auto stats = store.stats();
    EXPECT_EQ(stats.replay_hits, 3u);
    EXPECT_GT(stats.disk_hits, 0u);
}

} // namespace
} // namespace kb
