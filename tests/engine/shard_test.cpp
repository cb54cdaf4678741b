/**
 * @file
 * Tests for process-level sharding: the contiguous cell-range
 * partition behind --shard, fragment round-tripping (doubles as raw
 * bit patterns), the shared fragment reader's accept-time checks, and
 * the central property — range fragments merged are bit-identical to
 * the unsharded engine run.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/curve_store.hpp"
#include "engine/shard.hpp"
#include "util/binio.hpp"

namespace fs = std::filesystem;

namespace kb {
namespace {

TEST(ShardSpecParse, AcceptsValidRejectsMalformed)
{
    ShardSpec spec;
    ASSERT_TRUE(parseShardSpec("0/2", spec));
    EXPECT_EQ(spec.index, 0u);
    EXPECT_EQ(spec.count, 2u);
    ASSERT_TRUE(parseShardSpec("11/12", spec));
    EXPECT_EQ(spec.index, 11u);

    for (const char *bad : {"", "/", "1/", "/2", "2/2", "3/2", "a/2",
                            "1/b", "1-2", "1/2/3", "-1/2"})
        EXPECT_FALSE(parseShardSpec(bad, spec)) << bad;
}

TEST(CellRangeParse, AcceptsValidRejectsMalformed)
{
    CellRange range;
    ASSERT_TRUE(parseCellRange("4-9", range));
    EXPECT_EQ(range.lo, 4u);
    EXPECT_EQ(range.hi, 9u);
    for (const char *bad : {"", "-", "4-", "-9", "9-4", "4-4", "a-9",
                            "4-b", "4/9", "4-9-12", "1234567890-1"})
        EXPECT_FALSE(parseCellRange(bad, range)) << bad;
}

TEST(ShardPartition, RangesTileTheGridInOrder)
{
    for (std::size_t total : {0u, 1u, 7u, 9u, 63u}) {
        for (std::size_t count : {1u, 2u, 3u, 5u, 8u}) {
            SCOPED_TRACE(std::to_string(count) + "-way split of " +
                         std::to_string(total) + " cells");
            std::vector<std::size_t> owners(total, 0);
            std::size_t next = 0, smallest = total, largest = 0;
            for (std::size_t i = 0; i < count; ++i) {
                const CellRange r = shardCellRange({i, count}, total);
                // Contiguous and in order: each range starts where
                // the previous one ended.
                EXPECT_EQ(r.lo, next);
                ASSERT_LE(r.lo, r.hi);
                next = r.hi;
                smallest = std::min(smallest, r.size());
                largest = std::max(largest, r.size());
                for (std::size_t c = r.lo; c < r.hi && c < total; ++c)
                    ++owners[c];
            }
            EXPECT_EQ(next, total);
            EXPECT_LE(largest - smallest, 1u);
            for (std::size_t c = 0; c < total; ++c)
                EXPECT_EQ(owners[c], 1u) << "cell " << c;
        }
    }
}

/** The test batch: one fast-path fixed-schedule job, one per-point
 *  job with a schedule sample — both paths must shard. */
std::vector<SweepJob>
testJobs()
{
    SweepJob fast;
    fast.kernel = "matmul";
    fast.m_lo = 48;
    fast.m_hi = 512;
    fast.points = 5;
    fast.models = {MemoryModelKind::Lru, MemoryModelKind::Opt,
                   MemoryModelKind::SetAssocFifo};
    fast.schedule_m = 256;
    fast.models_only = true;

    SweepJob replay;
    replay.kernel = "fft";
    replay.m_lo = 16;
    replay.m_hi = 128;
    replay.points = 4;
    replay.models = {MemoryModelKind::Lru};

    return {fast, replay};
}

void
expectBitIdentical(const std::vector<SweepResult> &a,
                   const std::vector<SweepResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
        ASSERT_EQ(a[j].points.size(), b[j].points.size());
        for (std::size_t p = 0; p < a[j].points.size(); ++p) {
            SCOPED_TRACE("job " + std::to_string(j) + " point " +
                         std::to_string(p));
            const auto &x = a[j].points[p];
            const auto &y = b[j].points[p];
            EXPECT_EQ(x.sample.m, y.sample.m);
            // Bit-identical doubles, not approximately equal: the
            // fragment codec ships raw IEEE-754 bit patterns.
            EXPECT_EQ(x.sample.ratio, y.sample.ratio);
            EXPECT_EQ(x.sample.comp_ops, y.sample.comp_ops);
            EXPECT_EQ(x.sample.io_words, y.sample.io_words);
            EXPECT_EQ(x.model_io, y.model_io);
        }
    }
}

/** Resolve @p jobs' grid without measuring anything. */
std::vector<SweepResult>
skeletonOf(const ExperimentEngine &engine,
           const std::vector<SweepJob> &jobs)
{
    return engine.run(jobs,
                      [](std::size_t, std::size_t) { return false; });
}

/**
 * Write every shard of an @p count-way split of @p jobs to a fragment
 * under @p dir, each from a cleared store as its own process would,
 * and check that checkFragmentFile() accepts it.
 */
std::vector<std::string>
writeShards(const ExperimentEngine &engine,
            const std::vector<SweepJob> &jobs, std::size_t count,
            const fs::path &dir)
{
    const auto skeleton = skeletonOf(engine, jobs);
    const std::string sig = toHex16(sweepSignature(skeleton));
    fs::create_directories(dir);
    std::vector<std::string> fragments;
    for (std::size_t i = 0; i < count; ++i) {
        const CellRange range =
            shardCellRange({i, count}, gridCellCount(skeleton));
        const std::string path =
            (dir / ("frag" + std::to_string(i) + ".kbshard")).string();
        CurveStore::instance().clear();
        writeCellRangeFragment(engine, jobs, skeleton, range, path);
        // An empty range's fragment has no rows; the check's row
        // count only applies to non-empty ones.
        const FragmentCheck check =
            checkFragmentFile(path, sig, range.size());
        EXPECT_TRUE(check.ok) << path << ": " << check.reason;
        fragments.push_back(path);
    }
    return fragments;
}

TEST(ShardMerge, ThreeRangesMergeBitIdenticalToUnshardedRun)
{
    CurveStore::instance().clear();
    const auto jobs = testJobs(); // 5 + 4 cells: ranges 0-3, 3-6, 6-9
    const ExperimentEngine engine(1);
    const auto reference = engine.run(jobs);

    // A range's pass skips the cells outside it: they carry only the
    // grid stamp (their capacity), no measurements.
    const auto skeleton = skeletonOf(engine, jobs);
    for (std::size_t i = 0; i < 3; ++i) {
        const CellRange range =
            shardCellRange({i, 3}, gridCellCount(skeleton));
        const auto in_range = cellRangeFilter(skeleton, range);
        CurveStore::instance().clear();
        const auto partial = engine.run(jobs, in_range);
        bool saw_skipped = false;
        for (std::size_t j = 0; j < partial.size(); ++j)
            for (std::size_t p = 0; p < partial[j].points.size(); ++p)
                if (!in_range(j, p)) {
                    const auto &cell = partial[j].points[p];
                    EXPECT_NE(cell.sample.m, 0u);
                    EXPECT_EQ(cell.sample.ratio, 0.0);
                    EXPECT_EQ(cell.sample.io_words, 0.0);
                    EXPECT_TRUE(cell.model_io.empty());
                    saw_skipped = true;
                }
        EXPECT_TRUE(saw_skipped);
    }

    const fs::path dir = fs::path(::testing::TempDir()) / "kb_shards3";
    const auto fragments = writeShards(engine, jobs, 3, dir);

    const std::uint64_t before = engineEmissionCount();
    auto merged = skeletonOf(engine, jobs);
    EXPECT_EQ(engineEmissionCount(), before)
        << "resolving the merge skeleton must not measure anything";
    mergeShardFragments(merged, fragments);
    expectBitIdentical(merged, reference);

    fs::remove_all(dir);
    CurveStore::instance().clear();
}

TEST(ShardMerge, EmptyRangesWriteValidFragmentsThatMerge)
{
    SweepJob job;
    job.kernel = "matmul";
    job.m_lo = 48;
    job.m_hi = 256;
    job.points = 3;
    const ExperimentEngine engine(1);
    CurveStore::instance().clear();
    const auto reference = engine.run({job});

    // 5 shards of 3 cells: shards 0 and 2 own nothing.
    ASSERT_EQ(shardCellRange({0, 5}, 3).size(), 0u);
    const fs::path dir = fs::path(::testing::TempDir()) / "kb_shards5";
    const auto fragments = writeShards(engine, {job}, 5, dir);
    auto merged = skeletonOf(engine, {job});
    mergeShardFragments(merged, fragments);
    expectBitIdentical(merged, reference);

    fs::remove_all(dir);
    CurveStore::instance().clear();
}

/** Contiguous ranges keep a job's points together, so a fixed-schedule
 *  job's single-pass trace is emitted only by the shards it touches. */
TEST(ShardMerge, ContiguousShardsEmitEachFixedScheduleTraceOnce)
{
    std::vector<SweepJob> jobs;
    for (const char *kernel : {"matmul", "fft"}) {
        SweepJob job;
        job.kernel = kernel;
        job.m_lo = 48;
        job.m_hi = 512;
        job.points = 4;
        job.models = {MemoryModelKind::Lru};
        job.schedule_m = 256;
        job.models_only = true;
        jobs.push_back(job);
    }
    const ExperimentEngine engine(1);
    const fs::path dir = fs::path(::testing::TempDir()) / "kb_shards_em";

    const std::uint64_t before = engineEmissionCount();
    writeShards(engine, jobs, 2, dir);
    EXPECT_EQ(engineEmissionCount() - before, 2u);


    fs::remove_all(dir);
    CurveStore::instance().clear();
}

TEST(FragmentCheck, MalformedHexDoubleIsRejected)
{
    SweepJob job;
    job.kernel = "matmul";
    job.m_lo = 48;
    job.m_hi = 256;
    job.points = 3;
    const ExperimentEngine engine(1);
    const auto skeleton = skeletonOf(engine, {job});
    const std::string sig = toHex16(sweepSignature(skeleton));

    const fs::path dir = fs::path(::testing::TempDir()) / "kb_badhex";
    fs::create_directories(dir);
    const std::string path = (dir / "bad.kbshard").string();
    {
        // A well-formed row except for its ratio, which is not a
        // 16-digit hex bit pattern.
        std::ofstream out(path);
        out << "kbshard 2\nsignature " << sig
            << "\nowner cells\njobs 1\n"
            << "point 0 0 48 3ff00000000000zz 0000000000000000 "
               "0000000000000000\nend\n";
    }
    const FragmentCheck check = checkFragmentFile(path, sig, 1);
    EXPECT_FALSE(check.ok);
    EXPECT_NE(check.reason.find("malformed row"), std::string::npos)
        << check.reason;
    fs::remove_all(dir);
}

TEST(ShardSignature, DependsOnGridNotOnShard)
{
    const ExperimentEngine engine(1);
    const auto jobs = testJobs();
    const auto skeleton = skeletonOf(engine, jobs);
    const std::size_t total = gridCellCount(skeleton);
    const auto a = engine.run(
        jobs, cellRangeFilter(skeleton, shardCellRange({0, 2}, total)));
    const auto b = engine.run(
        jobs, cellRangeFilter(skeleton, shardCellRange({1, 2}, total)));
    EXPECT_EQ(sweepSignature(a), sweepSignature(b));
    EXPECT_EQ(sweepSignature(a), sweepSignature(skeleton));

    auto other = jobs;
    other[0].points = 6;
    EXPECT_NE(sweepSignature(skeletonOf(engine, other)),
              sweepSignature(skeleton))
        << "a different grid must change the signature";
    CurveStore::instance().clear();
}

} // namespace
} // namespace kb
