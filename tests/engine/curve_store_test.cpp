/**
 * @file
 * Tests for the two-tier CurveStore: tier-1 LRU eviction (hot
 * entries survive cold scans), the versioned on-disk tier (a fresh
 * "process" — tier 1 cleared — serves a fixed-schedule sweep with
 * zero trace emissions), and corrupt-store robustness (a bit-flipped,
 * truncated, or wrong-version entry is ignored and recomputed, never
 * crashes, never poisons results).
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/curve_store.hpp"
#include "engine/engine.hpp"
#include "util/binio.hpp"

namespace fs = std::filesystem;

namespace kb {
namespace {

/** RAII reset: every test leaves the process-wide store as it found
 *  it (tier 2 disabled, default tier-1 capacity, empty). */
class CurveStoreTest : public ::testing::Test
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
        store.setTier1Capacity(64);
        store.clear();
    }

    /** Per-test scratch directory for the disk tier. */
    std::string
    scratchDir(const std::string &name)
    {
        const fs::path dir =
            fs::path(::testing::TempDir()) / ("kb_store_" + name);
        fs::remove_all(dir);
        return dir.string();
    }

    static TraceKey
    key(std::uint64_t n)
    {
        return TraceKey{"matmul", n, 512};
    }

    /** A tiny distinguishable curve: missesAt(0) encodes @p tag. */
    static std::shared_ptr<const MissCurve>
    curveTagged(std::uint64_t tag)
    {
        return std::make_shared<const MissCurve>(
            std::vector<std::uint64_t>{tag}, 1, tag + 1);
    }
};

TEST_F(CurveStoreTest, Tier1EvictsLeastRecentlyUsedNotOldest)
{
    auto &store = CurveStore::instance();
    store.setTier1Capacity(4);

    // Insert the hot entry FIRST: under the old insertion-order FIFO
    // it would be the first victim; under LRU the touches below keep
    // it resident through the whole cold scan.
    store.storeLru(key(0), curveTagged(0));
    for (std::uint64_t i = 1; i <= 6; ++i) {
        ASSERT_NE(store.findLru(key(0)), nullptr)
            << "hot entry evicted after " << i - 1 << " cold inserts";
        store.storeLru(key(i), curveTagged(i));
    }

    const auto hot = store.findLru(key(0));
    ASSERT_NE(hot, nullptr);
    EXPECT_EQ(hot->missesAt(0), 1u); // tag 0: cold_ + suffix_[0]
    // The cold scan overflowed capacity: somebody was evicted, and it
    // was a cold entry, not the hot one.
    const auto stats = store.stats();
    EXPECT_GE(stats.tier1_evictions, 3u);
    EXPECT_EQ(store.findLru(key(1)), nullptr)
        << "the least recently used cold entry should have been "
           "evicted first";
}

TEST_F(CurveStoreTest, DiskTierRoundTripsAllThreeFamilies)
{
    auto &store = CurveStore::instance();
    store.setDiskDirectory(scratchDir("roundtrip"));

    const auto lru = std::make_shared<const MissCurve>(
        std::vector<std::uint64_t>{5, 3, 0, 2}, 7, 30,
        std::vector<std::uint64_t>{2, 1}, 4);
    const auto sa = std::make_shared<const MissCurve>(
        std::vector<std::uint64_t>{9, 1}, 2, 20);
    const auto opt = std::make_shared<const OptCurve>(
        std::vector<std::uint64_t>{8, 64, 512},
        std::vector<std::uint64_t>{30, 20, 10},
        std::vector<std::uint64_t>{6, 4, 2}, 40);
    store.storeLru(key(1), lru);
    store.storeSetAssoc(key(1), 16, 8, sa);
    store.storeOpt(key(1), opt);

    // "New process": tier 1 gone, disk warm.
    store.clear();
    const auto lru2 = store.findLru(key(1));
    ASSERT_NE(lru2, nullptr);
    for (std::uint64_t cap : {0u, 1u, 2u, 3u, 4u, 100u}) {
        EXPECT_EQ(lru2->missesAt(cap), lru->missesAt(cap));
        EXPECT_EQ(lru2->writebacksAt(cap), lru->writebacksAt(cap));
    }
    EXPECT_EQ(lru2->accesses(), lru->accesses());
    EXPECT_EQ(lru2->footprint(), lru->footprint());

    const auto sa2 = store.findSetAssoc(key(1), 16, 8);
    ASSERT_NE(sa2, nullptr);
    EXPECT_EQ(sa2->missesAt(8), sa->missesAt(8));
    EXPECT_EQ(store.findSetAssoc(key(1), 16, 9), nullptr)
        << "a disk entry exact to 8 ways must not satisfy a 9-way "
           "lookup";

    const auto opt2 = store.findOpt(key(1), {8, 512});
    ASSERT_NE(opt2, nullptr);
    EXPECT_EQ(opt2->missesAt(64), opt->missesAt(64));
    EXPECT_EQ(opt2->writebacksAt(8), opt->writebacksAt(8));

    const auto stats = store.stats();
    EXPECT_EQ(stats.disk_hits, 3u);
    EXPECT_EQ(stats.disk_rejects, 0u);
}

TEST_F(CurveStoreTest, WarmDiskServesFreshProcessWithZeroEmissions)
{
    auto &store = CurveStore::instance();
    store.setDiskDirectory(scratchDir("warm"));

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
    const std::uint64_t before = engineEmissionCount();
    const auto cold = engine.runOne(job);
    // Cold = one emission per consumer (lru, 8way-lru, opt pass 1)
    // + streaming OPT's second pass.
    EXPECT_EQ(engineEmissionCount() - before, 4u);

    // Second *invocation*: tier 1 dies with the process, tier 2
    // persists. Zero further emissions, bit-identical results.
    store.clear();
    const auto warm = engine.runOne(job);
    EXPECT_EQ(engineEmissionCount() - before, 4u)
        << "a warm disk store must serve a fresh process without "
           "re-emitting the trace";
    EXPECT_GT(store.stats().disk_hits, 0u);

    ASSERT_EQ(cold.points.size(), warm.points.size());
    for (std::size_t p = 0; p < cold.points.size(); ++p) {
        EXPECT_EQ(cold.points[p].sample.m, warm.points[p].sample.m);
        EXPECT_EQ(cold.points[p].model_io, warm.points[p].model_io);
    }
}

/** Every .kbc entry file in the store's directory. */
std::vector<fs::path>
entryFiles(const std::string &dir)
{
    std::vector<fs::path> files;
    for (const auto &de : fs::directory_iterator(dir))
        if (de.is_regular_file() && de.path().extension() == ".kbc")
            files.push_back(de.path());
    return files;
}

TEST_F(CurveStoreTest, CorruptEntriesAreIgnoredAndRecomputed)
{
    auto &store = CurveStore::instance();
    store.setDiskDirectory(scratchDir("corrupt"));

    SweepJob job;
    job.kernel = "matmul";
    job.m_lo = 48;
    job.m_hi = 512;
    job.points = 4;
    job.models = {MemoryModelKind::Lru, MemoryModelKind::Opt};
    job.schedule_m = 256;
    job.models_only = true;

    const ExperimentEngine engine(1);
    const auto reference = engine.runOne(job);
    const auto files = entryFiles(store.diskDirectory());
    ASSERT_FALSE(files.empty());

    // Bit-flip one payload byte in every stored entry.
    for (const auto &path : files) {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekg(0, std::ios::end);
        const auto size = static_cast<std::streamoff>(f.tellg());
        ASSERT_GT(size, 20);
        f.seekg(size / 2);
        const char byte = static_cast<char>(f.get() ^ 0x40);
        f.seekp(size / 2);
        f.write(&byte, 1);
    }

    store.clear(); // fresh process against the corrupted disk tier
    const std::uint64_t before = engineEmissionCount();
    const auto recomputed = engine.runOne(job);
    // Three fresh emissions: the LRU analyzer's, OPT pass 1's and
    // streaming OPT's second pass (the job carries an Opt column).
    EXPECT_EQ(engineEmissionCount() - before, 3u)
        << "corrupt entries must be recomputed from a fresh emission";
    EXPECT_GT(store.stats().disk_rejects, 0u);
    ASSERT_EQ(recomputed.points.size(), reference.points.size());
    for (std::size_t p = 0; p < reference.points.size(); ++p)
        EXPECT_EQ(recomputed.points[p].model_io,
                  reference.points[p].model_io)
            << "a checksum-failing entry must never poison results";

    // The recompute overwrote the corrupt files: a third process
    // reads them cleanly again.
    store.clear();
    const std::uint64_t after_rewrite = engineEmissionCount();
    const auto warm = engine.runOne(job);
    EXPECT_EQ(engineEmissionCount(), after_rewrite);
    for (std::size_t p = 0; p < reference.points.size(); ++p)
        EXPECT_EQ(warm.points[p].model_io,
                  reference.points[p].model_io);
}

TEST_F(CurveStoreTest, TruncatedAndWrongVersionEntriesAreRejected)
{
    auto &store = CurveStore::instance();
    store.setDiskDirectory(scratchDir("stale"));

    store.storeLru(key(3), curveTagged(9));
    auto files = entryFiles(store.diskDirectory());
    ASSERT_EQ(files.size(), 1u);
    const fs::path path = files.front();

    // Truncate to half: rejected, lookup misses, nothing crashes.
    std::vector<char> bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() / 2));
    }
    store.clear();
    EXPECT_EQ(store.findLru(key(3)), nullptr);
    EXPECT_GE(store.stats().disk_rejects, 1u);

    // Wrong format version with a *valid* checksum: still rejected.
    // (Bump the version field, then re-seal the trailing hash, so the
    // version check itself is what rejects the entry.)
    bytes[4] = static_cast<char>(bytes[4] + 1);
    const std::span<const std::uint8_t> body(
        reinterpret_cast<const std::uint8_t *>(bytes.data()),
        bytes.size() - 8);
    ByteWriter seal;
    seal.u64(fnv1a64(body));
    std::copy(seal.bytes().begin(), seal.bytes().end(),
              reinterpret_cast<std::uint8_t *>(bytes.data()) +
                  bytes.size() - 8);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    store.clear();
    EXPECT_EQ(store.findLru(key(3)), nullptr);
    EXPECT_GE(store.stats().disk_rejects, 1u);
}

TEST_F(CurveStoreTest, OptEntriesWidenAcrossInvocations)
{
    auto &store = CurveStore::instance();
    store.setDiskDirectory(scratchDir("optwiden"));

    // Invocation 1 contributes capacities {8, 64} to the shared dir.
    store.storeOpt(key(5), std::make_shared<const OptCurve>(
                               std::vector<std::uint64_t>{8, 64},
                               std::vector<std::uint64_t>{20, 10},
                               std::vector<std::uint64_t>{4, 2}, 30));
    // Invocation 2 (fresh tier 1) contributes {64, 512}: the store
    // must union with the disk entry, not overwrite it.
    store.clear();
    store.storeOpt(key(5), std::make_shared<const OptCurve>(
                               std::vector<std::uint64_t>{64, 512},
                               std::vector<std::uint64_t>{10, 5},
                               std::vector<std::uint64_t>{2, 1}, 30));
    // Invocation 3 queries capacities from both contributors.
    store.clear();
    const auto got = store.findOpt(key(5), {8, 64, 512});
    ASSERT_NE(got, nullptr)
        << "the disk entry must hold the union of both invocations";
    EXPECT_EQ(got->missesAt(8), 20u);
    EXPECT_EQ(got->missesAt(64), 10u);
    EXPECT_EQ(got->missesAt(512), 5u);
    EXPECT_EQ(got->writebacksAt(8), 4u);
    EXPECT_EQ(got->writebacksAt(512), 1u);
}

TEST_F(CurveStoreTest, DiskCapacityBoundEvictsOldestEntries)
{
    auto &store = CurveStore::instance();
    store.setDiskDirectory(scratchDir("bounded"));
    store.setDiskCapacityBytes(2048);

    // Each tagged curve is ~100 bytes on disk; far more than fits.
    for (std::uint64_t i = 0; i < 64; ++i)
        store.storeLru(key(100 + i), curveTagged(i));

    std::uint64_t total = 0;
    for (const auto &path : entryFiles(store.diskDirectory()))
        total += static_cast<std::uint64_t>(fs::file_size(path));
    EXPECT_LE(total, 2048u);
    EXPECT_GT(total, 0u) << "the bound must evict down to the cap, "
                            "not wipe the store";
    store.setDiskCapacityBytes(256ull << 20);
}

} // namespace
} // namespace kb
