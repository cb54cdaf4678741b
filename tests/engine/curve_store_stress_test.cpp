/**
 * @file
 * Concurrency tests for the CurveStore's lock-free tier-2 I/O:
 *
 *  * the global mutex is demonstrably NOT held across file
 *    read/write syscalls (a hook blocks inside the I/O path until
 *    another thread completes a tier-1 lookup — impossible if the
 *    store held its lock across the syscall);
 *  * many threads hammering one store (mixed finds and stores, all
 *    four entry kinds, tiny tier 1 to force disk traffic) never
 *    crash, deadlock, or serve a wrong value;
 *  * concurrent writers of one OPT / replay entry — including
 *    SEPARATE store instances sharing a directory, the multi-process
 *    case — never lose a merge: the flock'd read-merge-write unions
 *    every contribution (the PR-4 last-rename-wins race, fixed);
 *  * concurrent twin writers of one LRU entry, through the same
 *    flock'd path, write its file exactly once.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/curve_store.hpp"

namespace fs = std::filesystem;

namespace kb {
namespace {

std::string
scratchDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / ("kb_stress_" + name);
    fs::remove_all(dir);
    return dir.string();
}

TraceKey
key(std::uint64_t n)
{
    return TraceKey{"matmul", n, 512};
}

/** A tiny distinguishable curve: missesAt(0) answers @p tag + 1
 *  (the one cold miss plus a histogram of tag finite distances). */
std::shared_ptr<const MissCurve>
curveTagged(std::uint64_t tag)
{
    return std::make_shared<const MissCurve>(
        std::vector<std::uint64_t>{tag}, 1, tag + 1);
}

/**
 * One capacity point of a structurally consistent OPT curve: every
 * writer describes the SAME hypothetical trace (fixed access count),
 * and misses shrink as capacity grows, so any union of these points
 * passes OptCurve::decode's inclusion checks — exactly like real
 * per-trace curves, whose consistency is automatic.
 */
constexpr std::uint64_t kOptAccesses = 5000;

std::uint64_t
optMissesFor(std::uint64_t capacity)
{
    return kOptAccesses - 10 * capacity;
}

std::shared_ptr<const OptCurve>
optAt(std::uint64_t capacity)
{
    return std::make_shared<const OptCurve>(
        std::vector<std::uint64_t>{capacity},
        std::vector<std::uint64_t>{optMissesFor(capacity)},
        std::vector<std::uint64_t>{1}, kOptAccesses);
}

/**
 * The tentpole lock property: while one thread sits inside a tier-2
 * write syscall, another thread's tier-1 lookup (which needs the
 * global mutex) completes. If the store still held its global lock
 * across file I/O, the lookup would block until the hook's timeout
 * expired and the test would fail.
 */
TEST(CurveStoreConcurrency, GlobalMutexIsFreeDuringTierTwoIo)
{
    CurveStore store;
    store.setDiskDirectory(scratchDir("lockfree"));

    // Seed a tier-1-resident entry the probing thread can hit
    // without any disk I/O of its own. (Disk is detached so the seed
    // store itself takes no I/O path, then re-attached.)
    const std::string dir = store.diskDirectory();
    store.setDiskDirectory("");
    store.storeLru(key(1), curveTagged(1));
    store.setDiskDirectory(dir);

    std::mutex m;
    std::condition_variable cv;
    bool in_io = false, probed = false, hook_fired = false;

    store.setIoHookForTest([&] {
        std::unique_lock<std::mutex> lock(m);
        if (hook_fired)
            return; // only the first I/O needs to prove the property
        hook_fired = true;
        in_io = true;
        cv.notify_all();
        // Wait, mid-I/O, for the main thread's lookup to finish.
        cv.wait_for(lock, std::chrono::seconds(10),
                    [&] { return probed; });
        EXPECT_TRUE(probed)
            << "a tier-1 lookup could not complete while this thread "
               "was inside tier-2 I/O: the global mutex must still "
               "be held across the syscall";
    });

    std::thread writer(
        [&store] { store.storeLru(key(2), curveTagged(2)); });

    {
        std::unique_lock<std::mutex> lock(m);
        ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                                [&] { return in_io; }))
            << "tier-2 write never reached the I/O hook";
    }
    // The writer thread is parked inside the I/O path. This lookup
    // takes the global mutex; it must succeed immediately.
    EXPECT_NE(store.findLru(key(1)), nullptr);
    {
        std::lock_guard<std::mutex> lock(m);
        probed = true;
    }
    cv.notify_all();
    writer.join();
    store.setIoHookForTest(nullptr);
    EXPECT_TRUE(hook_fired);
    store.clearDisk();
}

/**
 * Many threads, one store, every entry kind, tier 1 squeezed so the
 * disk tier is constantly exercised. Every value read back must be
 * the deterministic function of its key.
 */
TEST(CurveStoreConcurrency, ConcurrentJobsHammerOneStoreCoherently)
{
    CurveStore store;
    store.setDiskDirectory(scratchDir("hammer"));
    store.setTier1Capacity(4); // force constant disk traffic

    constexpr int kThreads = 8;
    constexpr std::uint64_t kKeys = 12;
    constexpr int kRounds = 40;
    std::atomic<int> mismatches{0};

    const ReplayModelKey fifo{2, 8};
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            for (int r = 0; r < kRounds; ++r) {
                const std::uint64_t k =
                    (static_cast<std::uint64_t>(t) * 31 + r) % kKeys;
                switch ((t + r) % 4) {
                  case 0:
                    store.storeLru(key(k), curveTagged(k));
                    break;
                  case 1: {
                    const auto got = store.findLru(key(k));
                    if (got && got->missesAt(0) != k + 1)
                        ++mismatches;
                    break;
                  }
                  case 2:
                    store.storeReplayIo(key(k), fifo, 64 + k,
                                        1000 + k);
                    break;
                  default: {
                    const auto got =
                        store.findReplayIo(key(k), fifo, 64 + k);
                    if (got && *got != 1000 + k)
                        ++mismatches;
                    break;
                  }
                }
            }
        });
    }
    for (auto &th : pool)
        th.join();
    EXPECT_EQ(mismatches.load(), 0);

    // After the dust settles every key resolves with its own value.
    for (std::uint64_t k = 0; k < kKeys; ++k) {
        store.storeLru(key(k), curveTagged(k));
        store.storeReplayIo(key(k), fifo, 64 + k, 1000 + k);
    }
    for (std::uint64_t k = 0; k < kKeys; ++k) {
        const auto lru = store.findLru(key(k));
        ASSERT_NE(lru, nullptr) << "key " << k;
        EXPECT_EQ(lru->missesAt(0), k + 1);
        const auto io = store.findReplayIo(key(k), fifo, 64 + k);
        ASSERT_TRUE(io.has_value()) << "key " << k;
        EXPECT_EQ(*io, 1000 + k);
    }
    store.clearDisk();
}

/**
 * The fixed OPT writer race: concurrent read-merge-write of ONE disk
 * entry from several store instances (= several processes sharing a
 * cache directory) must union every contribution. Under PR-4's
 * last-rename-wins this reliably lost capacities; the flock guard
 * makes loss impossible, which a fresh store asserts by finding the
 * full union on disk.
 */
TEST(CurveStoreConcurrency, ConcurrentOptAndReplayMergesAreNeverLost)
{
    const std::string dir = scratchDir("merge");
    constexpr std::uint64_t kWriters = 6;
    const ReplayModelKey random_model{3, 7};

    {
        // One store instance per "process", each contributing one
        // distinct OPT capacity and one distinct replayed point to
        // the SAME entries, all concurrently.
        std::vector<std::unique_ptr<CurveStore>> stores;
        for (std::uint64_t w = 0; w < kWriters; ++w) {
            stores.push_back(std::make_unique<CurveStore>());
            stores.back()->setDiskDirectory(dir);
        }
        std::vector<std::thread> writers;
        for (std::uint64_t w = 0; w < kWriters; ++w) {
            writers.emplace_back([&, w] {
                stores[w]->storeOpt(key(9), optAt(100 + w));
                stores[w]->storeReplayIo(key(9), random_model,
                                         100 + w, 2000 + w);
            });
        }
        for (auto &th : writers)
            th.join();
    }

    // A brand-new store (fresh tier 1) must see the union of every
    // writer's contribution — no lost merges.
    CurveStore reader;
    reader.setDiskDirectory(dir);
    std::vector<std::uint64_t> all_caps;
    for (std::uint64_t w = 0; w < kWriters; ++w)
        all_caps.push_back(100 + w);
    const auto opt = reader.findOpt(key(9), all_caps);
    ASSERT_NE(opt, nullptr)
        << "a concurrent writer's OPT capacities were lost "
           "(read-merge-write race)";
    for (std::uint64_t w = 0; w < kWriters; ++w)
        EXPECT_EQ(opt->missesAt(100 + w), optMissesFor(100 + w));

    for (std::uint64_t w = 0; w < kWriters; ++w) {
        const auto io =
            reader.findReplayIo(key(9), random_model, 100 + w);
        ASSERT_TRUE(io.has_value())
            << "replayed point of writer " << w << " was lost";
        EXPECT_EQ(*io, 2000 + w);
    }
    reader.clearDisk();
}

/**
 * Twin writers of one LRU entry: several store instances (= several
 * processes) computed the same deterministic curve and publish it at
 * once. The flock'd read-merge-write lets exactly one of them write
 * the file; every later writer finds it there and covering.
 */
TEST(CurveStoreConcurrency, ConcurrentLruTwinsWriteTheEntryOnce)
{
    const std::string dir = scratchDir("lru_twins");
    constexpr int kWriters = 6;

    std::uint64_t disk_stores = 0;
    {
        std::vector<std::unique_ptr<CurveStore>> stores;
        for (int w = 0; w < kWriters; ++w) {
            stores.push_back(std::make_unique<CurveStore>());
            stores.back()->setDiskDirectory(dir);
        }
        std::atomic<int> ready{0};
        std::vector<std::thread> writers;
        for (int w = 0; w < kWriters; ++w) {
            writers.emplace_back([&, w] {
                // Release every writer at once to maximize overlap.
                ++ready;
                while (ready.load() < kWriters)
                    std::this_thread::yield();
                stores[w]->storeLru(key(5), curveTagged(5));
            });
        }
        for (auto &th : writers)
            th.join();
        for (const auto &store : stores)
            disk_stores += store->stats().disk_stores;
    }

    std::size_t entries = 0;
    for (const auto &de : fs::directory_iterator(dir))
        entries += de.path().extension() == ".kbc" ? 1 : 0;
    EXPECT_EQ(entries, 1u);
    EXPECT_EQ(disk_stores, 1u)
        << "a twin writer rewrote an LRU entry that was already there";

    CurveStore reader;
    reader.setDiskDirectory(dir);
    const auto got = reader.findLru(key(5));
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->missesAt(0), curveTagged(5)->missesAt(0));
    EXPECT_EQ(reader.stats().disk_hits, 1u);
    reader.clearDisk();
}

} // namespace
} // namespace kb
