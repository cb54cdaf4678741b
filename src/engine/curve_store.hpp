/**
 * @file
 * Two-tier store for single-pass curves AND replayed per-point
 * results.
 *
 * A fixed-schedule SweepJob's model columns are pure functions of
 * (kernel, traced problem size, schedule memory) — the trace they are
 * read from is deterministic, and the curves (fully associative LRU,
 * per-set-count set-associative LRU, OPT at a capacity set) summarize
 * it losslessly for their model family. The same purity holds for
 * *replayed* per-point results: a set-associative FIFO or
 * random-replacement replay — or any per-point replay of a
 * non-fixed-schedule job — is a function of (trace identity, model
 * family, model config, capacity). The store therefore keys both
 * kinds of artifact, so every curve-producing path in the engine —
 * fast path and replay path alike — adds zero trace emissions warm
 * (trace/model_curve.hpp holds the replay codec).
 *
 * Tier 1 is a process-wide in-memory map with LRU eviction (entries
 * are touched on every hit, so hot schedules survive long scans of
 * cold ones). Tier 2 is an optional versioned on-disk cache — enable
 * it with setDiskDirectory() or the KB_CURVE_CACHE_DIR environment
 * variable — so *separate* bench invocations (and shards of one
 * sweep grid split across processes) reuse each other's curves. A
 * tier-1 miss falls through to disk; a decoded entry is promoted back
 * into tier 1; every store writes both tiers.
 *
 * Locking: the global mutex guards ONLY the in-memory state (tier-1
 * map, LRU order, stats, configuration). All tier-2 file I/O —
 * reads, decodes, encodes, writes, the eviction scan — runs outside
 * it, serialized per entry key by an in-flight slot table so two
 * threads never duplicate the same file read or interleave writes to
 * one entry. Concurrent jobs hammering the store therefore only
 * contend for microseconds of map access, never for a read()/write()
 * syscall (the stress test's I/O hook proves the global lock is free
 * mid-I/O). Across processes, every entry is written
 * read-merge-write under an flock(2) sidecar lock (`<entry>.lock`):
 * the writer reads the file, asks the same widen rule tier 1 uses
 * whether it already covers the new entry (an LRU file always does;
 * a set-associative one when its ways bound is at least as wide; OPT
 * and replay curves when their capacities include the new ones), and
 * otherwise writes the union. Concurrent writers therefore never lose
 * each other's contributions, and a double-computed LRU entry is
 * written once.
 *
 * On-disk format (version 2 — version 1 predates replay entries and
 * is rejected and recomputed), one entry per file, file name
 * content-addressed from the encoded entry key:
 *
 *   "KBCV" magic | u32 format version | encoded entry key
 *   | per-kind payload (MissCurve / ways+MissCurve / OptCurve /
 *     ModelCurve)
 *   | u64 FNV-1a checksum of everything before it
 *
 * Files are written to a temp name and atomically renamed into
 * place, so readers never see a torn entry. Any
 * malformed file — truncated, checksum mismatch, wrong version, key
 * collision, structurally inconsistent payload — is silently ignored
 * and the curve recomputed: corruption can cost time, never
 * correctness. The directory is size-bounded (setDiskCapacityBytes);
 * the oldest entries by modification time are evicted after a store
 * crosses the bound.
 *
 * The store is thread-safe; entries are immutable once stored
 * (shared_ptr<const ...>), so concurrent jobs can read a curve while
 * another job stores a new one. Results are bit-identical with the
 * store hot, cold, or absent, which the engine's equivalence tests
 * assert.
 */

#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "mem/opt_cache.hpp"
#include "trace/model_curve.hpp"
#include "trace/reuse.hpp"
#include "util/binio.hpp"

namespace kb {

/** Identity of a fixed-schedule trace: what emitTrace() would see. */
struct TraceKey
{
    std::string kernel;          ///< registry name
    std::uint64_t n_trace = 0;   ///< traced problem size
    std::uint64_t schedule_m = 0; ///< memory the schedule is tiled for

    friend auto operator<=>(const TraceKey &, const TraceKey &) = default;

    /** Stable serialization (on-disk entry identity). */
    void encode(ByteWriter &out) const;
    static bool decode(ByteReader &in, TraceKey &out);
};

/**
 * Capacity-independent identity of a replayed memory model: which
 * discipline (MemoryModelKind value) plus its fixed configuration —
 * the associativity for the set-associative models, the seed for
 * random replacement. Capacity-derived parameters (set counts, the
 * random model's way count) are functions of the queried capacity
 * and need no key field.
 */
struct ReplayModelKey
{
    std::uint8_t family = 0; ///< MemoryModelKind as an integer
    std::uint64_t param = 0; ///< ways / seed / 0 (family-specific)
};

/** Hit/miss and tier-traffic counters, for tests and reports. */
struct CurveStoreStats
{
    std::uint64_t hits = 0;   ///< lookups served (either tier)
    std::uint64_t misses = 0; ///< lookups that forced a fresh build
    std::uint64_t disk_hits = 0;    ///< hits that came from tier 2
    std::uint64_t disk_stores = 0;  ///< entry files written
    std::uint64_t disk_rejects = 0; ///< malformed entries ignored
    std::uint64_t disk_errors = 0;  ///< tier-2 write failures absorbed
    std::uint64_t tier1_evictions = 0; ///< LRU evictions from tier 1
    /// Replay-path slice of hits/misses: findReplayIo lookups served
    /// (either tier) and replayed point results stored.
    std::uint64_t replay_hits = 0;
    std::uint64_t replay_stores = 0;
};

/** What a CurveStore::fsck() pass found (and, when asked, removed). */
struct CurveStoreFsck
{
    std::size_t scanned = 0; ///< entry files examined
    std::size_t valid = 0;
    std::size_t corrupt_found = 0;   ///< failed checksum/version/address
    std::size_t corrupt_removed = 0; ///< of those, deleted
    std::size_t tmp_removed = 0;     ///< crashed writers' temp files
};

/** Process-wide two-tier store of single-pass curves and replayed
 *  per-point results, keyed by trace identity. */
class CurveStore
{
  public:
    /** On-disk entry format version; bump on any layout change. */
    static constexpr std::uint32_t kFormatVersion = 2;

    /** The singleton. Tier 2 starts at $KB_CURVE_CACHE_DIR ("" =
     *  disabled) and can be repointed with setDiskDirectory(). */
    static CurveStore &instance();

    /**
     * An independent store with its own tiers (reads
     * KB_CURVE_CACHE_DIR like the singleton). Engine code always uses
     * instance(); separate instances exist so tests can model several
     * processes sharing one disk directory inside one test binary.
     */
    CurveStore();

    CurveStore(const CurveStore &) = delete;
    CurveStore &operator=(const CurveStore &) = delete;

    /** Fully associative LRU curve of @p key, or nullptr. */
    std::shared_ptr<const MissCurve> findLru(const TraceKey &key);
    void storeLru(const TraceKey &key,
                  std::shared_ptr<const MissCurve> curve);

    /**
     * Set-associative LRU ways-curve of @p key at @p sets sets,
     * exact for associativities up to @p ways, or nullptr. A cached
     * curve built for a larger ways bound also satisfies the lookup
     * (its lumped bucket sits higher).
     */
    std::shared_ptr<const MissCurve> findSetAssoc(const TraceKey &key,
                                                  std::uint64_t sets,
                                                  std::uint64_t ways);
    void storeSetAssoc(const TraceKey &key, std::uint64_t sets,
                       std::uint64_t ways,
                       std::shared_ptr<const MissCurve> curve);

    /**
     * OPT curve of @p key resolving every capacity in @p capacities
     * (a cached curve built for a superset satisfies the lookup), or
     * nullptr.
     */
    std::shared_ptr<const OptCurve>
    findOpt(const TraceKey &key,
            const std::vector<std::uint64_t> &capacities);
    void storeOpt(const TraceKey &key,
                  std::shared_ptr<const OptCurve> curve);

    /**
     * Replayed I/O words of model @p model at @p capacity over @p
     * key's trace, or nullopt. Served from the (mergeable) ModelCurve
     * entry of (key, model); counted in replay_hits on success.
     */
    std::optional<std::uint64_t> findReplayIo(const TraceKey &key,
                                              const ReplayModelKey &model,
                                              std::uint64_t capacity);

    /** Record one replayed point result; unions with the existing
     *  entry (within the process and, under the entry's file lock,
     *  across processes). */
    void storeReplayIo(const TraceKey &key, const ReplayModelKey &model,
                       std::uint64_t capacity, std::uint64_t io_words);

    /**
     * Record a whole batch of replayed point results for one
     * (trace, model) entry in a single store — one disk round-trip
     * instead of one rewrite of the growing entry file per point.
     * @p capacities ascending and unique, parallel to @p io_words.
     */
    void storeReplayPoints(const TraceKey &key,
                           const ReplayModelKey &model,
                           std::vector<std::uint64_t> capacities,
                           std::vector<std::uint64_t> io_words);

    /** Counters since construction or the last clear(). */
    CurveStoreStats stats() const;

    /**
     * Drop every tier-1 entry and zero the counters. Tier 2 is left
     * untouched — this models a fresh process against a warm disk
     * store (tests, the A/B bench); use clearDisk() for a cold disk.
     */
    void clear();

    /** Remove every store entry (and lock) file from the disk
     *  directory. */
    void clearDisk();

    /**
     * Offline integrity scan of a store directory: every `kb-*.kbc`
     * entry must checksum, carry the current format version, decode,
     * and sit at its content-addressed file name. With @p remove true,
     * failing entries (plus their lock sidecars) and stale `.tmp*`
     * files from crashed writers are deleted — valid entries are never
     * touched. The orchestrating driver runs this before a fleet
     * shares a store directory, so one corrupt entry cannot cost every
     * worker a reject-and-recompute.
     */
    static CurveStoreFsck fsck(const std::string &dir, bool remove);

    /** Point tier 2 at @p dir (created if missing; "" disables). */
    void setDiskDirectory(const std::string &dir);
    std::string diskDirectory() const;

    /** Tier-2 size bound in bytes (default 256 MiB; 0 = unbounded).
     *  Enforced after a store crosses the bound by evicting
     *  oldest-mtime entries. */
    void setDiskCapacityBytes(std::uint64_t bytes);

    /** Tier-1 entry bound (default 64); shrinking evicts LRU-first. */
    void setTier1Capacity(std::size_t entries);

    /**
     * Test-only: invoked immediately before every tier-2 read or
     * write syscall, while the calling thread holds ONLY the entry's
     * I/O slot — never the global mutex. The concurrency stress test
     * installs a hook that blocks until another thread completes a
     * tier-1 lookup, which would deadlock (and time the test out) if
     * the global lock were still held across file I/O.
     */
    void setIoHookForTest(std::function<void()> hook);

  private:
    /// Full entry identity: the trace plus which artifact family over
    /// it (kind 0 = LRU, 1 = set-assoc at `sets`, 2 = OPT, 3 = replay
    /// results of model family `sets` with config `param`).
    struct EntryKey
    {
        TraceKey trace;
        int kind = 0;
        std::uint64_t sets = 0;
        std::uint64_t param = 0;

        friend auto operator<=>(const EntryKey &,
                                const EntryKey &) = default;

        void encode(ByteWriter &out) const;
        static bool decode(ByteReader &in, EntryKey &out);
    };

    struct Entry
    {
        std::shared_ptr<const MissCurve> miss;   ///< kinds 0 and 1
        std::shared_ptr<const OptCurve> opt;     ///< kind 2
        std::shared_ptr<const ModelCurve> model; ///< kind 3
        std::uint64_t ways = 0; ///< kind 1: exact-associativity bound
        /// Position in order_ (tier-1 LRU list), valid while mapped.
        std::list<EntryKey>::iterator order_it;
    };

    using EntryMap = std::map<EntryKey, Entry>;
    using Satisfies = std::function<bool(const Entry &)>;

    /// One in-flight I/O serialization point; refcounted so the table
    /// stays bounded by the number of keys with I/O in progress.
    struct KeySlot
    {
        std::mutex io;
        unsigned users = 0;
    };

    /// RAII acquire/lock/release of one key's I/O slot. Constructed
    /// and destructed while the global mutex is NOT held.
    class SlotGuard;

    /** Mark @p it most recently used. */
    void touchLocked(EntryMap::iterator it);

    /** Insert/overwrite in tier 1 (most-recent position), evicting
     *  LRU entries beyond the tier-1 bound. */
    EntryMap::iterator insertLocked(const EntryKey &key, Entry entry);

    /**
     * The one widen rule, shared by the tier-1 fold and the tier-2
     * write: nullopt when @p have already answers everything @p in
     * does, else the entry to keep. LRU always covers (same
     * deterministic content); set-associative keeps the larger ways
     * bound; OPT and replay curves take the union of capacities.
     */
    static std::optional<Entry> widened(int kind, const Entry &have,
                                        const Entry &in);

    /**
     * Merge @p entry into tier 1 by widened(). Returns the surviving
     * iterator and whether @p entry contributed anything the existing
     * entry did not already have.
     */
    std::pair<EntryMap::iterator, bool> foldLocked(const EntryKey &key,
                                                   Entry entry);

    /**
     * Two-tier lookup behind every find*: tier-1 probe under the
     * global lock, then — outside it, under the key's I/O slot — a
     * tier-2 read, decode and fold-back. @p satisfies decides whether
     * an entry answers the query (wide enough ways bound, covering
     * capacity set). Counts the outcome in hits/misses/disk_hits (and
     * replay_hits for replay entries); a malformed file is removed
     * and counted once in disk_rejects.
     */
    std::optional<Entry> lookupEntry(const EntryKey &key,
                                     const Satisfies &satisfies);

    /**
     * Fold @p entry into tier 1 and persist the result to tier 2
     * (outside the global lock, under the key's I/O slot).
     */
    void storeEntry(const EntryKey &key, Entry entry);

    /** Encode @p key's entry file body (magic..payload, no checksum). */
    std::vector<std::uint8_t> encodeEntry(const EntryKey &key,
                                          const Entry &entry) const;

    /** Decode and validate one entry file body (checksum, magic,
     *  version, key, payload); yields the stored key so fsck() can
     *  validate files it has no expected key for. False = reject. */
    static bool decodeEntryBody(const std::vector<std::uint8_t> &bytes,
                                EntryKey &stored_key, Entry &out);

    /** decodeEntryBody() plus "the stored key is the one we asked
     *  for" (content-hash collision guard); false = reject. */
    bool decodeEntry(const std::vector<std::uint8_t> &bytes,
                     const EntryKey &key, Entry &out);

    /**
     * Absorb a tier-2 write failure: count it, warn once, blacklist
     * the key, and past kDiskErrorThreshold distinct failures disable
     * the disk tier for the rest of the run (warn once more). The
     * sweep continues on compute — a full or read-only store
     * directory costs warmth, never correctness.
     */
    void noteDiskError(const EntryKey &key, const std::string &path);

    /** True when tier 2 should be skipped for @p key (locked). */
    bool diskSkippedLocked(const EntryKey &key) const;

    /** Read-merge-write @p entry's file under @p dir, holding the
     *  entry's flock sidecar; called with the key's I/O slot held and
     *  the global mutex free. */
    void diskWriteSlotHeld(const EntryKey &key, const Entry &entry,
                           const std::string &dir);

    /** Rescan the directory and evict oldest-mtime entries down to
     *  the size bound; refreshes disk_usage_. Runs outside the global
     *  mutex (serialized by evict_mutex_). */
    void diskEvict(const std::string &dir, std::uint64_t capacity);

    /** Bookkeeping after one published entry file: usage, stats, and
     *  the eviction trigger. */
    void accountDiskWrite(const std::string &dir,
                          std::int64_t delta_bytes);

    std::string entryPath(const std::string &dir,
                          const EntryKey &key) const;

    void runIoHook();

    /// Distinct failing keys tolerated before the whole disk tier is
    /// disabled for the run (a directory-wide condition like ENOSPC
    /// fails every key; re-trying each one buys nothing).
    static constexpr std::size_t kDiskErrorThreshold = 3;

    mutable std::mutex mutex_;
    EntryMap entries_;
    std::list<EntryKey> order_; ///< LRU order, most recent at back
    std::size_t tier1_capacity_ = 64;
    std::string disk_dir_; ///< "" = tier 2 disabled
    std::uint64_t disk_capacity_bytes_ = 256ull << 20;
    /// Running byte total of the disk directory's entries; -1 =
    /// unknown (recomputed by the next diskEvict scan).
    std::int64_t disk_usage_ = -1;
    CurveStoreStats stats_;
    /// Per-key in-flight I/O table (guarded by mutex_; the slots'
    /// own mutexes are locked only with mutex_ released).
    std::map<EntryKey, std::shared_ptr<KeySlot>> inflight_;
    std::mutex evict_mutex_; ///< one eviction scan at a time
    std::function<void()> io_hook_; ///< test-only, see setIoHookForTest
    /// Degradation state (guarded by mutex_): keys whose tier-2
    /// writes failed, and the tier-wide kill switch.
    std::vector<EntryKey> disk_failed_keys_;
    bool disk_disabled_ = false;
    bool warned_disk_error_ = false;
    bool warned_disk_disabled_ = false;
};

} // namespace kb
