#include "engine/curve_store.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <utility>

#include "util/faultpoint.hpp"
#include "util/logging.hpp"

namespace fs = std::filesystem;

namespace kb {

namespace {

constexpr std::uint8_t kMagic[4] = {'K', 'B', 'C', 'V'};
constexpr const char *kEntrySuffix = ".kbc";
constexpr const char *kLockSuffix = ".lock";

/**
 * Union of two OPT curves over the same trace: every capacity either
 * curve resolves, answered by whichever has it. Keeps alternating
 * jobs with different grids from evicting each other's entry — the
 * exact reuse the store exists for.
 */
std::shared_ptr<const OptCurve>
mergeOptCurves(const OptCurve &a, const OptCurve &b)
{
    std::vector<std::uint64_t> caps;
    std::set_union(a.capacities().begin(), a.capacities().end(),
                   b.capacities().begin(), b.capacities().end(),
                   std::back_inserter(caps));
    std::vector<std::uint64_t> misses, writebacks;
    misses.reserve(caps.size());
    writebacks.reserve(caps.size());
    for (const auto cap : caps) {
        const OptCurve &from =
            std::binary_search(a.capacities().begin(),
                               a.capacities().end(), cap)
                ? a
                : b;
        misses.push_back(from.missesAt(cap));
        writebacks.push_back(from.writebacksAt(cap));
    }
    return std::make_shared<const OptCurve>(
        std::move(caps), std::move(misses), std::move(writebacks),
        a.accesses());
}

} // namespace

void
TraceKey::encode(ByteWriter &out) const
{
    out.str(kernel);
    out.u64(n_trace);
    out.u64(schedule_m);
}

bool
TraceKey::decode(ByteReader &in, TraceKey &out)
{
    out.kernel = in.str();
    out.n_trace = in.u64();
    out.schedule_m = in.u64();
    return in.ok();
}

void
CurveStore::EntryKey::encode(ByteWriter &out) const
{
    out.u8(static_cast<std::uint8_t>(kind));
    out.u64(sets);
    out.u64(param);
    trace.encode(out);
}

bool
CurveStore::EntryKey::decode(ByteReader &in, EntryKey &out)
{
    out.kind = in.u8();
    out.sets = in.u64();
    out.param = in.u64();
    return TraceKey::decode(in, out.trace) && out.kind >= 0 &&
           out.kind <= 3;
}

CurveStore::CurveStore()
{
    if (const char *env = std::getenv("KB_CURVE_CACHE_DIR");
        env != nullptr && *env != '\0')
        setDiskDirectory(env);
}

CurveStore &
CurveStore::instance()
{
    static CurveStore store;
    return store;
}

/**
 * RAII over one key's in-flight I/O slot: refcount it into the table
 * under the global mutex, then lock its own mutex with the global one
 * released. Lock order is therefore always slot -> global, never the
 * reverse, so the brief global re-acquisitions inside I/O paths
 * cannot deadlock.
 */
class CurveStore::SlotGuard
{
  public:
    SlotGuard(CurveStore &store, const EntryKey &key)
        : store_(store), key_(key)
    {
        {
            std::lock_guard<std::mutex> lock(store_.mutex_);
            auto &slot = store_.inflight_[key_];
            if (!slot)
                slot = std::make_shared<KeySlot>();
            ++slot->users;
            slot_ = slot;
        }
        slot_->io.lock();
    }

    ~SlotGuard()
    {
        slot_->io.unlock();
        std::lock_guard<std::mutex> lock(store_.mutex_);
        const auto it = store_.inflight_.find(key_);
        if (it != store_.inflight_.end() && --it->second->users == 0)
            store_.inflight_.erase(it);
    }

    SlotGuard(const SlotGuard &) = delete;
    SlotGuard &operator=(const SlotGuard &) = delete;

  private:
    CurveStore &store_;
    EntryKey key_;
    std::shared_ptr<KeySlot> slot_;
};

void
CurveStore::runIoHook()
{
    std::function<void()> hook;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        hook = io_hook_;
    }
    if (hook)
        hook();
}

void
CurveStore::setIoHookForTest(std::function<void()> hook)
{
    std::lock_guard<std::mutex> lock(mutex_);
    io_hook_ = std::move(hook);
}

void
CurveStore::setDiskDirectory(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(mutex_);
    disk_dir_ = dir;
    disk_usage_ = -1; // unknown until the next eviction scan
    if (!disk_dir_.empty()) {
        std::error_code ec;
        fs::create_directories(disk_dir_, ec);
        // An uncreatable directory degrades to "tier 2 absent": every
        // read misses and every write fails silently. Correctness is
        // unaffected; don't abort a sweep over a cache path.
    }
}

std::string
CurveStore::diskDirectory() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return disk_dir_;
}

void
CurveStore::setDiskCapacityBytes(std::uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    disk_capacity_bytes_ = bytes;
}

void
CurveStore::setTier1Capacity(std::size_t entries)
{
    std::lock_guard<std::mutex> lock(mutex_);
    tier1_capacity_ = std::max<std::size_t>(entries, 1);
    while (entries_.size() > tier1_capacity_) {
        entries_.erase(order_.front());
        order_.pop_front();
        ++stats_.tier1_evictions;
    }
}

void
CurveStore::touchLocked(EntryMap::iterator it)
{
    order_.splice(order_.end(), order_, it->second.order_it);
}

CurveStore::EntryMap::iterator
CurveStore::insertLocked(const EntryKey &key, Entry entry)
{
    const auto [it, inserted] = entries_.try_emplace(key);
    if (inserted)
        it->second.order_it = order_.insert(order_.end(), key);
    else
        touchLocked(it);
    entry.order_it = it->second.order_it;
    it->second = std::move(entry);
    while (entries_.size() > tier1_capacity_) {
        entries_.erase(order_.front());
        order_.pop_front();
        ++stats_.tier1_evictions;
    }
    return it;
}

std::optional<CurveStore::Entry>
CurveStore::widened(int kind, const Entry &have, const Entry &in)
{
    switch (kind) {
      case 0:
        // A full LRU MissCurve answers every query, and the incoming
        // one is the same deterministic content.
        return std::nullopt;
      case 1:
        // Never narrow: a curve exact to fewer ways replacing a wider
        // one would make the next wider lookup miss forever.
        if (have.ways >= in.ways)
            return std::nullopt;
        return in;
      case 2: {
        // OPT curves union capacities, so jobs with different grids
        // over one trace widen a shared curve instead of thrashing it.
        if (std::includes(have.opt->capacities().begin(),
                          have.opt->capacities().end(),
                          in.opt->capacities().begin(),
                          in.opt->capacities().end()))
            return std::nullopt;
        Entry out = in;
        out.opt = mergeOptCurves(*have.opt, *in.opt);
        return out;
      }
      default: {
        // Replay curves union capacity points exactly like OPT.
        if (have.model->covers(*in.model))
            return std::nullopt;
        Entry out = in;
        out.model = std::make_shared<const ModelCurve>(
            ModelCurve::merged(*have.model, *in.model));
        return out;
      }
    }
}

std::pair<CurveStore::EntryMap::iterator, bool>
CurveStore::foldLocked(const EntryKey &key, Entry entry)
{
    const auto existing = entries_.find(key);
    if (existing != entries_.end()) {
        auto wider = widened(key.kind, existing->second, entry);
        if (!wider) {
            touchLocked(existing);
            return {existing, false};
        }
        entry = std::move(*wider);
    }
    return {insertLocked(key, std::move(entry)), true};
}

std::string
CurveStore::entryPath(const std::string &dir, const EntryKey &key) const
{
    ByteWriter w;
    key.encode(w);
    return dir + "/kb-" + toHex16(fnv1a64(w.bytes())) + kEntrySuffix;
}

std::vector<std::uint8_t>
CurveStore::encodeEntry(const EntryKey &key, const Entry &entry) const
{
    ByteWriter w;
    for (const auto m : kMagic)
        w.u8(m);
    w.u32(kFormatVersion);
    key.encode(w);
    switch (key.kind) {
      case 0:
        entry.miss->encode(w);
        break;
      case 1:
        w.u64(entry.ways);
        entry.miss->encode(w);
        break;
      case 2:
        entry.opt->encode(w);
        break;
      case 3:
        entry.model->encode(w);
        break;
    }
    w.u64(fnv1a64(w.bytes()));
    return w.take();
}

bool
CurveStore::decodeEntryBody(const std::vector<std::uint8_t> &bytes,
                            EntryKey &stored_key, Entry &out)
{
    if (bytes.size() < sizeof(kMagic) + sizeof(std::uint32_t) + 8)
        return false;
    const std::size_t body_size = bytes.size() - 8;
    const std::span<const std::uint8_t> body(bytes.data(), body_size);
    ByteReader tail(
        std::span<const std::uint8_t>(bytes.data() + body_size, 8));
    if (tail.u64() != fnv1a64(body))
        return false;

    ByteReader in(body);
    for (const auto m : kMagic)
        in.require(in.u8() == m);
    in.require(in.u32() == kFormatVersion);
    if (!in.ok() || !EntryKey::decode(in, stored_key))
        return false; // wrong version or torn key
    switch (stored_key.kind) {
      case 0: {
        MissCurve curve({}, 0, 0);
        if (!MissCurve::decode(in, curve))
            return false;
        out.miss = std::make_shared<const MissCurve>(std::move(curve));
        break;
      }
      case 1: {
        out.ways = in.u64();
        MissCurve curve({}, 0, 0);
        if (!in.ok() || out.ways == 0 || !MissCurve::decode(in, curve))
            return false;
        out.miss = std::make_shared<const MissCurve>(std::move(curve));
        break;
      }
      case 2: {
        OptCurve curve;
        if (!OptCurve::decode(in, curve))
            return false;
        out.opt = std::make_shared<const OptCurve>(std::move(curve));
        break;
      }
      case 3: {
        ModelCurve curve;
        if (!ModelCurve::decode(in, curve))
            return false;
        out.model =
            std::make_shared<const ModelCurve>(std::move(curve));
        break;
      }
      default:
        return false;
    }
    return in.exhausted(); // trailing garbage: treat as corrupt
}

bool
CurveStore::decodeEntry(const std::vector<std::uint8_t> &bytes,
                        const EntryKey &key, Entry &out)
{
    EntryKey stored;
    // A stored key other than the asked-for one is a content-hash
    // collision (or a misfiled entry): reject, recompute.
    return decodeEntryBody(bytes, stored, out) && stored == key;
}

std::optional<CurveStore::Entry>
CurveStore::lookupEntry(const EntryKey &key, const Satisfies &satisfies)
{
    // Every outcome is counted here, with mutex_ held, for all four
    // find* methods alike.
    const auto counted = [&](const Entry *found, bool from_disk)
        -> std::optional<Entry> {
        if (found == nullptr) {
            ++stats_.misses;
            return std::nullopt;
        }
        ++stats_.hits;
        stats_.disk_hits += from_disk ? 1 : 0;
        stats_.replay_hits += key.kind == 3 ? 1 : 0;
        return *found;
    };
    const auto tier1 = [&]() -> const Entry * {
        const auto it = entries_.find(key);
        if (it == entries_.end() || !satisfies(it->second))
            return nullptr;
        touchLocked(it);
        return &it->second;
    };

    std::string dir;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (const Entry *hit = tier1())
            return counted(hit, false);
        if (disk_dir_.empty() || disk_disabled_)
            return counted(nullptr, false);
        dir = disk_dir_;
    }

    SlotGuard slot(*this, key);
    {
        // Another thread may have loaded this entry while we queued
        // on the slot; skip the file read if it now satisfies us.
        std::lock_guard<std::mutex> lock(mutex_);
        if (const Entry *hit = tier1())
            return counted(hit, false);
    }

    // File I/O below holds only this key's slot; the global mutex is
    // free (the stress test's hook asserts it).
    runIoHook();
    const std::string path = entryPath(dir, key);
    std::vector<std::uint8_t> bytes;
    if (!readFileBytes(path, bytes)) {
        std::lock_guard<std::mutex> lock(mutex_);
        return counted(nullptr, false); // missing file: a plain miss
    }
    Entry decoded;
    if (!decodeEntry(bytes, key, decoded)) {
        // Remove the malformed file now (we hold the key's slot), so
        // the recompute's write does not find and reject it again.
        std::error_code ec;
        fs::remove(path, ec);
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.disk_rejects;
        return counted(nullptr, false);
    }

    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = foldLocked(key, std::move(decoded)).first;
    // Decoded but too narrow (a smaller ways bound or capacity set):
    // a miss.
    return counted(satisfies(it->second) ? &it->second : nullptr, true);
}

void
CurveStore::storeEntry(const EntryKey &key, Entry entry)
{
    std::string dir;
    Entry snapshot;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto [it, changed] = foldLocked(key, std::move(entry));
        snapshot = it->second;
        // An entry tier 1 already covered was persisted when it was
        // first folded in; a key whose write already failed (or a
        // disabled tier) keeps its tier-1 entry and skips the doomed
        // file I/O.
        if (changed && !diskSkippedLocked(key))
            dir = disk_dir_;
    }
    if (dir.empty())
        return;
    SlotGuard slot(*this, key);
    runIoHook();
    diskWriteSlotHeld(key, snapshot, dir);
}

void
CurveStore::diskWriteSlotHeld(const EntryKey &key, const Entry &entry,
                              const std::string &dir)
{
    // Read-merge-write under the entry's flock sidecar, for every
    // kind: other threads of this process queue on the key's slot,
    // other PROCESSES on the flock, so concurrent writers union their
    // contributions instead of last-rename-wins dropping them, and a
    // twin writer of an LRU entry finds the file already there.
    const std::string path = entryPath(dir, key);
    FileLock file_lock(path + kLockSuffix);
    std::optional<Entry> to_write = entry;
    std::int64_t replaced = 0;
    std::vector<std::uint8_t> existing;
    if (readFileBytes(path, existing)) {
        replaced = static_cast<std::int64_t>(existing.size());
        Entry on_disk;
        if (decodeEntry(existing, key, on_disk)) {
            to_write = widened(key.kind, on_disk, entry);
            // Whatever another invocation contributed is folded back
            // into tier 1, so later in-process lookups cover it
            // without re-reading the file.
            std::lock_guard<std::mutex> lock(mutex_);
            foldLocked(key, to_write ? *to_write : on_disk);
        } else {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.disk_rejects; // corrupt entry, overwrite it
        }
    }
    if (!to_write)
        return;
    auto bytes = encodeEntry(key, *to_write);
    if (faultFireAt("corrupt-store-entry") && !bytes.empty())
        bytes[bytes.size() / 2] ^= 0x40;
    if (writeFileAtomic(path, bytes))
        accountDiskWrite(dir,
                         static_cast<std::int64_t>(bytes.size()) - replaced);
    else
        noteDiskError(key, path);
}

bool
CurveStore::diskSkippedLocked(const EntryKey &key) const
{
    if (disk_dir_.empty() || disk_disabled_)
        return true;
    return std::find(disk_failed_keys_.begin(), disk_failed_keys_.end(),
                     key) != disk_failed_keys_.end();
}

void
CurveStore::noteDiskError(const EntryKey &key, const std::string &path)
{
    const int saved_errno = errno;
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.disk_errors;
    if (std::find(disk_failed_keys_.begin(), disk_failed_keys_.end(),
                  key) == disk_failed_keys_.end())
        disk_failed_keys_.push_back(key);
    if (!warned_disk_error_) {
        warned_disk_error_ = true;
        warn("curve store: cannot write " + path + " (" +
             std::strerror(saved_errno) +
             "); falling back to compute for this entry");
    }
    if (disk_failed_keys_.size() >= kDiskErrorThreshold &&
        !disk_disabled_) {
        disk_disabled_ = true;
        if (!warned_disk_disabled_) {
            warned_disk_disabled_ = true;
            warn("curve store: " +
                 std::to_string(disk_failed_keys_.size()) +
                 " entries failed to write; disabling the disk tier "
                 "for the rest of this run (results are unaffected)");
        }
    }
}

CurveStoreFsck
CurveStore::fsck(const std::string &dir, bool remove)
{
    CurveStoreFsck report;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir, ec)) {
        if (!de.is_regular_file(ec))
            continue;
        const std::string name = de.path().filename().string();
        if (!name.starts_with("kb-"))
            continue;
        // A crashed writer's temp file never got renamed into place;
        // it is dead weight whatever it contains.
        if (name.find(std::string(kEntrySuffix) + ".tmp") !=
            std::string::npos) {
            if (remove && fs::remove(de.path(), ec))
                ++report.tmp_removed;
            continue;
        }
        if (de.path().extension() != kEntrySuffix)
            continue;

        ++report.scanned;
        bool good = false;
        std::vector<std::uint8_t> bytes;
        if (readFileBytes(de.path().string(), bytes)) {
            EntryKey stored;
            Entry decoded;
            if (decodeEntryBody(bytes, stored, decoded)) {
                // The file must also sit at its content address — a
                // valid entry under the wrong name would shadow some
                // other key's slot forever.
                ByteWriter w;
                stored.encode(w);
                good = name == "kb-" + toHex16(fnv1a64(w.bytes())) +
                                   kEntrySuffix;
            }
        }
        if (good) {
            ++report.valid;
            continue;
        }
        ++report.corrupt_found;
        if (remove && fs::remove(de.path(), ec)) {
            ++report.corrupt_removed;
            fs::remove(de.path().string() + kLockSuffix, ec);
        }
    }
    return report;
}

void
CurveStore::accountDiskWrite(const std::string &dir,
                             std::int64_t delta_bytes)
{
    bool evict = false;
    std::uint64_t capacity = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.disk_stores;
        if (disk_usage_ >= 0)
            disk_usage_ += delta_bytes;
        capacity = disk_capacity_bytes_;
        // Scan-and-evict only when the total is unknown or over the
        // bound; the steady-state store path never touches the
        // directory listing.
        evict = capacity != 0 &&
                (disk_usage_ < 0 ||
                 static_cast<std::uint64_t>(disk_usage_) > capacity);
    }
    if (evict)
        diskEvict(dir, capacity);
}

void
CurveStore::diskEvict(const std::string &dir, std::uint64_t capacity)
{
    // One scan at a time; the scan itself holds no store lock, so
    // concurrent lookups and stores proceed (a reader whose entry is
    // evicted mid-flight just sees a plain miss and recomputes).
    std::lock_guard<std::mutex> evict_lock(evict_mutex_);
    struct FileInfo
    {
        fs::path path;
        std::uint64_t size = 0;
        fs::file_time_type mtime;
    };
    std::vector<FileInfo> files;
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir, ec)) {
        if (!de.is_regular_file(ec) ||
            de.path().extension() != kEntrySuffix)
            continue;
        FileInfo info;
        info.path = de.path();
        info.size = de.file_size(ec);
        info.mtime = de.last_write_time(ec);
        total += info.size;
        files.push_back(std::move(info));
    }
    if (total > capacity && capacity != 0) {
        std::sort(files.begin(), files.end(),
                  [](const FileInfo &a, const FileInfo &b) {
                      return a.mtime < b.mtime;
                  });
        for (const auto &info : files) {
            if (total <= capacity)
                break;
            if (fs::remove(info.path, ec)) {
                total -= info.size;
                // The entry's flock sidecar dies with it.
                fs::remove(info.path.string() + kLockSuffix, ec);
            }
        }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    disk_usage_ = static_cast<std::int64_t>(total);
}

std::shared_ptr<const MissCurve>
CurveStore::findLru(const TraceKey &key)
{
    const auto entry = lookupEntry(
        EntryKey{key, 0, 0, 0},
        [](const Entry &e) { return e.miss != nullptr; });
    return entry ? entry->miss : nullptr;
}

void
CurveStore::storeLru(const TraceKey &key,
                     std::shared_ptr<const MissCurve> curve)
{
    Entry entry;
    entry.miss = std::move(curve);
    storeEntry(EntryKey{key, 0, 0, 0}, std::move(entry));
}

std::shared_ptr<const MissCurve>
CurveStore::findSetAssoc(const TraceKey &key, std::uint64_t sets,
                         std::uint64_t ways)
{
    // Tier 2 may hold a wider curve than tier 1 (another invocation's
    // larger ways bound); the fold never narrows, so the disk probe
    // is safe even when a too-narrow tier-1 entry exists.
    const auto entry = lookupEntry(
        EntryKey{key, 1, sets, 0}, [ways](const Entry &e) {
            return e.miss != nullptr && e.ways >= ways;
        });
    return entry ? entry->miss : nullptr;
}

void
CurveStore::storeSetAssoc(const TraceKey &key, std::uint64_t sets,
                          std::uint64_t ways,
                          std::shared_ptr<const MissCurve> curve)
{
    Entry entry;
    entry.miss = std::move(curve);
    entry.ways = ways;
    storeEntry(EntryKey{key, 1, sets, 0}, std::move(entry));
}

std::shared_ptr<const OptCurve>
CurveStore::findOpt(const TraceKey &key,
                    const std::vector<std::uint64_t> &capacities)
{
    // Tier 2 may resolve capacities tier 1 does not (another
    // invocation's grid); the fold unions OPT entries, so the probe
    // widens the tier-1 curve and can never lose capacities. On a
    // miss the (possibly widened) tier-1 entry stays: the next
    // storeOpt merges with it, widening one shared curve instead of
    // thrashing the slot (within and across invocations).
    const auto entry = lookupEntry(
        EntryKey{key, 2, 0, 0}, [&capacities](const Entry &e) {
            return e.opt != nullptr &&
                   std::includes(e.opt->capacities().begin(),
                                 e.opt->capacities().end(),
                                 capacities.begin(), capacities.end());
        });
    return entry ? entry->opt : nullptr;
}

void
CurveStore::storeOpt(const TraceKey &key,
                     std::shared_ptr<const OptCurve> curve)
{
    Entry entry;
    entry.opt = std::move(curve);
    storeEntry(EntryKey{key, 2, 0, 0}, std::move(entry));
}

std::optional<std::uint64_t>
CurveStore::findReplayIo(const TraceKey &key, const ReplayModelKey &model,
                         std::uint64_t capacity)
{
    const auto entry = lookupEntry(
        EntryKey{key, 3, model.family, model.param},
        [capacity](const Entry &e) {
            return e.model != nullptr && e.model->has(capacity);
        });
    if (!entry)
        return std::nullopt;
    return entry->model->ioAt(capacity);
}

void
CurveStore::storeReplayIo(const TraceKey &key, const ReplayModelKey &model,
                          std::uint64_t capacity, std::uint64_t io_words)
{
    storeReplayPoints(key, model, {capacity}, {io_words});
}

void
CurveStore::storeReplayPoints(const TraceKey &key,
                              const ReplayModelKey &model,
                              std::vector<std::uint64_t> capacities,
                              std::vector<std::uint64_t> io_words)
{
    if (capacities.empty())
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.replay_stores += capacities.size();
    }
    Entry entry;
    entry.model = std::make_shared<const ModelCurve>(
        ModelCurve(std::move(capacities), std::move(io_words)));
    storeEntry(EntryKey{key, 3, model.family, model.param},
               std::move(entry));
}

CurveStoreStats
CurveStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
CurveStore::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    order_.clear();
    stats_ = CurveStoreStats{};
    disk_failed_keys_.clear();
    disk_disabled_ = false;
    warned_disk_error_ = false;
    warned_disk_disabled_ = false;
}

void
CurveStore::clearDisk()
{
    std::string dir;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (disk_dir_.empty())
            return;
        dir = disk_dir_;
    }
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir, ec)) {
        // Entries, their flock sidecars, and any crashed writer's
        // temp files all carry the store's "kb-" prefix.
        if (de.is_regular_file(ec) &&
            de.path().filename().string().starts_with("kb-"))
            fs::remove(de.path(), ec);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    disk_usage_ = 0;
}

} // namespace kb
