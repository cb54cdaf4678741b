#include "mem/opt_cache.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <set>
#include <unordered_map>

#include <fcntl.h>
#include <unistd.h>

#include "util/flat_map.hpp"
#include "util/logging.hpp"

namespace kb {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

} // namespace

OptResult
simulateOpt(std::span<const Access> trace, std::uint64_t capacity,
            bool flush_at_end)
{
    KB_REQUIRE(capacity > 0, "OPT capacity must be positive");

    // Pass 1: next_use[i] = index of the next access to trace[i].addr,
    // or kNever.
    std::vector<std::uint64_t> next_use(trace.size(), kNever);
    std::unordered_map<std::uint64_t, std::uint64_t> last_seen;
    for (std::uint64_t i = trace.size(); i-- > 0;) {
        auto it = last_seen.find(trace[i].addr);
        next_use[i] = it == last_seen.end() ? kNever : it->second;
        last_seen[trace[i].addr] = i;
    }

    // Pass 2: replay, keeping residents keyed by their next use so the
    // farthest-future victim is O(log M).
    struct Resident
    {
        std::uint64_t next;
        bool dirty;
    };
    std::unordered_map<std::uint64_t, Resident> resident;
    // (next_use, addr) ordered descending by next use via std::set.
    std::set<std::pair<std::uint64_t, std::uint64_t>> by_next;

    OptResult result;
    result.capacity = capacity;
    MemoryStats &st = result.stats;

    for (std::uint64_t i = 0; i < trace.size(); ++i) {
        const Access &a = trace[i];
        ++st.accesses;
        auto it = resident.find(a.addr);
        if (it != resident.end()) {
            ++st.hits;
            by_next.erase({it->second.next, a.addr});
            it->second.next = next_use[i];
            it->second.dirty |= a.isWrite();
            by_next.insert({it->second.next, a.addr});
            continue;
        }

        ++st.misses;
        if (resident.size() >= capacity) {
            // Evict the word used farthest in the future (or never).
            auto victim_it = std::prev(by_next.end());
            const std::uint64_t victim_addr = victim_it->second;
            auto vit = resident.find(victim_addr);
            KB_ASSERT(vit != resident.end());
            ++st.evictions;
            if (vit->second.dirty)
                ++st.writebacks;
            by_next.erase(victim_it);
            resident.erase(vit);
        }
        resident.emplace(a.addr, Resident{next_use[i], a.isWrite()});
        by_next.insert({next_use[i], a.addr});
    }

    if (flush_at_end) {
        for (const auto &[addr, entry] : resident) {
            if (entry.dirty)
                ++st.writebacks;
        }
    }
    return result;
}

OptCurve::OptCurve(std::vector<std::uint64_t> capacities,
                   std::vector<std::uint64_t> misses,
                   std::vector<std::uint64_t> writebacks,
                   std::uint64_t accesses)
    : capacities_(std::move(capacities)), misses_(std::move(misses)),
      writebacks_(std::move(writebacks)), accesses_(accesses)
{
    KB_ASSERT(capacities_.size() == misses_.size() &&
              capacities_.size() == writebacks_.size());
}

void
OptCurve::encode(ByteWriter &out) const
{
    out.vecU64(capacities_);
    out.vecU64(misses_);
    out.vecU64(writebacks_);
    out.u64(accesses_);
}

bool
OptCurve::decode(ByteReader &in, OptCurve &out)
{
    OptCurve curve;
    curve.capacities_ = in.vecU64();
    curve.misses_ = in.vecU64();
    curve.writebacks_ = in.vecU64();
    curve.accesses_ = in.u64();
    if (!in.ok())
        return false;
    // Structural sanity: parallel columns, strictly increasing
    // capacities, and OPT's inclusion property (more memory never
    // misses more).
    if (curve.capacities_.size() != curve.misses_.size() ||
        curve.capacities_.size() != curve.writebacks_.size())
        return false;
    for (std::size_t i = 1; i < curve.capacities_.size(); ++i) {
        if (curve.capacities_[i] <= curve.capacities_[i - 1])
            return false;
        if (curve.misses_[i] > curve.misses_[i - 1])
            return false;
    }
    for (const auto m : curve.misses_)
        if (m > curve.accesses_)
            return false;
    out = std::move(curve);
    return true;
}

std::size_t
OptCurve::indexOf(std::uint64_t capacity) const
{
    const auto it = std::lower_bound(capacities_.begin(),
                                     capacities_.end(), capacity);
    KB_REQUIRE(it != capacities_.end() && *it == capacity,
               "OPT curve was not built for capacity ", capacity);
    return static_cast<std::size_t>(it - capacities_.begin());
}

std::uint64_t
OptCurve::missesAt(std::uint64_t capacity) const
{
    return misses_[indexOf(capacity)];
}

std::uint64_t
OptCurve::writebacksAt(std::uint64_t capacity) const
{
    return writebacks_[indexOf(capacity)];
}

namespace {

/// Set in the heap keys of never-reused words: above every trace
/// position.
constexpr std::uint64_t kNeverBit = 1ull << 63;

/**
 * The segmented Belady stack. Bands are numbered 1..k for the slices
 * between consecutive requested capacities (band b holds the words
 * resident at capacity C_b but not at C_{b-1}); band k+1 is the
 * unordered overflow beyond C_k. Words only sink between their own
 * accesses, so each band needs just a max-heap on the eviction
 * priority (the victim is the heap top), and the depth information
 * the curve needs is the band an access finds its word in.
 *
 * The priority is one 64-bit key: the next-use position, or
 * kNeverBit | id (the dense word id) for a word never used again.
 * Each trace position is the next use of exactly one earlier access,
 * so keys never tie. Among finite next uses this is simulateOpt's
 * order; among never-reused words it breaks ties by id where
 * simulateOpt uses the address, which no count can see: such a word
 * is never found again, and each of its dirty epochs costs one
 * writeback whether an eviction or the final flush ends it. Every
 * 64-bit address is therefore allowed.
 *
 * Heaps delete lazily, and staleness is decided by position alone: an
 * entry goes stale only when its word is accessed, i.e. at the
 * position its key names, so while the walk is at position `now`
 *
 *     every stale key <= now < every live key.
 *
 * A band with any live word therefore always has a live top, and
 * compaction simply erases keys <= now; the word table is never read
 * to validate an entry.
 *
 * A miss cascades the per-capacity victims downward by replacing heap
 * tops: at a full level 1 the accessed word takes the place of band
 * 1's top, and at each deeper full level whose top outranks the
 * carried victim the carry takes the top's place, one sift-down each.
 * Only the final landing — in the first non-full band, the band the
 * word left, or the overflow — is a push.
 */
class SegmentedOptStack
{
  public:
    explicit SegmentedOptStack(const std::vector<std::uint64_t> &caps)
        : caps_(caps), heaps_(caps.size()), live_(caps.size(), 0),
          hist_(caps.size() + 2, 0), wb_hist_(caps.size() + 2, 0)
    {
    }

    /** Feed the access at the next trace position. */
    void access(const Access &a, std::uint64_t next_use);

    OptCurve
    curve(std::uint64_t accesses) const
    {
        const std::size_t k = caps_.size();
        std::vector<std::uint64_t> misses(k, 0), writebacks(k, 0);
        // An access found in band j misses at capacities C_q with
        // q < j; a write with dirty-window band w starts a new epoch
        // (= one eventual writeback, by eviction or final flush) at
        // capacities C_q with q < w.
        std::uint64_t miss_suffix = 0, wb_suffix = 0;
        for (std::size_t q = k; q-- > 0;) {
            miss_suffix += hist_[q + 2];
            wb_suffix += wb_hist_[q + 2];
            misses[q] = cold_ + miss_suffix;
            writebacks[q] = cold_writebacks_ + wb_suffix;
        }
        return OptCurve(caps_, std::move(misses),
                        std::move(writebacks), accesses);
    }

  private:
    /// Eviction priority plus the dense word id of the entry's word.
    struct Entry
    {
        std::uint64_t key;
        std::uint32_t id;
    };

    struct Word
    {
        std::uint32_t band = 0; ///< 1..k+1 (k+1 = overflow)
        /// Max band this word was found in since its last write
        /// (kColdWindow until the first write).
        std::uint32_t window = 0;
    };

    static constexpr std::uint32_t kColdWindow =
        std::numeric_limits<std::uint32_t>::max();

    /// Heap fan-out. A landing carry usually outranks most of its
    /// band (it was just the victim of every smaller capacity), so
    /// pushes sift far up; four children per node halve that climb.
    static constexpr std::size_t kArity = 4;

    /** Move @p e up from slot @p i of heap @p h to its place. */
    static void
    siftUp(std::vector<Entry> &h, std::size_t i, Entry e)
    {
        while (i > 0) {
            const std::size_t parent = (i - 1) / kArity;
            if (!(h[parent].key < e.key))
                break;
            h[i] = h[parent];
            i = parent;
        }
        h[i] = e;
    }

    /** Move @p e down from slot @p i of heap @p h to its place. */
    static void
    siftDown(std::vector<Entry> &h, std::size_t i, Entry e)
    {
        const std::size_t n = h.size();
        for (std::size_t first = kArity * i + 1; first < n;
             first = kArity * i + 1) {
            const std::size_t last = std::min(first + kArity, n);
            std::size_t c = first;
            for (std::size_t x = first + 1; x < last; ++x)
                if (h[c].key < h[x].key)
                    c = x;
            if (h[c].key < e.key)
                break;
            h[i] = h[c];
            i = c;
        }
        h[i] = e;
    }

    /** Put @p e in place of band @p b's top. */
    void
    replaceTop(std::size_t b, const Entry &e)
    {
        words_[e.id].band = static_cast<std::uint32_t>(b + 1);
        siftDown(heaps_[b], 0, e);
    }

    /** Add the entry's word to band b+1. */
    void
    land(std::size_t b, const Entry &e)
    {
        ++live_[b];
        push(b, e);
    }

    void
    push(std::size_t b, const Entry &e)
    {
        words_[e.id].band = static_cast<std::uint32_t>(b + 1);
        auto &h = heaps_[b];
        h.emplace_back();
        siftUp(h, h.size() - 1, e);
        // Lazy deletion accumulates stale entries; compact when they
        // dominate so heap memory stays O(live set).
        if (h.size() > 256 && h.size() > 4 * live_[b]) {
            std::erase_if(h, [walked = walked_](const Entry &e2) {
                return e2.key < walked;
            });
            for (std::size_t i = h.size(); i-- > 0;)
                siftDown(h, i, h[i]);
        }
    }

    const std::vector<std::uint64_t> caps_;
    std::vector<std::vector<Entry>> heaps_;
    std::vector<std::uint64_t> live_;
    FlatWordMap<std::uint32_t> ids_; ///< addr -> dense word id
    std::vector<Word> words_;        ///< dense word states
    std::vector<std::uint64_t> hist_;    ///< index = band found (1..k+1)
    std::vector<std::uint64_t> wb_hist_; ///< index = window band
    std::uint64_t cold_ = 0;
    std::uint64_t cold_writebacks_ = 0;
    /// Positions reached so far, the current access's included: an
    /// entry is stale iff its key is below this.
    std::uint64_t walked_ = 0;
};

void
SegmentedOptStack::access(const Access &a, std::uint64_t next_use)
{
    const std::size_t k = caps_.size();
    ++walked_;
    const auto [id_slot, inserted] = ids_.tryEmplace(a.addr);
    if (inserted) {
        *id_slot = static_cast<std::uint32_t>(words_.size());
        words_.push_back(Word{});
    }
    const std::uint32_t id = *id_slot;
    Word *w = &words_[id];
    // Band the access found its word in; k+1 also stands in for cold
    // words (miss at every capacity, like overflow).
    const std::size_t j =
        inserted ? k + 1 : static_cast<std::size_t>(w->band);

    if (inserted) {
        ++cold_;
    } else {
        ++hist_[j];
        if (w->window != kColdWindow)
            w->window = std::max(w->window,
                                 static_cast<std::uint32_t>(j));
    }
    if (a.isWrite()) {
        if (inserted || w->window == kColdWindow)
            ++cold_writebacks_;
        else
            ++wb_hist_[w->window];
        w->window = 0;
    } else if (inserted) {
        w->window = kColdWindow;
    }

    const Entry self{next_use == kNever ? kNeverBit | id : next_use, id};
    if (!inserted && j == 1) {
        // Hit at every capacity: contents unchanged, priority refresh
        // (the old entry, keyed `now`, is stale from here on).
        push(0, self);
        return;
    }

    // Cascade the per-capacity victims downward through the miss
    // levels q = 1..j-1 (all of them for cold/overflow words). The
    // victim of a full cache_q is the larger of the in-flight carry
    // and band q's top (the carry outranks all of cache_{q-1}); at
    // level 1 there is no carry yet, and the accessed word — resident
    // everywhere once this access is done — takes the top's place.
    // Full levels keep every band's count, so `resident` (cache_q's
    // size without the accessed word) is a prefix sum of live_ over
    // bands the word was not in.
    if (j <= k)
        --live_[j - 1];
    Entry carry = self;
    std::uint64_t resident = 0;
    const std::size_t miss_levels = std::min(j - 1, k);
    std::size_t q = 0; // 0-based band index of the level
    for (; q < miss_levels; ++q) {
        resident += live_[q];
        if (resident < caps_[q])
            break; // not full: no eviction here or below
        const Entry top = heaps_[q].front();
        KB_ASSERT(top.key >= walked_, "stale top in a full OPT band");
        if (q == 0 || carry.key < top.key) {
            replaceTop(q, carry);
            carry = top;
        }
        // else: the carry is still the victim; band q is untouched.
    }
    // The last carry lands in the first non-full band, else in the
    // band the word vacated (q == j-1), else in the overflow.
    if (q < k)
        land(q, carry);
    else
        words_[carry.id].band = static_cast<std::uint32_t>(k + 1);
}

} // namespace

OptCurve
simulateOptCurve(std::span<const Access> trace,
                 std::vector<std::uint64_t> capacities)
{
    std::sort(capacities.begin(), capacities.end());
    capacities.erase(
        std::unique(capacities.begin(), capacities.end()),
        capacities.end());
    KB_REQUIRE(!capacities.empty() && capacities.front() > 0,
               "OPT curve needs at least one positive capacity");

    // Pass 1: next-use indices, as in simulateOpt.
    std::vector<std::uint64_t> next_use(trace.size(), kNever);
    FlatWordMap<std::uint64_t> last_seen;
    for (std::uint64_t i = trace.size(); i-- > 0;) {
        const auto [slot, inserted] = last_seen.tryEmplace(trace[i].addr);
        if (!inserted)
            next_use[i] = *slot;
        *slot = i;
    }

    // Pass 2: one walk of the segmented stack.
    SegmentedOptStack stack(capacities);
    for (std::uint64_t i = 0; i < trace.size(); ++i)
        stack.access(trace[i], next_use[i]);
    return stack.curve(trace.size());
}

namespace {

/// One streaming record: u32 chunk offset + u64 next-use position.
constexpr std::uint64_t kRecordBytes = 12;

/** Create a unique spill directory under @p base (or the system temp
 *  directory). Uniqueness comes from pid + a process-wide counter so
 *  concurrent recorders — including sharded sibling processes on a
 *  shared temp dir — never collide. */
std::string
makeSpillDir(const std::string &base)
{
    namespace fs = std::filesystem;
    static std::atomic<std::uint64_t> seq{0};
    const fs::path root =
        base.empty() ? fs::temp_directory_path() : fs::path(base);
    const fs::path dir =
        root / ("kb_opt_spill_" + std::to_string(::getpid()) + "_" +
                std::to_string(seq.fetch_add(1)));
    std::error_code ec;
    fs::create_directories(dir, ec);
    KB_REQUIRE(!ec, "cannot create OPT spill directory ", dir.string());
    return dir.string();
}

} // namespace

OptNextUseRecorder::OptNextUseRecorder(OptStreamOptions options)
    : opts_(std::move(options))
{
    KB_REQUIRE(opts_.chunk_positions > 0 &&
                   opts_.chunk_positions <= (1ull << 32),
               "chunk_positions must fit the u32 record offset");
}

OptNextUseRecorder::~OptNextUseRecorder()
{
    if (!spill_dir_.empty()) {
        std::error_code ec;
        std::filesystem::remove_all(spill_dir_, ec);
    }
}

std::string
OptNextUseRecorder::bucketFile(std::size_t chunk) const
{
    return spill_dir_ + "/chunk_" + std::to_string(chunk) + ".bin";
}

void
OptNextUseRecorder::note(std::uint64_t addr)
{
    const auto [slot, inserted] = last_seen_.tryEmplace(addr);
    if (!inserted) {
        // This access is the next use of position *slot.
        const std::uint64_t prev = *slot;
        const auto chunk =
            static_cast<std::size_t>(prev / opts_.chunk_positions);
        if (buckets_.size() <= chunk)
            buckets_.resize(chunk + 1);
        buckets_[chunk].off.push_back(
            static_cast<std::uint32_t>(prev % opts_.chunk_positions));
        buckets_[chunk].next.push_back(pos_);
        pending_bytes_ += kRecordBytes;
        peak_pending_bytes_ =
            std::max(peak_pending_bytes_, pending_bytes_);
        if (pending_bytes_ > opts_.spill_threshold_bytes)
            spill();
    }
    *slot = pos_;
    ++pos_;
}

void
OptNextUseRecorder::noteRun(std::uint64_t base, std::uint64_t words)
{
    constexpr std::uint64_t kLookahead = 8;
    for (std::uint64_t i = 0; i < words; ++i) {
        if (i + kLookahead < words)
            last_seen_.prefetch(base + i + kLookahead);
        note(base + i);
    }
}

void
OptNextUseRecorder::spill()
{
    if (spill_dir_.empty())
        spill_dir_ = makeSpillDir(opts_.spill_dir);
    for (std::size_t c = 0; c < buckets_.size(); ++c) {
        Bucket &bucket = buckets_[c];
        if (bucket.off.empty())
            continue;
        // Raw fixed-width dumps are fine here: spill files are
        // process-private scratch consumed by the same binary, not
        // the portable on-disk store.
        std::ofstream out(bucketFile(c),
                          std::ios::binary | std::ios::app);
        const std::uint64_t n = bucket.off.size();
        out.write(reinterpret_cast<const char *>(&n), sizeof n);
        out.write(reinterpret_cast<const char *>(bucket.off.data()),
                  static_cast<std::streamsize>(n * sizeof(std::uint32_t)));
        out.write(reinterpret_cast<const char *>(bucket.next.data()),
                  static_cast<std::streamsize>(n * sizeof(std::uint64_t)));
        KB_REQUIRE(out.good(), "short write to OPT spill file ",
                   bucketFile(c));
        spilled_bytes_ += sizeof n + n * kRecordBytes;
        bucket = Bucket{}; // release capacity, not just size
    }
    pending_bytes_ = 0;
}

void
OptNextUseRecorder::loadChunk(std::size_t chunk,
                              std::vector<std::uint64_t> &next_use)
{
    // Sized to the positions the chunk really holds: a trace (or a
    // last chunk) shorter than chunk_positions gets a short array.
    const std::uint64_t base = chunk * opts_.chunk_positions;
    next_use.assign(static_cast<std::size_t>(std::min(
                        opts_.chunk_positions, pos_ - base)),
                    kNever);
    ++chunks_loaded_;
    // Each position was recorded at most once across disk and memory
    // (a position is "previous use" to at most one later access), so
    // segments apply in any order without conflicts.
    if (!spill_dir_.empty()) {
        std::ifstream in(bucketFile(chunk), std::ios::binary);
        std::vector<std::uint32_t> off;
        std::vector<std::uint64_t> next;
        std::uint64_t n = 0;
        while (in.read(reinterpret_cast<char *>(&n), sizeof n)) {
            off.resize(static_cast<std::size_t>(n));
            next.resize(static_cast<std::size_t>(n));
            in.read(reinterpret_cast<char *>(off.data()),
                    static_cast<std::streamsize>(n * sizeof(std::uint32_t)));
            in.read(reinterpret_cast<char *>(next.data()),
                    static_cast<std::streamsize>(n * sizeof(std::uint64_t)));
            KB_REQUIRE(in.good(), "truncated OPT spill file ",
                       bucketFile(chunk));
            for (std::size_t i = 0; i < off.size(); ++i)
                next_use[off[i]] = next[i];
        }
    }
    if (chunk < buckets_.size()) {
        Bucket &bucket = buckets_[chunk];
        for (std::size_t i = 0; i < bucket.off.size(); ++i)
            next_use[bucket.off[i]] = bucket.next[i];
        pending_bytes_ -= bucket.off.size() * kRecordBytes;
        bucket = Bucket{};
    }
}

void
OptNextUseRecorder::prefetchChunk(std::size_t chunk,
                                  std::vector<std::uint64_t> &next_use)
{
#if defined(POSIX_FADV_WILLNEED)
    // Readahead hint before the blocking read: with cold page cache
    // the kernel overlaps the file I/O with this worker's own
    // scatter work instead of faulting page by page.
    if (!spill_dir_.empty()) {
        const int fd = ::open(bucketFile(chunk).c_str(), O_RDONLY);
        if (fd >= 0) {
            ::posix_fadvise(fd, 0, 0, POSIX_FADV_WILLNEED);
            ::close(fd);
        }
    }
#endif
    loadChunk(chunk, next_use);
    ++chunks_prefetched_;
}

/**
 * Pass-2 sink: replays the re-emitted trace against the recorded
 * next uses, materializing one next-use chunk at a time (chunks are
 * crossed in order because trace positions ascend).
 *
 * With OptStreamOptions::prefetch the cursor double-buffers: while
 * the walk consumes chunk k, a worker thread materializes chunk k+1
 * into the standby buffer, and the boundary crossing becomes a
 * buffer swap instead of a blocking load. The worker is always
 * joined before any recorder state is touched again (loads mutate
 * the record buckets), and a standby buffer that does not match the
 * chunk being entered — impossible in the ascending walk, but kept
 * defensive — falls back to a synchronous load.
 */
class OptChunkCursor : public TraceSink
{
  public:
    OptChunkCursor(OptNextUseRecorder &recorder,
                   SegmentedOptStack &stack)
        : recorder_(recorder), stack_(stack),
          total_chunks_((recorder.pos_ +
                         recorder.opts_.chunk_positions - 1) /
                        recorder.opts_.chunk_positions)
    {
    }

    ~OptChunkCursor() override { drain(); }

    void onAccess(const Access &access) override { feed(access); }

    void
    onRun(std::uint64_t base, std::uint64_t words,
          AccessType type) override
    {
        for (std::uint64_t i = 0; i < words; ++i)
            feed(Access{base + i, type});
    }

    std::uint64_t position() const { return pos_; }

    /** Join any in-flight prefetch (the walk over a full trace ends
     *  with none pending; this covers truncated re-emissions). */
    void
    drain()
    {
        if (standby_load_.valid())
            standby_load_.wait();
    }

  private:
    void
    feed(const Access &access)
    {
        if (pos_ == chunk_end_) {
            // Chunk arrays end at the recorded length, so a longer
            // re-emission must stop here, not index past the last one.
            KB_REQUIRE(pos_ < recorder_.pos_,
                       "second emission did not replay the recorded "
                       "trace: more than ",
                       recorder_.pos_, " positions");
            const std::uint64_t cp = recorder_.opts_.chunk_positions;
            const std::uint64_t chunk = pos_ / cp;
            drain();
            if (standby_valid_ && standby_chunk_ == chunk) {
                next_use_.swap(standby_);
                standby_valid_ = false;
            } else {
                recorder_.loadChunk(static_cast<std::size_t>(chunk),
                                    next_use_);
            }
            chunk_base_ = chunk * cp;
            chunk_end_ = std::min(chunk_base_ + cp, recorder_.pos_);
            if (recorder_.opts_.prefetch &&
                chunk + 1 < total_chunks_) {
                standby_chunk_ = chunk + 1;
                standby_load_ = std::async(
                    std::launch::async, [this] {
                        recorder_.prefetchChunk(
                            static_cast<std::size_t>(standby_chunk_),
                            standby_);
                        standby_valid_ = true;
                    });
            }
        }
        stack_.access(access,
                      next_use_[static_cast<std::size_t>(
                          pos_ - chunk_base_)]);
        ++pos_;
    }

    OptNextUseRecorder &recorder_;
    SegmentedOptStack &stack_;
    std::uint64_t total_chunks_;
    std::vector<std::uint64_t> next_use_;
    std::vector<std::uint64_t> standby_;
    std::future<void> standby_load_;
    std::uint64_t standby_chunk_ = 0;
    bool standby_valid_ = false;
    std::uint64_t pos_ = 0;
    std::uint64_t chunk_base_ = 0;
    std::uint64_t chunk_end_ = 0;
};

OptCurve
OptNextUseRecorder::finish(
    const std::function<void(TraceSink &)> &emit_again,
    std::vector<std::uint64_t> capacities, OptStreamStats *stats)
{
    KB_REQUIRE(!finished_,
               "OPT recorder records were already consumed");
    finished_ = true;
    std::sort(capacities.begin(), capacities.end());
    capacities.erase(
        std::unique(capacities.begin(), capacities.end()),
        capacities.end());
    KB_REQUIRE(!capacities.empty() && capacities.front() > 0,
               "OPT curve needs at least one positive capacity");

    // The last-seen table served pass 1 only; release it before the
    // walk builds its own word table.
    last_seen_ = FlatWordMap<std::uint64_t>{};

    SegmentedOptStack stack(capacities);
    OptChunkCursor cursor(*this, stack);
    emit_again(cursor);
    cursor.drain();
    KB_REQUIRE(cursor.position() == pos_,
               "second emission did not replay the recorded trace: ",
               cursor.position(), " positions vs ", pos_);

    if (stats != nullptr) {
        stats->positions = pos_;
        stats->chunks_loaded = chunks_loaded_;
        stats->chunks_prefetched = chunks_prefetched_;
        stats->spilled_bytes = spilled_bytes_;
        stats->peak_pending_bytes = peak_pending_bytes_;
        // Double buffering holds two chunk arrays only while a
        // prefetch is in flight; a single-chunk trace (or prefetch
        // off) never allocates the standby buffer. No chunk array is
        // longer than the trace.
        const std::uint64_t chunk_buffers =
            chunks_prefetched_ > 0 ? 2 : 1;
        stats->peak_resident_bytes =
            peak_pending_bytes_ +
            chunk_buffers * std::min(opts_.chunk_positions, pos_) *
                sizeof(std::uint64_t);
    }
    return stack.curve(pos_);
}

OptCurve
simulateOptCurveStreaming(
    const std::function<void(TraceSink &)> &emit,
    std::vector<std::uint64_t> capacities, OptStreamOptions options,
    OptStreamStats *stats)
{
    OptNextUseRecorder recorder(std::move(options));
    emit(recorder);
    return recorder.finish(emit, std::move(capacities), stats);
}

} // namespace kb
