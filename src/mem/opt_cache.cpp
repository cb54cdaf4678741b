#include "mem/opt_cache.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
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

/** The dense id of a trace's next new word, given @p words seen. */
std::uint32_t
newWordId(std::size_t words)
{
    KB_REQUIRE(words < (1ull << 32),
               "OPT word ids are 32-bit: a trace footprint of 2^32 "
               "words or more is not supported");
    return static_cast<std::uint32_t>(words);
}

/** Sort and deduplicate an OPT capacity grid; fatal unless non-empty
 *  and positive. */
void
normalizeCapacities(std::vector<std::uint64_t> &caps)
{
    std::sort(caps.begin(), caps.end());
    caps.erase(std::unique(caps.begin(), caps.end()), caps.end());
    KB_REQUIRE(!caps.empty() && caps.front() > 0,
               "OPT curve needs at least one positive capacity");
}

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

    /** Feed the access at the next trace position: @p id is its
     *  word's dense id in first-occurrence order, so the first touch
     *  of a word comes with id == words seen so far. */
    void access(const Access &a, std::uint64_t next_use,
                std::uint32_t id);

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
    std::vector<Word> words_; ///< index = dense word id
    std::vector<std::uint64_t> hist_;    ///< index = band found (1..k+1)
    std::vector<std::uint64_t> wb_hist_; ///< index = window band
    std::uint64_t cold_ = 0;
    std::uint64_t cold_writebacks_ = 0;
    /// Positions reached so far, the current access's included: an
    /// entry is stale iff its key is below this.
    std::uint64_t walked_ = 0;
};

void
SegmentedOptStack::access(const Access &a, std::uint64_t next_use,
                          std::uint32_t id)
{
    const std::size_t k = caps_.size();
    ++walked_;
    const bool inserted = id == words_.size();
    if (inserted)
        words_.push_back(Word{});
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
    normalizeCapacities(capacities);

    // Pass 1: next-use indices, as in simulateOpt.
    std::vector<std::uint64_t> next_use(trace.size(), kNever);
    FlatWordMap<std::uint64_t> last_seen;
    for (std::uint64_t i = trace.size(); i-- > 0;) {
        const auto [slot, inserted] = last_seen.tryEmplace(trace[i].addr);
        if (!inserted)
            next_use[i] = *slot;
        *slot = i;
    }

    // Pass 2: one walk of the segmented stack, with word ids in
    // first-occurrence order.
    SegmentedOptStack stack(capacities);
    FlatWordMap<std::uint32_t> ids;
    for (std::uint64_t i = 0; i < trace.size(); ++i) {
        const auto [slot, inserted] = ids.tryEmplace(trace[i].addr);
        if (inserted)
            *slot = newWordId(ids.size() - 1);
        stack.access(trace[i], next_use[i], *slot);
    }
    return stack.curve(trace.size());
}

namespace {

/// Bytes of one chunk position (u64 next use + u32 word id) and of
/// one patch record (u32 chunk offset + u64 next use).
constexpr std::uint64_t kEntryBytes = 12;

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

// Raw fixed-width dumps are fine here: spill files are process-private
// scratch consumed by the same binary, not the portable on-disk store.
template <typename T>
void
writeRaw(std::ofstream &out, const std::vector<T> &v)
{
    out.write(reinterpret_cast<const char *>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
void
readRaw(std::ifstream &in, std::vector<T> &v, std::uint64_t n)
{
    v.resize(static_cast<std::size_t>(n));
    in.read(reinterpret_cast<char *>(v.data()),
            static_cast<std::streamsize>(n * sizeof(T)));
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
OptNextUseRecorder::spillFile(std::size_t chunk) const
{
    return spill_dir_ + "/chunk_" + std::to_string(chunk) + ".bin";
}

void
OptNextUseRecorder::note(std::uint64_t addr)
{
    if (pos_ == open_end_)
        openChunk();
    const auto [slot, inserted] = last_seen_.tryEmplace(addr);
    if (inserted) {
        *slot = newWordId(last_pos_.size());
        last_pos_.push_back(pos_);
    } else {
        // This access is the next use of position `prev`.
        std::uint64_t &prev = last_pos_[*slot];
        if (prev >= spilled_end_)
            chunks_[prev / opts_.chunk_positions]
                .next[prev % opts_.chunk_positions] = pos_;
        else
            patch(prev, pos_);
        prev = pos_;
    }
    Chunk &open = chunks_.back();
    open.next.push_back(kNever);
    open.id.push_back(*slot);
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
OptNextUseRecorder::patch(std::uint64_t prev, std::uint64_t next)
{
    Patches &p = patches_[prev / opts_.chunk_positions];
    p.off.push_back(
        static_cast<std::uint32_t>(prev % opts_.chunk_positions));
    p.next.push_back(next);
    pending_bytes_ += kEntryBytes;
    notePeak(chunks_.back().next.size() * kEntryBytes);
    if (pending_bytes_ > opts_.spill_threshold_bytes)
        spill(chunks_.size() - 1); // all but the open chunk
}

void
OptNextUseRecorder::openChunk()
{
    if (!chunks_.empty())
        closeChunk();
    // Reserved, not filled: pages are touched only as positions
    // arrive. The reservation stops at the default chunk size, so a
    // longer chunk grows on demand instead of reserving its span.
    const auto reserve = static_cast<std::size_t>(std::min(
        opts_.chunk_positions, OptStreamOptions{}.chunk_positions));
    Chunk &chunk = chunks_.emplace_back();
    chunk.next.reserve(reserve);
    chunk.id.reserve(reserve);
    open_end_ = pos_ + opts_.chunk_positions;
}

void
OptNextUseRecorder::closeChunk()
{
    const std::uint64_t bytes = chunks_.back().next.size() * kEntryBytes;
    notePeak(bytes);
    if (pending_bytes_ + bytes > opts_.spill_threshold_bytes) {
        spill(chunks_.size());
    } else {
        pending_bytes_ += bytes;
        notePeak(0);
    }
}

void
OptNextUseRecorder::spill(std::size_t closed)
{
    if (spill_dir_.empty())
        spill_dir_ = makeSpillDir(opts_.spill_dir);
    // A chunk's file holds its dense arrays, then the patch segments
    // appended after the chunk went to disk.
    patches_.resize(closed);
    for (std::size_t c = 0; c < closed; ++c) {
        const bool dense = c * opts_.chunk_positions >= spilled_end_;
        Patches &p = patches_[c];
        if (!dense && p.off.empty())
            continue;
        std::ofstream out(spillFile(c), std::ios::binary |
                          (dense ? std::ios::trunc : std::ios::app));
        if (dense) {
            writeRaw(out, chunks_[c].next);
            writeRaw(out, chunks_[c].id);
            spilled_bytes_ += chunks_[c].next.size() * kEntryBytes;
            chunks_[c] = Chunk{}; // release capacity, not just size
        } else {
            const std::uint64_t n = p.off.size();
            out.write(reinterpret_cast<const char *>(&n), sizeof n);
            writeRaw(out, p.off);
            writeRaw(out, p.next);
            spilled_bytes_ += sizeof n + n * kEntryBytes;
            p = Patches{};
        }
        KB_REQUIRE(out.good(), "short write to OPT spill file ",
                   spillFile(c));
    }
    spilled_end_ = closed * opts_.chunk_positions;
    pending_bytes_ = 0;
}

void
OptNextUseRecorder::loadChunk(std::size_t chunk, Chunk &out)
{
    ++chunks_loaded_;
    if (chunk * opts_.chunk_positions >= spilled_end_) {
        pending_bytes_ -= chunks_[chunk].next.size() * kEntryBytes;
        out = std::move(chunks_[chunk]);
        return;
    }
#if defined(POSIX_FADV_WILLNEED)
    // Readahead hint for the next spilled chunk, so its disk reads
    // overlap the walk of this one.
    if ((chunk + 1) * opts_.chunk_positions < spilled_end_) {
        const int fd = ::open(spillFile(chunk + 1).c_str(), O_RDONLY);
        if (fd >= 0) {
            ::posix_fadvise(fd, 0, 0, POSIX_FADV_WILLNEED);
            ::close(fd);
        }
    }
#endif
    // Every chunk but the last holds chunk_positions positions. Each
    // position gets at most one next use, so patches from disk and
    // memory apply in any order without conflicts.
    const std::uint64_t n = std::min(
        opts_.chunk_positions, pos_ - chunk * opts_.chunk_positions);
    const auto apply = [&out](const Patches &p) {
        for (std::size_t i = 0; i < p.off.size(); ++i)
            out.next[p.off[i]] = p.next[i];
    };
    std::ifstream in(spillFile(chunk), std::ios::binary);
    readRaw(in, out.next, n);
    readRaw(in, out.id, n);
    KB_REQUIRE(in.good(), "truncated OPT spill file ", spillFile(chunk));
    Patches p;
    for (std::uint64_t count = 0;
         in.read(reinterpret_cast<char *>(&count), sizeof count);) {
        readRaw(in, p.off, count);
        readRaw(in, p.next, count);
        KB_REQUIRE(in.good(), "truncated OPT spill file ",
                   spillFile(chunk));
        apply(p);
    }
    apply(patches_[chunk]);
    pending_bytes_ -= patches_[chunk].off.size() * kEntryBytes;
    patches_[chunk] = Patches{};
    notePeak(n * kEntryBytes);
}

OptCurve
OptNextUseRecorder::finish(
    const std::function<void(TraceSink &)> &emit_again,
    std::vector<std::uint64_t> capacities, OptStreamStats *stats)
{
    KB_REQUIRE(!finished_,
               "OPT recorder records were already consumed");
    finished_ = true;
    normalizeCapacities(capacities);

    // The word tables served pass 1 only; release them before the
    // walk builds its own word states. The last chunk joins the spill
    // budget like every other.
    last_seen_ = FlatWordMap<std::uint32_t>{};
    last_pos_ = std::vector<std::uint64_t>{};
    if (!chunks_.empty())
        closeChunk();

    // Pass 2 walks the re-emitted trace one chunk at a time; chunks
    // are crossed in order because trace positions ascend.
    SegmentedOptStack stack(capacities);
    Chunk chunk;
    std::uint64_t pos = 0, chunk_base = 0, chunk_end = 0;
    const auto feed = [&](const Access &access) {
        if (pos == chunk_end) {
            // Chunk arrays end at the recorded length, so a longer
            // re-emission must stop here, not index past the last one.
            KB_REQUIRE(pos < pos_,
                       "second emission did not replay the recorded "
                       "trace: more than ",
                       pos_, " positions");
            loadChunk(static_cast<std::size_t>(pos / opts_.chunk_positions),
                      chunk);
            chunk_base = pos;
            chunk_end = pos + chunk.next.size();
        }
        const auto off = static_cast<std::size_t>(pos++ - chunk_base);
        stack.access(access, chunk.next[off], chunk.id[off]);
    };
    CallbackSink cursor(feed, [&](std::uint64_t base, std::uint64_t words,
                                  AccessType type) {
        for (std::uint64_t i = 0; i < words; ++i)
            feed(Access{base + i, type});
    });
    emit_again(cursor);
    KB_REQUIRE(pos == pos_,
               "second emission did not replay the recorded trace: ",
               pos, " positions vs ", pos_);

    if (stats != nullptr) {
        stats->positions = pos_;
        stats->chunks_loaded = chunks_loaded_;
        stats->spilled_bytes = spilled_bytes_;
        stats->peak_pending_bytes = peak_pending_bytes_;
        stats->peak_resident_bytes = peak_resident_bytes_;
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
