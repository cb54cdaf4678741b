#include "trace/reuse.hpp"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "util/logging.hpp"
#include "util/simd.hpp"

namespace kb {

namespace {

/** Process-wide default row-scan path; first read consults
 *  KB_ANALYZER, the --analyzer driver flag overrides via the
 *  setter. */
AnalyzerPath &
activeAnalyzerPathSlot()
{
    static AnalyzerPath path = [] {
        AnalyzerPath p = AnalyzerPath::Simd;
        const char *env = std::getenv("KB_ANALYZER");
        if (env != nullptr && *env != '\0')
            KB_REQUIRE(parseAnalyzerPath(env, p),
                       "KB_ANALYZER must be 'scalar' or 'simd', got ",
                       env);
        return p;
    }();
    return path;
}

/** ISA the Simd path runs on: host detection, overridable by the
 *  KB_SIMD env var (avx2|sse2|neon|generic, or auto; a forced ISA
 *  must be available on this build+host). */
simd::Isa
activeSimdIsa()
{
    static const simd::Isa isa = [] {
        const char *env = std::getenv("KB_SIMD");
        if (env == nullptr || *env == '\0' ||
            std::string_view(env) == "auto")
            return simd::detectIsa();
        simd::Isa forced = simd::Isa::Generic;
        KB_REQUIRE(simd::parseIsa(env, forced),
                   "KB_SIMD must be auto, avx2, sse2, neon or "
                   "generic, got ",
                   env);
        KB_REQUIRE(simd::isaAvailable(forced),
                   "KB_SIMD ISA not available on this build/host: ",
                   env);
        return forced;
    }();
    return isa;
}

// Dispatch at run granularity: the compressed-row loop is compiled
// once per dispatchable ISA (trace/plane_run.inc), so orderedAccess8
// inlines into the loop and the indirect call is paid once per run —
// not per access, which costs more than the access it guards.
#if defined(KB_SIMD_X86)

#define KB_PLANE_RUN_FN planeRunSse2
#define KB_PLANE_ISA kb::simd::sse2
#define KB_PLANE_TARGET
#include "trace/plane_run.inc"
#undef KB_PLANE_RUN_FN
#undef KB_PLANE_ISA
#undef KB_PLANE_TARGET

#define KB_PLANE_RUN_FN planeRunAvx2
#define KB_PLANE_ISA kb::simd::avx2
#define KB_PLANE_TARGET __attribute__((target("avx2")))
#include "trace/plane_run.inc"
#undef KB_PLANE_RUN_FN
#undef KB_PLANE_ISA
#undef KB_PLANE_TARGET

#elif defined(KB_SIMD_NEON)

#define KB_PLANE_RUN_FN planeRunNeon
#define KB_PLANE_ISA kb::simd::neon
#define KB_PLANE_TARGET
#include "trace/plane_run.inc"
#undef KB_PLANE_RUN_FN
#undef KB_PLANE_ISA
#undef KB_PLANE_TARGET

#endif

#define KB_PLANE_RUN_FN planeRunGeneric
#define KB_PLANE_ISA kb::simd::generic
#define KB_PLANE_TARGET
#include "trace/plane_run.inc"
#undef KB_PLANE_RUN_FN
#undef KB_PLANE_ISA
#undef KB_PLANE_TARGET

// Same recipe for MarkRank's rank query (trace/rank_scan.inc): the
// block-scan reductions of util/simd.hpp inline into one function per
// dispatchable ISA, and the fully associative pass pays one indirect
// call per rank query. The AVX2 query is the generic loops compiled
// for the avx2 target, which match hand-written AVX2 reductions.
#if defined(KB_SIMD_X86)

#define KB_RANK_FN rankIncSse2
#define KB_RANK_ISA kb::simd::sse2
#define KB_RANK_TARGET
#include "trace/rank_scan.inc"
#undef KB_RANK_FN
#undef KB_RANK_ISA
#undef KB_RANK_TARGET

#define KB_RANK_FN rankIncAvx2
#define KB_RANK_ISA kb::simd::generic
#define KB_RANK_TARGET __attribute__((target("avx2")))
#include "trace/rank_scan.inc"
#undef KB_RANK_FN
#undef KB_RANK_ISA
#undef KB_RANK_TARGET

#elif defined(KB_SIMD_NEON)

#define KB_RANK_FN rankIncNeon
#define KB_RANK_ISA kb::simd::neon
#define KB_RANK_TARGET
#include "trace/rank_scan.inc"
#undef KB_RANK_FN
#undef KB_RANK_ISA
#undef KB_RANK_TARGET

#endif

#define KB_RANK_FN rankIncGeneric
#define KB_RANK_ISA kb::simd::generic
#define KB_RANK_TARGET
#include "trace/rank_scan.inc"
#undef KB_RANK_FN
#undef KB_RANK_ISA
#undef KB_RANK_TARGET

detail::MultiSetRunFn
planeRunFor(simd::Isa isa)
{
    switch (isa) {
#if defined(KB_SIMD_X86)
    case simd::Isa::Avx2:
        return &planeRunAvx2;
    case simd::Isa::Sse2:
        return &planeRunSse2;
#elif defined(KB_SIMD_NEON)
    case simd::Isa::Neon:
        return &planeRunNeon;
#endif
    default:
        return &planeRunGeneric;
    }
}

} // namespace

const char *
analyzerPathName(AnalyzerPath path)
{
    return path == AnalyzerPath::Scalar ? "scalar" : "simd";
}

bool
parseAnalyzerPath(const std::string &name, AnalyzerPath &out)
{
    if (name == "scalar") {
        out = AnalyzerPath::Scalar;
        return true;
    }
    if (name == "simd") {
        out = AnalyzerPath::Simd;
        return true;
    }
    return false;
}

AnalyzerPath
activeAnalyzerPath()
{
    return activeAnalyzerPathSlot();
}

void
setActiveAnalyzerPath(AnalyzerPath path)
{
    activeAnalyzerPathSlot() = path;
}

const char *
analyzerSimdIsa()
{
    return simd::isaName(activeSimdIsa());
}

namespace detail {

RankIncFn
rankIncFor(AnalyzerPath path)
{
    // Scalar keeps MarkRank's inline loops (the KB_ANALYZER=scalar
    // oracle) by returning no override at all.
    if (path == AnalyzerPath::Scalar)
        return nullptr;
    switch (activeSimdIsa()) {
#if defined(KB_SIMD_X86)
    case simd::Isa::Avx2:
        return &rankIncAvx2;
    case simd::Isa::Sse2:
        return &rankIncSse2;
#elif defined(KB_SIMD_NEON)
    case simd::Isa::Neon:
        return &rankIncNeon;
#endif
    default:
        return &rankIncGeneric;
    }
}

} // namespace detail

namespace {

/** histogram -> suffix-sum table: out[d] = #entries with value >= d. */
std::vector<std::uint64_t>
suffixSums(const std::vector<std::uint64_t> &histogram)
{
    std::vector<std::uint64_t> suffix(histogram.size() + 1, 0);
    for (std::size_t d = histogram.size(); d-- > 0;)
        suffix[d] = suffix[d + 1] + histogram[d];
    return suffix;
}

} // namespace

MissCurve::MissCurve(std::vector<std::uint64_t> histogram,
                     std::uint64_t cold_misses, std::uint64_t accesses)
    : MissCurve(std::move(histogram), cold_misses, accesses, {}, 0)
{
}

MissCurve::MissCurve(std::vector<std::uint64_t> histogram,
                     std::uint64_t cold_misses, std::uint64_t accesses,
                     const std::vector<std::uint64_t> &write_histogram,
                     std::uint64_t cold_writebacks)
    : cold_(cold_misses), accesses_(accesses),
      cold_writebacks_(cold_writebacks)
{
    suffix_ = suffixSums(histogram);
    wb_suffix_ = suffixSums(write_histogram);
    // The largest finite distance + 1 is the capacity at which all
    // finite-distance accesses hit; precomputed so per-point sweep
    // lookups stay O(1).
    for (std::size_t d = suffix_.size(); d-- > 0;) {
        if (suffix_[d] > 0) {
            footprint_ = d + 1;
            break;
        }
    }
}

void
MissCurve::encode(ByteWriter &out) const
{
    out.vecU64(suffix_);
    out.vecU64(wb_suffix_);
    out.u64(cold_);
    out.u64(accesses_);
    out.u64(cold_writebacks_);
    // footprint_ is derived from suffix_ and recomputed on decode.
}

bool
MissCurve::decode(ByteReader &in, MissCurve &out)
{
    MissCurve curve;
    curve.suffix_ = in.vecU64();
    curve.wb_suffix_ = in.vecU64();
    curve.cold_ = in.u64();
    curve.accesses_ = in.u64();
    curve.cold_writebacks_ = in.u64();
    if (!in.ok())
        return false;
    // Structural sanity: suffix sums are non-increasing and end at 0,
    // and no capacity can miss more often than there are accesses. A
    // corrupt entry failing these would answer queries wrongly.
    auto validSuffix = [](const std::vector<std::uint64_t> &s) {
        for (std::size_t d = 1; d < s.size(); ++d)
            if (s[d] > s[d - 1])
                return false;
        return s.empty() || s.back() == 0;
    };
    if (!validSuffix(curve.suffix_) || !validSuffix(curve.wb_suffix_))
        return false;
    if (!curve.suffix_.empty() &&
        curve.cold_ + curve.suffix_.front() > curve.accesses_)
        return false;
    for (std::size_t d = curve.suffix_.size(); d-- > 0;) {
        if (curve.suffix_[d] > 0) {
            curve.footprint_ = d + 1;
            break;
        }
    }
    out = std::move(curve);
    return true;
}

std::uint64_t
MissCurve::missesAt(std::uint64_t capacity) const
{
    // An access with reuse distance d hits iff the LRU stack holds at
    // least d+1 entries... equivalently it hits iff d < capacity.
    if (capacity >= suffix_.size())
        return cold_;
    return cold_ + suffix_[capacity];
}

std::uint64_t
MissCurve::writebacksAt(std::uint64_t capacity) const
{
    // A write begins a new dirty epoch iff its word was evicted since
    // the previous write, i.e. its dirty distance is >= capacity;
    // each word's first write always does.
    if (capacity >= wb_suffix_.size())
        return cold_writebacks_;
    return cold_writebacks_ + wb_suffix_[capacity];
}

MultiSetReuseAnalyzer::MultiSetReuseAnalyzer(
    const std::vector<std::uint64_t> &set_counts,
    std::uint64_t max_ways)
    : MultiSetReuseAnalyzer(set_counts, max_ways, activeAnalyzerPath())
{
}

MultiSetReuseAnalyzer::MultiSetReuseAnalyzer(
    const std::vector<std::uint64_t> &set_counts,
    std::uint64_t max_ways, AnalyzerPath path)
    : max_ways_(max_ways), path_(path), sets_(set_counts)
{
    KB_REQUIRE(!sets_.empty() && max_ways_ > 0,
               "multi-set analyzer needs set counts and max_ways > 0");
    std::size_t slots = 0;
    for (const auto sets : sets_) {
        KB_REQUIRE(sets > 0, "set counts must be positive");
        plane_base_.push_back(slots);
        slots += static_cast<std::size_t>(sets * max_ways_);
    }
    const std::size_t row = static_cast<std::size_t>(max_ways_) + 1;
    hist_.assign(sets_.size() * row, 0);
    wb_hist_.assign(sets_.size() * row, 0);
    cold_writebacks_.assign(sets_.size(), 0);
    if (path_ != AnalyzerPath::Simd || max_ways_ > 8) {
        allocateStampRows();
        return;
    }
    // Simd planes of at most 8 ways start on the compressed
    // recency-ordered rows (16 u32 per set, one 64-byte line; see
    // util/simd.hpp's ordered-row contract). 15 u32 of
    // over-allocation lets the base pointer round up to a 64-byte
    // boundary; the buffer address survives moves, and every other
    // backing vector has reached its final size, so the prebuilt
    // plane contexts stay valid for the analyzer's lifetime.
    std::size_t row_words = 0;
    for (const auto sets : sets_)
        row_words += static_cast<std::size_t>(sets) * 16;
    rows_buf_.assign(row_words + 15, 0);
    const auto misalign =
        reinterpret_cast<std::uintptr_t>(rows_buf_.data()) % 64;
    std::uint32_t *rows =
        rows_buf_.data() + (misalign ? (64 - misalign) / 4 : 0);
    for (std::size_t i = 0; i < row_words; ++i)
        rows[i] = (i % 16) < 8 ? simd::kOrderedEmpty : 0u;
    plane_run_ = planeRunFor(activeSimdIsa());
    for (std::size_t plane = 0; plane < sets_.size(); ++plane) {
        plane_ctx_.push_back({hist_.data() + plane * row,
                              wb_hist_.data() + plane * row,
                              cold_writebacks_.data() + plane, rows,
                              sets_[plane], max_ways_});
        rows += static_cast<std::size_t>(sets_[plane]) * 16;
    }
}

// The pre-SIMD row scan, kept verbatim as the bit-exactness oracle
// (KB_ANALYZER=scalar); only the row base math moved to the caller.
// It also serves every row the compressed form cannot hold: planes
// wider than 8 ways and rows demoted past the 32-bit address range.
void
MultiSetReuseAnalyzer::planeStepScalar(std::size_t plane,
                                       std::size_t row,
                                       std::uint64_t addr,
                                       std::uint64_t now, bool write)
{
    std::uint64_t *addrs = slot_addr_.data() + row;
    std::uint64_t *stamps = slot_stamp_.data() + row;
    std::uint64_t *windows = slot_window_.data() + row;
    std::uint64_t *hist =
        hist_.data() + plane * (static_cast<std::size_t>(max_ways_) + 1);

    // Resident fast path: words used after this one's last use are
    // exactly the row slots with a larger stamp (a more recent
    // distinct word cannot have left the row while an older one
    // stays), so the per-set stack distance is one count — no list
    // maintenance and no word-table lookup.
    std::uint64_t hit = max_ways_;
    for (std::uint64_t i = 0; i < max_ways_; ++i) {
        if (stamps[i] != 0 && addrs[i] == addr) {
            hit = i;
            break;
        }
    }
    if (hit != max_ways_) {
        const std::uint64_t hit_stamp = stamps[hit];
        std::uint64_t distance = 0;
        for (std::uint64_t i = 0; i < max_ways_; ++i)
            distance += stamps[i] > hit_stamp;
        ++hist[distance];
        stamps[hit] = now;
        // kColdWindow is the max of uint64, so std::max keeps the
        // "no write yet" state sticky (same trick as the fully
        // associative analyzer).
        windows[hit] = std::max(windows[hit], distance);
        if (write) {
            if (windows[hit] == kColdWindow)
                ++cold_writebacks_[plane];
            else
                ++wb_hist_[plane *
                               (static_cast<std::size_t>(max_ways_) + 1) +
                           windows[hit]];
            windows[hit] = 0;
        }
        return;
    }

    // Cold or lumped — indistinguishable on purpose: both miss and
    // both start a dirty epoch at every queried associativity
    // W <= max_ways_, so no word table is needed at all (that
    // telling them apart is unobservable in the curve's exact range
    // is what keeps this pass as cheap as the replay it replaces).
    ++hist[max_ways_];
    std::uint64_t window = kColdWindow;
    if (write) {
        ++cold_writebacks_[plane];
        window = 0;
    }

    // Fill an empty slot, else displace the set's LRU word; its
    // epoch state needs no saving, for the same reason.
    std::uint64_t victim = 0;
    for (std::uint64_t i = 0; i < max_ways_; ++i) {
        if (stamps[i] == 0) {
            victim = i;
            break;
        }
        if (stamps[i] < stamps[victim])
            victim = i;
    }
    addrs[victim] = addr;
    stamps[victim] = now;
    windows[victim] = window;
}

void
MultiSetReuseAnalyzer::allocateStampRows()
{
    const std::size_t slots =
        plane_base_.back() +
        static_cast<std::size_t>(sets_.back() * max_ways_);
    slot_addr_.assign(slots, 0);
    slot_stamp_.assign(slots, 0);
    slot_window_.assign(slots, 0);
}

void
MultiSetReuseAnalyzer::demoteCompressedRows()
{
    allocateStampRows();
    for (std::size_t plane = 0; plane < sets_.size(); ++plane) {
        for (std::uint64_t set = 0; set < sets_[plane]; ++set) {
            const std::size_t slot =
                plane_base_[plane] +
                static_cast<std::size_t>(set * max_ways_);
            const std::uint32_t *row = plane_ctx_[plane].rows + set * 16;
            for (std::uint64_t j = 0; j < max_ways_; ++j) {
                const std::uint32_t a = row[j];
                const std::uint32_t w = row[8 + j];
                if (a == simd::kOrderedEmpty)
                    continue; // allocateStampRows() zeroed the slot
                slot_addr_[slot + j] = a;
                // Recency order becomes descending stamps; position
                // j implies at least j+1 prior accesses, so the
                // stamp stays >= 1 (0 is the empty sentinel) and
                // below every future clock value.
                slot_stamp_[slot + j] = clock_ - j;
                slot_window_[slot + j] =
                    w == simd::kOrderedColdWindow ? kColdWindow : w;
            }
        }
    }
    plane_ctx_.clear();
    plane_run_ = nullptr;
    rows_buf_.clear();
    rows_buf_.shrink_to_fit();
}

void
MultiSetReuseAnalyzer::scalarRun(std::uint64_t base, std::uint64_t words,
                                 bool write)
{
    const std::uint64_t now0 = clock_;
    clock_ += words;
    accesses_ += words;
    // Scalar bulk path: within a contiguous run the set index
    // advances by one (mod sets) per word, so the per-word modulo
    // becomes one wrap test — and iterating plane-major keeps each
    // plane's slot arrays hot across the whole run. Planes are
    // independent and word i keeps clock now0+i+1, so the result is
    // bit-identical to feeding the words one at a time.
    for (std::size_t plane = 0; plane < sets_.size(); ++plane) {
        const std::uint64_t sets = sets_[plane];
        std::uint64_t set = base % sets;
        for (std::uint64_t i = 0; i < words; ++i) {
            const std::size_t row =
                plane_base_[plane] +
                static_cast<std::size_t>(set * max_ways_);
            planeStepScalar(plane, row, base + i, now0 + i + 1, write);
            if (++set == sets)
                set = 0;
        }
    }
}

void
MultiSetReuseAnalyzer::onAccess(const Access &access)
{
    onRun(access.addr, 1, access.type);
}

void
MultiSetReuseAnalyzer::onRun(std::uint64_t base, std::uint64_t words,
                             AccessType type)
{
    if (words == 0)
        return;
    const bool write = type == AccessType::Write;
    if (plane_run_ != nullptr &&
        (base > simd::kOrderedMaxAddr ||
         words - 1 > simd::kOrderedMaxAddr - base))
        demoteCompressedRows();
    if (plane_run_ == nullptr) {
        scalarRun(base, words, write);
        return;
    }
    // Hand the run to the ISA-specialized compressed-row loop
    // (trace/plane_run.inc): ONE indirect call per run. The clock
    // still advances, so a later demotion can rebuild stamps.
    clock_ += words;
    accesses_ += words;
    plane_run_(plane_ctx_.data(), plane_ctx_.size(), base, words, write);
}

MissCurve
MultiSetReuseAnalyzer::waysCurve(std::size_t plane) const
{
    KB_REQUIRE(plane < sets_.size(),
               "no such analyzer plane: ", plane);
    const std::size_t row = static_cast<std::size_t>(max_ways_) + 1;
    const auto *hist = hist_.data() + plane * row;
    // The lumped bucket rides in the cold term so queries beyond
    // max_ways_ saturate at it (the documented behavior) instead of
    // silently reporting zero misses; for W <= max_ways_ the split
    // is equivalent (both terms miss at every such W).
    std::vector<std::uint64_t> finite(
        hist, hist + static_cast<std::ptrdiff_t>(max_ways_));
    std::vector<std::uint64_t> wb(
        wb_hist_.begin() + static_cast<std::ptrdiff_t>(plane * row),
        wb_hist_.begin() +
            static_cast<std::ptrdiff_t>(plane * row + row));
    return MissCurve(std::move(finite), hist[max_ways_], accesses_, wb,
                     cold_writebacks_[plane]);
}

ReuseDistanceAnalyzer::ReuseDistanceAnalyzer()
    : ReuseDistanceAnalyzer(activeAnalyzerPath())
{
}

ReuseDistanceAnalyzer::ReuseDistanceAnalyzer(AnalyzerPath path)
    : path_(path), rank_(path)
{
}

void
ReuseDistanceAnalyzer::compactStamps()
{
    // Renumber every tracked word's stamp by its rank order: relative
    // order is all a rank query ever reads, so distances are
    // unchanged while the domain shrinks from pos_ back to one stamp
    // per word. A stamp -> id scatter plus an in-order scan does the
    // renumbering in O(pos_), and pos_ <= 4 * footprint + one run
    // here, so the amortized cost is O(1) per access.
    const std::size_t n = last_use_.size();
    std::vector<std::uint32_t> owner(
        static_cast<std::size_t>(pos_), kColdId);
    for (std::size_t id = 0; id < n; ++id)
        owner[static_cast<std::size_t>(last_use_[id])] =
            static_cast<std::uint32_t>(id);
    std::uint64_t next = 0;
    for (std::size_t p = 0; p < owner.size(); ++p) {
        if (owner[p] != kColdId)
            last_use_[owner[p]] = next++;
    }
    KB_ASSERT(next == n);
    rank_ = MarkRank(path_);
    rank_.grow(n);
    rank_.setRun(0, n);
    pos_ = n;
}

std::uint32_t
ReuseDistanceAnalyzer::coldAppend(std::uint64_t pos, bool write)
{
    const auto id = static_cast<std::uint32_t>(last_use_.size());
    KB_ASSERT(id != kColdId);
    last_use_.push_back(pos);
    ++cold_;
    if (write) {
        // A word's first write is dirty at every capacity: whether
        // the epoch ends by eviction or by the final flush, this
        // write's data crosses the boundary exactly once.
        ++cold_writebacks_;
        dirty_window_.push_back(0);
    } else {
        dirty_window_.push_back(kColdWindow);
    }
    return id;
}

void
ReuseDistanceAnalyzer::warmAccess(std::uint32_t id, std::uint64_t now,
                                  bool write)
{
    const std::uint64_t prev = last_use_[id];

    // Distinct words touched strictly after prev: every tracked word
    // holds exactly one mark and all marks sit at positions < now, so
    // the count is total() - (marks at <= prev). One rank query per
    // warm access — the Fenwick formulation needed two prefix sums.
    const std::uint64_t distance = rank_.total() - rank_.rankInc(prev);

    if (hist_.size() <= distance)
        hist_.resize(distance + 1, 0);
    ++hist_[distance];

    // Move the word's mark from its previous slot to "now".
    rank_.clear(prev);
    rank_.set(now);
    last_use_[id] = now;

    // kColdWindow is the max of uint64, so std::max keeps it sticky.
    std::uint64_t &window = dirty_window_[id];
    window = std::max(window, distance);
    if (write) {
        if (window == kColdWindow) {
            ++cold_writebacks_;
        } else {
            if (wb_hist_.size() <= window)
                wb_hist_.resize(window + 1, 0);
            ++wb_hist_[window];
        }
        window = 0;
    }
}

void
ReuseDistanceAnalyzer::onAccess(const Access &access)
{
    maybeCompact();
    ++time_;
    const std::uint64_t now = pos_++;
    rank_.grow(now + 1);
    const auto [slot, inserted] = words_.tryEmplace(access.addr);
    if (inserted) {
        *slot = coldAppend(now, access.isWrite());
        rank_.set(now);
        return;
    }
    warmAccess(*slot, now, access.isWrite());
}

void
ReuseDistanceAnalyzer::onRun(std::uint64_t base, std::uint64_t words,
                             AccessType type)
{
    if (words == 0)
        return;
    maybeCompact();
    const bool write = type == AccessType::Write;
    const std::uint64_t time0 = pos_;

    // Simd-path block shortcut: a recorded block covering this run
    // means words base..base+words-1 hold ids id0..id0+words-1 (ids
    // are permanent, so the record cannot go stale) — all warm, no
    // table walk needed. One probe replaces the whole map phase.
    if (path_ == AnalyzerPath::Simd && words >= 2) {
        if (const std::uint64_t *entry = blocks_.find(base);
            entry != nullptr && (*entry & 0xffffffffull) >= words) {
            const auto id0 = static_cast<std::uint32_t>(*entry >> 32);
            time_ += words;
            pos_ = time0 + words;
            rank_.grow(pos_);
            runWarmBlock(id0, words, time0, write);
            return;
        }
    }

    // Phase 1: one map-only pass. Addresses within a run are
    // distinct, so each access's position and last-use answer are
    // independent of the others — the table probes batch cleanly
    // ahead of all counting work, and cold bookkeeping (which needs
    // no rank query) completes here.
    constexpr std::uint64_t kLookahead = 8;
    run_ids_.resize(static_cast<std::size_t>(words));
    std::uint32_t first_id = kColdId;
    bool affine = true;
    for (std::uint64_t i = 0; i < words; ++i) {
        if (i + kLookahead < words)
            words_.prefetch(base + i + kLookahead);
        const auto [slot, inserted] = words_.tryEmplace(base + i);
        std::uint32_t id;
        if (inserted) {
            id = coldAppend(time0 + i, write);
            *slot = id;
            run_ids_[i] = kColdId;
        } else {
            id = *slot;
            run_ids_[i] = id;
        }
        if (i == 0)
            first_id = id;
        else if (id != static_cast<std::uint64_t>(first_id) + i)
            affine = false;
    }
    // The ids proved contiguous from the base's id — record the block
    // so the run's next occurrence skips phase 1 entirely. A run's
    // first touch always qualifies (cold appends take consecutive
    // fresh ids), which is why tiled kernels hit the shortcut on
    // every repetition after the first.
    if (path_ == AnalyzerPath::Simd && affine && words >= 2 &&
        words <= 0xffffffffull) {
        const auto [slot, inserted] = blocks_.tryEmplace(base);
        if (inserted || (*slot & 0xffffffffull) < words)
            *slot = (static_cast<std::uint64_t>(first_id) << 32) |
                    words;
    }
    time_ += words;
    pos_ = time0 + words;
    rank_.grow(pos_);

    // Phase 2: counting pass, no table probes. Cold streaks mark the
    // bitmap in bulk (a streak must land before the next warm rank
    // query sees its positions). Warm accesses whose previous-use
    // stamps are *consecutive* — a block re-touched in the same
    // order as last time, the dominant pattern of tiled kernels —
    // all share one reuse distance: each member's clear-below/
    // set-above mark move cancels out of the next member's rank. One
    // rank query plus bulk mark moves then serve the whole streak.
    std::uint64_t i = 0;
    while (i < words) {
        if (run_ids_[i] == kColdId) {
            std::uint64_t len = 1;
            while (i + len < words && run_ids_[i + len] == kColdId)
                ++len;
            rank_.setRun(time0 + i, len);
            i += len;
            continue;
        }
        const std::uint64_t prev = last_use_[run_ids_[i]];
        std::uint64_t len = 1;
        while (i + len < words && run_ids_[i + len] != kColdId &&
               last_use_[run_ids_[i + len]] == prev + len)
            ++len;
        if (len == 1) {
            warmAccess(run_ids_[i], time0 + i, write);
            ++i;
            continue;
        }
        const std::uint64_t distance =
            rank_.total() - rank_.rankInc(prev);
        if (hist_.size() <= distance)
            hist_.resize(distance + 1, 0);
        hist_[distance] += len;
        rank_.clearRun(prev, len);
        rank_.setRun(time0 + i, len);
        for (std::uint64_t j = 0; j < len; ++j) {
            const std::uint32_t id = run_ids_[i + j];
            last_use_[id] = time0 + i + j;
            std::uint64_t &window = dirty_window_[id];
            window = std::max(window, distance);
            if (write) {
                if (window == kColdWindow) {
                    ++cold_writebacks_;
                } else {
                    if (wb_hist_.size() <= window)
                        wb_hist_.resize(window + 1, 0);
                    ++wb_hist_[window];
                }
                window = 0;
            }
        }
        i += len;
    }
}

void
ReuseDistanceAnalyzer::runWarmBlock(std::uint32_t id0,
                                    std::uint64_t words,
                                    std::uint64_t time0, bool write)
{
    // Phase 2's warm loop with the id array replaced by arithmetic:
    // word i is id0+i, so streak detection and all state updates read
    // last_use_ / dirty_window_ directly. Identical arithmetic in the
    // same order as the general path — only the map work is gone.
    std::uint64_t i = 0;
    while (i < words) {
        const auto id = static_cast<std::uint32_t>(id0 + i);
        const std::uint64_t prev = last_use_[id];
        std::uint64_t len = 1;
        while (i + len < words &&
               last_use_[id0 + i + len] == prev + len)
            ++len;
        if (len == 1) {
            warmAccess(id, time0 + i, write);
            ++i;
            continue;
        }
        const std::uint64_t distance =
            rank_.total() - rank_.rankInc(prev);
        if (hist_.size() <= distance)
            hist_.resize(distance + 1, 0);
        hist_[distance] += len;
        rank_.clearRun(prev, len);
        rank_.setRun(time0 + i, len);
        for (std::uint64_t j = 0; j < len; ++j) {
            const auto wid = static_cast<std::uint32_t>(id0 + i + j);
            last_use_[wid] = time0 + i + j;
            std::uint64_t &window = dirty_window_[wid];
            window = std::max(window, distance);
            if (write) {
                if (window == kColdWindow) {
                    ++cold_writebacks_;
                } else {
                    if (wb_hist_.size() <= window)
                        wb_hist_.resize(window + 1, 0);
                    ++wb_hist_[window];
                }
                window = 0;
            }
        }
        i += len;
    }
}

MissCurve
ReuseDistanceAnalyzer::missCurve() const
{
    return MissCurve(hist_, cold_, time_, wb_hist_, cold_writebacks_);
}

} // namespace kb
