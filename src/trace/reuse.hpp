/**
 * @file
 * Exact LRU reuse-distance analysis, fully associative and per-set.
 *
 * The reuse distance of an access is the number of *distinct* words
 * touched since the previous access to the same word (infinite for the
 * first touch). A fully associative LRU memory of capacity W misses
 * exactly on accesses whose reuse distance is >= W, so one pass over a
 * trace yields the whole miss-count-versus-capacity curve — which is
 * how the engine's stack-distance fast path measures Cio(M) for every
 * M at once (see engine/engine.hpp).
 *
 * Write-back traffic obeys the same inclusion structure. A resident
 * word's dirty interval ends when it is evicted, and under LRU it is
 * evicted before its next access iff that chain of accesses contains
 * a reuse distance >= W. So each write carries a "dirty distance": the
 * largest reuse distance among the accesses to its word since the
 * previous write (infinite for a word's first write). A capacity-W
 * LRU with end-of-trace flush writes back exactly the writes whose
 * dirty distance is >= W plus every first write — one histogram gives
 * writebacksAt(M) for all M, and ioWords(M) = misses + writebacks
 * matches a direct LruCache replay bit for bit.
 *
 * Implementation: counting "distinct words since prev" is a rank query
 * over a bitmap with one mark per tracked word, kept at the word's
 * most recent use position. MarkRank stores that bitmap with blocked
 * count summaries (64 positions per u64 word, then 64-word and
 * 64*64-word group counts) so a rank is a handful of popcounts plus
 * short sequential sums — branch-light arithmetic the compiler
 * vectorizes — instead of the pointer-chasing O(log T) walk of the
 * Fenwick formulation it replaced. Marks live in a *compact* stamp
 * domain that is renumbered whenever the clock outruns the footprint
 * by 4x (rank queries only read the marks' relative order), so the
 * rank arrays stay O(footprint) and cache resident no matter how
 * long the trace runs. Two fast-path refinements ride on
 * top: the word table is an open-addressing FlatWordMap mapping
 * addresses to dense ids over SoA state arrays (no growth-invalidated
 * pointers), and onRun() splits each contiguous run into a map-only
 * phase followed by a counting phase, so cold streaks mark the bitmap
 * in bulk and warm accesses batch their rank work.
 */

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "trace/sink.hpp"
#include "util/binio.hpp"
#include "util/flat_map.hpp"

namespace kb {

/**
 * Miss and writeback counts as a function of LRU capacity, derived
 * from reuse-distance histograms.
 */
class MissCurve
{
  public:
    /** Miss curve only (no write-back accounting). */
    MissCurve(std::vector<std::uint64_t> histogram,
              std::uint64_t cold_misses, std::uint64_t accesses);

    /**
     * Full curve with write-back accounting.
     *
     * @param histogram        finite reuse distances (index = distance)
     * @param cold_misses      first touches
     * @param accesses         total accesses analyzed
     * @param write_histogram  finite dirty distances (index = distance)
     * @param cold_writebacks  writes that begin a dirty epoch at every
     *                         capacity (each word's first write)
     */
    MissCurve(std::vector<std::uint64_t> histogram,
              std::uint64_t cold_misses, std::uint64_t accesses,
              const std::vector<std::uint64_t> &write_histogram,
              std::uint64_t cold_writebacks);

    /**
     * Number of misses a fully associative LRU memory of @p capacity
     * words would take on the analyzed trace (capacity 0 means every
     * access misses).
     */
    std::uint64_t missesAt(std::uint64_t capacity) const;

    /** Hits at @p capacity (accesses minus misses). */
    std::uint64_t
    hitsAt(std::uint64_t capacity) const
    {
        return accesses_ - missesAt(capacity);
    }

    /**
     * Dirty words a capacity-@p capacity LRU writes back over the
     * trace, counting the end-of-trace flush (LruCache semantics:
     * dirty evictions plus dirty residents at flush()).
     */
    std::uint64_t writebacksAt(std::uint64_t capacity) const;

    /** Words crossing the PE boundary: misses + writebacks. This is
     *  the paper's Cio(M) under a write-back LRU memory. */
    std::uint64_t
    ioWords(std::uint64_t capacity) const
    {
        return missesAt(capacity) + writebacksAt(capacity);
    }

    /** Accesses with no prior touch of the same word. */
    std::uint64_t coldMisses() const { return cold_; }

    /** Total accesses analyzed. */
    std::uint64_t accesses() const { return accesses_; }

    /** Smallest capacity at which only cold misses remain
     *  (precomputed; O(1)). */
    std::uint64_t footprint() const { return footprint_; }

    /** Serialize every query-relevant field (on-disk curve store). */
    void encode(ByteWriter &out) const;

    /**
     * Rebuild a curve from encode()'s bytes. Returns false (leaving
     * @p out unspecified) when the input is truncated or internally
     * inconsistent — a corrupt store entry must decode to "reject",
     * never to a curve that answers queries wrongly.
     */
    static bool decode(ByteReader &in, MissCurve &out);

  private:
    MissCurve() = default; ///< decode() target only
    /// suffix_[d] = number of finite-distance accesses with
    /// reuse distance >= d (d indexes from 0).
    std::vector<std::uint64_t> suffix_;
    /// wb_suffix_[d] = number of writes with finite dirty distance
    /// >= d.
    std::vector<std::uint64_t> wb_suffix_;
    std::uint64_t cold_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t cold_writebacks_ = 0;
    std::uint64_t footprint_ = 0;
};

/**
 * Analyzer implementation selector, shared by the set-associative row
 * scans and the fully associative pass.
 *
 * `Simd` (the default) keeps every set-associative plane of at most 8
 * ways on compressed recency-ordered rows driven by the KB_SIMD
 * orderedAccess8 kernel of util/simd.hpp (wider planes, and rows past
 * the 32-bit address guard, run the scalar stamp rows), issues
 * MarkRank's block scans through the same dispatch, and lets the
 * fully associative pass take its run-block map shortcut; `Scalar`
 * keeps the original loops verbatim as the bit-exactness oracle. Both
 * produce identical curves on every trace (analyzer_diff_test asserts
 * it per registered kernel).
 */
enum class AnalyzerPath
{
    Scalar,
    Simd,
};

/** "scalar" or "simd". */
const char *analyzerPathName(AnalyzerPath path);

/**
 * Default row-scan path of every analyzer whose constructor did not
 * pin one: always Simd. The Scalar oracle is reached only by passing
 * AnalyzerPath::Scalar to a constructor (the differential tests and
 * the micro benchmarks do).
 */
AnalyzerPath activeAnalyzerPath();

/**
 * ISA the Simd path resolves to on this host: "avx2", "sse2", "neon"
 * or "generic" (host detection, overridable by the KB_SIMD env var).
 */
const char *analyzerSimdIsa();

namespace detail {

/**
 * MarkRank's levels flattened to raw pointers, so the ISA-specialized
 * rank query of trace/rank_scan.inc touches no class internals. Built
 * per query from the live vectors (a handful of register moves — the
 * levels can grow between queries, so the pointers cannot be cached).
 */
struct RankView
{
    const std::uint64_t *bits;
    const std::uint16_t *cnt1;
    const std::uint32_t *cnt2;
    const std::uint64_t *cnt3;
    std::size_t bits_n;
    std::size_t cnt1_n;
    std::size_t cnt2_n;
    std::size_t cnt3_n;
    std::uint64_t total;
};

/// The whole rank query — ONE indirect call per query (the level
/// scans are <= 63 elements each; dispatch per reduction costs more
/// than the scan it guards).
using RankIncFn = std::uint64_t (*)(const RankView &v, std::uint64_t p);

/// ISA-specialized rank query for @p path, or nullptr for the scalar
/// loops (the bit-exactness oracle). Defined in trace/reuse.cpp.
RankIncFn rankIncFor(AnalyzerPath path);

} // namespace detail

/**
 * Dynamic bit-rank over trace positions: a bitmap plus blocked count
 * summaries supporting O(1) set/clear and cache-friendly rank.
 *
 * Layout (grown on demand, all levels zero-extended — no level stores
 * prefix sums, so growth never invalidates existing counts):
 *   bits_  one bit per position, packed 64 to a u64
 *   cnt1_  set-bit count of each bits_ word group of 64  (<= 4096)
 *   cnt2_  set-bit count of each cnt1_ group of 64       (<= 262144)
 *   cnt3_  set-bit count of each cnt2_ group of 64, scanned linearly
 *          at the top (one u64 per ~16.8M positions)
 *
 * rankInc(p) — set bits at positions <= p — masks one bitmap word,
 * popcounts at most 63 more, then sums at most 63 entries at each
 * count level: pure sequential loads and adds over arrays that total
 * ~0.13 bytes per position, so the whole structure stays cache
 * resident where the Fenwick tree it replaced thrashed ~9 bytes per
 * position with strided pointer hops.
 */
class MarkRank
{
  public:
    /**
     * @param path Simd resolves the rank query through the
     *             ISA-specialized block scans of trace/rank_scan.inc;
     *             Scalar keeps the inline loops below verbatim as the
     *             bit-exactness oracle. Identical answers either way
     *             (exact integer sums in a different order).
     */
    explicit MarkRank(AnalyzerPath path = activeAnalyzerPath())
        : rank_fn_(detail::rankIncFor(path))
    {
    }

    /** Total set bits (maintained incrementally). */
    std::uint64_t total() const { return total_; }

    /** Ensure positions [0, n) are addressable. */
    void
    grow(std::uint64_t n)
    {
        const std::size_t words =
            static_cast<std::size_t>((n + 63) >> 6);
        if (words <= bits_.size())
            return;
        const std::size_t size =
            std::max<std::size_t>(words, bits_.size() * 2);
        bits_.resize(size, 0);
        cnt1_.resize((bits_.size() + 63) >> 6, 0);
        cnt2_.resize((cnt1_.size() + 63) >> 6, 0);
        cnt3_.resize((cnt2_.size() + 63) >> 6, 0);
    }

    /** Set the (clear) bit at @p p; grow() must have covered p. */
    void
    set(std::uint64_t p)
    {
        bits_[p >> 6] |= 1ull << (p & 63);
        ++cnt1_[p >> 12];
        ++cnt2_[p >> 18];
        ++cnt3_[p >> 24];
        ++total_;
    }

    /** Clear the (set) bit at @p p. */
    void
    clear(std::uint64_t p)
    {
        bits_[p >> 6] &= ~(1ull << (p & 63));
        --cnt1_[p >> 12];
        --cnt2_[p >> 18];
        --cnt3_[p >> 24];
        --total_;
    }

    /**
     * Set @p count previously-clear bits starting at @p p — the bulk
     * path for cold streaks, one OR and three count bumps per bitmap
     * word instead of per position.
     */
    void
    setRun(std::uint64_t p, std::uint64_t count)
    {
        while (count > 0) {
            const std::uint64_t off = p & 63;
            const std::uint64_t take = std::min(count, 64 - off);
            const std::uint64_t mask =
                (take == 64 ? ~0ull : (1ull << take) - 1) << off;
            bits_[p >> 6] |= mask;
            cnt1_[p >> 12] += static_cast<std::uint16_t>(take);
            cnt2_[p >> 18] += static_cast<std::uint32_t>(take);
            cnt3_[p >> 24] += take;
            total_ += take;
            p += take;
            count -= take;
        }
    }

    /**
     * Clear @p count previously-set bits starting at @p p — the bulk
     * companion of setRun() for retiring a streak of consecutive
     * stamps in whole bitmap words.
     */
    void
    clearRun(std::uint64_t p, std::uint64_t count)
    {
        while (count > 0) {
            const std::uint64_t off = p & 63;
            const std::uint64_t take = std::min(count, 64 - off);
            const std::uint64_t mask =
                (take == 64 ? ~0ull : (1ull << take) - 1) << off;
            bits_[p >> 6] &= ~mask;
            cnt1_[p >> 12] -= static_cast<std::uint16_t>(take);
            cnt2_[p >> 18] -= static_cast<std::uint32_t>(take);
            cnt3_[p >> 24] -= take;
            total_ -= take;
            p += take;
            count -= take;
        }
    }

    /**
     * Number of set bits at positions <= @p p (rank inclusive).
     *
     * Each level contributes "units strictly below p's unit" within
     * the enclosing group, summed from whichever side of the group is
     * shorter — the group's own total (next count level, or total_ at
     * the top) converts an upper-side sum into the lower-side answer
     * — so the expected scan length per level halves.
     */
    std::uint64_t
    rankInc(std::uint64_t p) const
    {
        if (rank_fn_ != nullptr)
            return rank_fn_(
                detail::RankView{bits_.data(), cnt1_.data(),
                                 cnt2_.data(), cnt3_.data(),
                                 bits_.size(), cnt1_.size(),
                                 cnt2_.size(), cnt3_.size(), total_},
                p);
        const std::size_t w = static_cast<std::size_t>(p >> 6);
        const std::size_t g1 = w >> 6;
        const std::size_t g2 = g1 >> 6;
        const std::size_t g3 = g2 >> 6;
        std::uint64_t rank = std::popcount(
            bits_[w] & (~0ull >> (63 - (p & 63))));
        {
            const std::size_t lo = g1 << 6;
            const std::size_t hi = std::min(lo + 64, bits_.size());
            if (w - lo <= hi - w) {
                for (std::size_t i = lo; i < w; ++i)
                    rank += std::popcount(bits_[i]);
            } else {
                std::uint64_t upper = 0;
                for (std::size_t i = w; i < hi; ++i)
                    upper += std::popcount(bits_[i]);
                rank += cnt1_[g1] - upper;
            }
        }
        {
            const std::size_t lo = g2 << 6;
            const std::size_t hi = std::min(lo + 64, cnt1_.size());
            if (g1 - lo <= hi - g1) {
                for (std::size_t i = lo; i < g1; ++i)
                    rank += cnt1_[i];
            } else {
                std::uint64_t upper = 0;
                for (std::size_t i = g1; i < hi; ++i)
                    upper += cnt1_[i];
                rank += cnt2_[g2] - upper;
            }
        }
        {
            const std::size_t lo = g3 << 6;
            const std::size_t hi = std::min(lo + 64, cnt2_.size());
            if (g2 - lo <= hi - g2) {
                for (std::size_t i = lo; i < g2; ++i)
                    rank += cnt2_[i];
            } else {
                std::uint64_t upper = 0;
                for (std::size_t i = g2; i < hi; ++i)
                    upper += cnt2_[i];
                rank += cnt3_[g3] - upper;
            }
        }
        if (g3 <= cnt3_.size() - g3) {
            for (std::size_t i = 0; i < g3; ++i)
                rank += cnt3_[i];
        } else {
            std::uint64_t upper = 0;
            for (std::size_t i = g3; i < cnt3_.size(); ++i)
                upper += cnt3_[i];
            rank += total_ - upper;
        }
        return rank;
    }

  private:
    std::vector<std::uint64_t> bits_;
    std::vector<std::uint16_t> cnt1_;
    std::vector<std::uint32_t> cnt2_;
    std::vector<std::uint64_t> cnt3_;
    std::uint64_t total_ = 0;
    /// ISA-specialized rank query, or nullptr for the scalar loops.
    detail::RankIncFn rank_fn_ = nullptr;
};

namespace detail {

/**
 * One plane of the multi-set analyzer flattened to raw pointers, so
 * the ISA-specialized run loops of trace/plane_run.inc touch no class
 * internals. hist / wb_hist point at the plane's own histogram rows,
 * cold_writebacks at its counter; every pointer is stable until the
 * rows are demoted (the backing vectors never resize after
 * construction), so the contexts are built once.
 */
struct MultiSetPlane
{
    std::uint64_t *hist;
    std::uint64_t *wb_hist;
    std::uint64_t *cold_writebacks;
    /// Recency-ordered compressed rows, 16 u32 per set: 8 addresses in
    /// LRU order + 8 dirty windows, one 64-byte line (see
    /// util/simd.hpp's ordered-row contract).
    std::uint32_t *rows;
    std::uint64_t sets;
    std::uint64_t max_ways;
};

/// A whole run against every plane — ONE indirect call per run (a
/// row access is a few instructions, so dispatch any finer costs more
/// than the access it guards).
using MultiSetRunFn = void (*)(const MultiSetPlane *planes,
                               std::size_t plane_count,
                               std::uint64_t base, std::uint64_t words,
                               bool write);

} // namespace detail

/**
 * One shared Mattson pass serving several set counts at once.
 *
 * A set-associative memory with LRU replacement partitions the
 * address space by `addr % sets`, and each set behaves as an
 * independent fully associative LRU of `ways` words. Inclusion
 * therefore holds per set: an access hits a W-way memory iff fewer
 * than W distinct same-set words were touched since its previous
 * use. One pass over a trace with a fixed set count yields the whole
 * associativity->misses/writebacks curve — every capacity
 * M = sets * W at that set count — bit-identical to replaying a
 * SetAssocCache(sets, W, LRU) per W (the equivalence tests assert
 * it), write-backs included via the same dirty-epoch argument as the
 * fully associative analyzer.
 *
 * A sweep grid maps to several set counts, and the per-set pass for
 * each is a pure function of the access stream — so this analyzer
 * keeps one stamp/address/window *plane* per requested set count
 * (SoA slot arrays indexed plane-major) and updates all of them under
 * one shared clock per access. The engine's fast path then feeds ONE
 * emission through ONE analyzer to obtain every set-assoc column of a
 * job, where it previously paid a virtual sink dispatch per analyzer
 * per access across a tee fan-out.
 *
 * Distances are tracked exactly up to max_ways and lumped beyond it,
 * so each plane's curve is exact for every W <= max_ways (at such W
 * a lumped access and a cold access are indistinguishable — both
 * miss and both open a dirty epoch — so the analyzer does not tell
 * them apart and needs no word table at all; coldMisses()/footprint()
 * of a returned curve are therefore not meaningful, and queries
 * beyond max_ways saturate at the lumped bucket). Each set keeps its
 * top max_ways words in a stamp row: the per-set stack distance of a
 * resident word is the number of larger stamps in its row — no list
 * maintenance, just the scan a SetAssocCache pays anyway. On the Simd
 * path a plane of at most 8 ways keeps each row in recency order
 * instead (util/simd.hpp), where the match position is the distance.
 */
class MultiSetReuseAnalyzer : public TraceSink
{
  public:
    /**
     * @param set_counts set counts to serve, one plane each (each
     *                   maps addresses by modulo, matching
     *                   SetAssocCache); must be non-empty, positive
     * @param max_ways   largest associativity resolved exactly;
     *                   distances >= max_ways are lumped
     * @param path       row-scan implementation; defaults to
     *                   activeAnalyzerPath()
     */
    MultiSetReuseAnalyzer(const std::vector<std::uint64_t> &set_counts,
                          std::uint64_t max_ways);
    MultiSetReuseAnalyzer(const std::vector<std::uint64_t> &set_counts,
                          std::uint64_t max_ways, AnalyzerPath path);

    // Movable, not copyable: plane_ctx_ points into the histogram and
    // row vectors' buffers, which transfer on move but not on copy.
    MultiSetReuseAnalyzer(const MultiSetReuseAnalyzer &) = delete;
    MultiSetReuseAnalyzer &
    operator=(const MultiSetReuseAnalyzer &) = delete;
    MultiSetReuseAnalyzer(MultiSetReuseAnalyzer &&) = default;
    MultiSetReuseAnalyzer &operator=(MultiSetReuseAnalyzer &&) = default;

    void onAccess(const Access &access) override;
    void onRun(std::uint64_t base, std::uint64_t words,
               AccessType type) override;

    std::size_t planeCount() const { return sets_.size(); }
    std::uint64_t setsAt(std::size_t plane) const { return sets_[plane]; }
    std::uint64_t maxWays() const { return max_ways_; }
    std::uint64_t accesses() const { return accesses_; }

    /**
     * The associativity -> misses/writebacks curve of @p plane:
     * querying the result at W gives the counts of a
     * (setsAt(plane) x W)-word LRU set-associative memory with
     * end-of-trace flush. Exact for W <= maxWays(); larger W saturate
     * at the lumped bucket (it is carried in the curve's cold term,
     * so missesAt never drops below it).
     */
    MissCurve waysCurve(std::size_t plane) const;

    AnalyzerPath path() const { return path_; }

  private:
    static constexpr std::uint64_t kColdWindow =
        std::numeric_limits<std::uint64_t>::max();

    void planeStepScalar(std::size_t plane, std::size_t row,
                         std::uint64_t addr, std::uint64_t now,
                         bool write);
    /// Scalar bulk step: planeStepScalar over every word of the run,
    /// plane-major. Serves the Scalar path, planes wider than 8 ways
    /// and every run after demoteCompressedRows().
    void scalarRun(std::uint64_t base, std::uint64_t words, bool write);
    /// Size the zeroed stamp-row slot arrays; compressed analyzers
    /// skip them until demoteCompressedRows() needs them.
    void allocateStampRows();
    /// One-time fallback out of the compressed representation: turn
    /// every recency-ordered row back into stamp rows (order becomes
    /// descending stamps, same resident sets / order / windows, so
    /// the continuation is output-identical) and continue on
    /// scalarRun. Triggered by the first run whose addresses exceed
    /// simd::kOrderedMaxAddr.
    void demoteCompressedRows();

    std::uint64_t max_ways_;
    AnalyzerPath path_;
    std::vector<std::uint64_t> sets_;
    /// Slot-array offset of each plane: plane p's set s occupies
    /// slots [base[p] + s*max_ways, +max_ways) of the SoA arrays.
    std::vector<std::size_t> plane_base_;
    /// SoA slot state across all planes (stamp 0 = empty slot;
    /// window = max per-set stack distance among the word's accesses
    /// since its last write, kColdWindow until the first write).
    /// Empty while the rows are compressed.
    std::vector<std::uint64_t> slot_addr_;
    std::vector<std::uint64_t> slot_stamp_;
    std::vector<std::uint64_t> slot_window_;
    /// Plane-major histogram rows of max_ways_+1 entries each (last
    /// entry = the lumped bucket).
    std::vector<std::uint64_t> hist_;
    std::vector<std::uint64_t> wb_hist_;
    std::vector<std::uint64_t> cold_writebacks_;
    /// Compressed-row state: the per-plane contexts and the resolved
    /// ISA loop of trace/plane_run.inc, and the backing store for
    /// every plane's rows (64-byte aligned via over-allocation). Built
    /// only for Simd analyzers of at most 8 ways; emptied for good by
    /// demoteCompressedRows(). A non-null plane_run_ means the rows
    /// are compressed.
    std::vector<detail::MultiSetPlane> plane_ctx_;
    detail::MultiSetRunFn plane_run_ = nullptr;
    std::vector<std::uint32_t> rows_buf_;
    std::uint64_t clock_ = 0;
    std::uint64_t accesses_ = 0;
};

/**
 * Streaming reuse-distance analyzer; feed it a trace (it is a
 * TraceSink) and then ask for the histograms or the MissCurve.
 */
class ReuseDistanceAnalyzer : public TraceSink
{
  public:
    /** Uses activeAnalyzerPath(). */
    ReuseDistanceAnalyzer();

    /**
     * @param path Simd issues MarkRank's block scans through the
     *             KB_SIMD dispatch and lets onRun() serve repeated
     *             whole runs off the run-block map (one table probe
     *             per run instead of one per word); Scalar keeps the
     *             original per-word loops verbatim as the
     *             bit-exactness oracle. Identical histograms and
     *             curves either way (analyzer_diff_test pins it).
     */
    explicit ReuseDistanceAnalyzer(AnalyzerPath path);

    void onAccess(const Access &access) override;

    /**
     * Run fast path: the whole run is resolved against the word table
     * first (addresses within a run are distinct, so every answer is
     * independent of the others), then a second phase does the
     * counting — contiguous first-touch streaks mark the rank bitmap
     * in bulk with no distance query at all, and warm accesses run
     * the rank arithmetic back to back with the map out of the loop.
     *
     * On the Simd path a run whose words all carry ids contiguous
     * from its base's id — tracked in a base -> (first id, length)
     * block map, and the steady state of every tiled kernel, since a
     * run's first touch cold-appends its words to consecutive ids —
     * skips phase 1 entirely: one block-map probe replaces the
     * per-word table walk, and the ids (permanent once assigned, so
     * the map never invalidates) index the per-word state directly.
     */
    void onRun(std::uint64_t base, std::uint64_t words,
               AccessType type) override;

    AnalyzerPath path() const { return path_; }

    /** Histogram of finite reuse distances (index = distance). */
    const std::vector<std::uint64_t> &histogram() const { return hist_; }

    /** Histogram of finite dirty distances (index = distance). */
    const std::vector<std::uint64_t> &
    writeHistogram() const
    {
        return wb_hist_;
    }

    std::uint64_t coldMisses() const { return cold_; }
    /** First writes: writebacks present at every capacity. */
    std::uint64_t coldWritebacks() const { return cold_writebacks_; }
    std::uint64_t accesses() const { return time_; }
    /** Number of distinct words touched. */
    std::uint64_t distinctWords() const { return last_use_.size(); }

    /** Build the capacity -> misses/writebacks curve. */
    MissCurve missCurve() const;

  private:
    /// Dirty-distance sentinel: "window reaches back past a cold
    /// touch / no write yet" — such a write is dirty at any capacity.
    static constexpr std::uint64_t kColdWindow =
        std::numeric_limits<std::uint64_t>::max();
    /// onRun scratch sentinel standing for "cold, no counting work".
    static constexpr std::uint32_t kColdId =
        std::numeric_limits<std::uint32_t>::max();
    /// Below this many stamp positions compaction cannot pay for
    /// itself — the uncompacted structure already fits in L1.
    static constexpr std::uint64_t kCompactMinDomain = 1ull << 16;

    std::uint32_t coldAppend(std::uint64_t pos, bool write);
    void warmAccess(std::uint32_t id, std::uint64_t now, bool write);

    /**
     * Phase 2 of onRun() for a run served off the block map: the word
     * ids are id0..id0+words-1 by construction, so the counting loop
     * reads per-word state directly — same arithmetic as the general
     * phase 2, minus the per-word scratch row. @p time0 is the stamp
     * of the run's first word (time_/pos_ already advanced).
     */
    void runWarmBlock(std::uint32_t id0, std::uint64_t words,
                      std::uint64_t time0, bool write);

    /**
     * Keep the rank domain proportional to the footprint, not the
     * trace length. Only distinctWords() positions ever hold a mark,
     * and a rank query reads nothing but the marks' relative order —
     * so once the stamp clock outruns the footprint by 4x, stamps are
     * renumbered 0..n-1 in rank order and the clock restarts at n.
     * The whole structure then lives in ~footprint/2 bytes of hot
     * arrays for any trace length (and compaction is amortized O(1)
     * per access).
     */
    void
    maybeCompact()
    {
        if (pos_ >= kCompactMinDomain &&
            pos_ >= 4 * last_use_.size())
            compactStamps();
    }
    void compactStamps();

    AnalyzerPath path_;
    /// One mark per tracked word at its most recent use stamp (in
    /// the compact clock domain [0, pos_)); rank queries over it
    /// answer "distinct words since prev".
    MarkRank rank_;
    FlatWordMap<std::uint32_t> words_; ///< addr -> dense word id
    /// Simd-path run-block index: run base -> (id of the base's word
    /// << 32) | contiguous id count. A pure memoization of words_ —
    /// entries never go stale because ids are append-only and
    /// permanent — letting a repeated run trade its per-word map walk
    /// for one probe here. words_ stays authoritative for every word.
    FlatWordMap<std::uint64_t> blocks_;
    /// Dense per-word state, parallel arrays indexed by word id (ids
    /// are stable across FlatWordMap growth where value pointers are
    /// not, which is what lets onRun batch its map phase).
    std::vector<std::uint64_t> last_use_;
    /// Max reuse distance among the word's accesses since its last
    /// write (kColdWindow until the first write).
    std::vector<std::uint64_t> dirty_window_;
    std::vector<std::uint32_t> run_ids_; ///< onRun phase-1 scratch
    std::vector<std::uint64_t> hist_;
    std::vector<std::uint64_t> wb_hist_;
    std::uint64_t cold_ = 0;
    std::uint64_t cold_writebacks_ = 0;
    std::uint64_t time_ = 0; ///< total accesses analyzed
    std::uint64_t pos_ = 0;  ///< next stamp in the compact domain
};

} // namespace kb
