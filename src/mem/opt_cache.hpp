/**
 * @file
 * Belady's OPT (MIN) replacement simulated offline.
 *
 * OPT needs the future: every simulator here resolves each access's
 * next-use position before replaying the eviction decisions. It
 * provides the optimal-replacement baseline for the E12 memory
 * ablation: if Kung's exponents hold under both LRU and OPT, they are
 * not artifacts of replacement quality.
 *
 * Two curve paths share the segmented Belady stack walk:
 *
 *  - simulateOptCurve() takes a buffered trace and computes next-use
 *    indices with one backward pass — simple, and the reference the
 *    equivalence tests compare everything against.
 *  - OptNextUseRecorder + finish() stream the same computation in two
 *    forward passes so no O(trace) buffer ever exists: pass 1 rides
 *    any emission as a TraceSink and scatters (position -> next use)
 *    records into per-chunk buckets (spilled to temp files past a
 *    byte budget), pass 2 re-emits the trace — kernel emissions are
 *    deterministic and far cheaper than the walk — feeding the stack
 *    while chunks of the next-use array are materialized one at a
 *    time. Peak resident analyzer memory is bounded by the chunk
 *    array plus the spill budget (plus the word-footprint last-seen
 *    table), independent of trace length.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "mem/local_memory.hpp"
#include "trace/access.hpp"
#include "trace/sink.hpp"
#include "util/binio.hpp"
#include "util/flat_map.hpp"

namespace kb {

/** Result of an offline OPT simulation. */
struct OptResult
{
    MemoryStats stats;
    std::uint64_t capacity = 0;
};

/**
 * Simulate Belady OPT over @p trace with the given capacity (words).
 *
 * Write-back semantics match LruCache: misses fill one word, dirty
 * evictions write back one word; a final flush writes back all dirty
 * residents.
 *
 * @param trace    access sequence
 * @param capacity memory size in words; must be positive
 * @param flush_at_end count terminal dirty writebacks if true
 */
OptResult simulateOpt(std::span<const Access> trace, std::uint64_t capacity,
                      bool flush_at_end = true);

/**
 * Miss and writeback counts of Belady OPT at a fixed set of
 * capacities, computed in one pass (see simulateOptCurve).
 */
class OptCurve
{
  public:
    OptCurve() = default;
    OptCurve(std::vector<std::uint64_t> capacities,
             std::vector<std::uint64_t> misses,
             std::vector<std::uint64_t> writebacks,
             std::uint64_t accesses);

    /** The (ascending, unique) capacities the curve was built for. */
    const std::vector<std::uint64_t> &
    capacities() const
    {
        return capacities_;
    }

    std::uint64_t accesses() const { return accesses_; }

    /** Misses at @p capacity; fatal unless @p capacity is one of the
     *  capacities the curve was built for. */
    std::uint64_t missesAt(std::uint64_t capacity) const;

    /** Writebacks (dirty evictions plus the end-of-trace flush). */
    std::uint64_t writebacksAt(std::uint64_t capacity) const;

    /** Words crossing the PE boundary: misses + writebacks. */
    std::uint64_t
    ioWords(std::uint64_t capacity) const
    {
        return missesAt(capacity) + writebacksAt(capacity);
    }

    /** Serialize every query-relevant field (on-disk curve store). */
    void encode(ByteWriter &out) const;

    /**
     * Rebuild a curve from encode()'s bytes. Returns false (leaving
     * @p out unspecified) when the input is truncated or internally
     * inconsistent.
     */
    static bool decode(ByteReader &in, OptCurve &out);

  private:
    std::size_t indexOf(std::uint64_t capacity) const;

    std::vector<std::uint64_t> capacities_;
    std::vector<std::uint64_t> misses_;
    std::vector<std::uint64_t> writebacks_;
    std::uint64_t accesses_ = 0;
};

/**
 * One-pass OPT miss/writeback curve over a whole capacity set.
 *
 * OPT with a fixed priority order (next use; never-reused words
 * last) is a stack algorithm in the Mattson sense, so its
 * per-capacity contents are nested. The simulator keeps the Belady
 * stack partitioned into bands between consecutive requested
 * capacities (plus an unordered overflow beyond the largest), each a
 * lazily deleted max-heap on one 64-bit next-use key. An entry goes
 * stale exactly when the walk reaches the position its key names, so
 * stale keys <= now < live keys: stale entries never surface at a
 * heap top and compaction needs no word-table lookup. On each miss
 * the per-band victims cascade downward by replacing heap tops (one
 * sift per level), and only the last victim's landing is a push. One
 * pass over the trace replaces one full simulateOpt() run per
 * capacity, and the counts are bit-identical to those runs (with
 * flush_at_end), which the equivalence tests assert. Write-backs use
 * the same dirty-epoch argument as the LRU analyzer: between two
 * accesses a word only sinks in the stack, so "evicted from capacity
 * C since the last write" is exactly "some access since then found it
 * below C".
 *
 * @param trace      access sequence (OPT needs the whole future)
 * @param capacities capacities to resolve; must be non-empty and
 *                   positive (sorted and deduplicated internally)
 */
OptCurve simulateOptCurve(std::span<const Access> trace,
                          std::vector<std::uint64_t> capacities);

/** Tuning knobs of the streaming OPT path. */
struct OptStreamOptions
{
    /// Next-use positions materialized at a time in pass 2; the
    /// resident chunk array is 8 bytes per position. Default: 4Mi
    /// positions = 32 MiB.
    std::uint64_t chunk_positions = 1ull << 22;
    /// Pending (position -> next use) record bytes held in memory
    /// before the buckets spill to temp files. Default: 256 MiB —
    /// traces whose warm accesses fit never touch the disk.
    std::uint64_t spill_threshold_bytes = 256ull << 20;
    /// Directory for spill files; empty = the system temp directory.
    /// A uniquely named subdirectory is created on first spill and
    /// removed when the recorder is destroyed.
    std::string spill_dir;
    /// Load chunk k+1 on a worker thread (after advising the kernel
    /// to read its spill file ahead) while the walk consumes chunk k,
    /// so pass 2 never stalls on a chunk load. Costs one extra
    /// resident chunk buffer; see OptStreamStats::peak_resident_bytes.
    bool prefetch = true;
};

/** Observed footprint of one streaming OPT computation. */
struct OptStreamStats
{
    std::uint64_t positions = 0;     ///< trace length seen
    std::uint64_t chunks_loaded = 0; ///< next-use chunks materialized
    /// Chunks whose load overlapped the walk of their predecessor
    /// (0 when prefetch is off or the trace fits one chunk).
    std::uint64_t chunks_prefetched = 0;
    std::uint64_t spilled_bytes = 0; ///< record bytes written to disk
    /// High-water mark of in-memory pending record bytes (bounded by
    /// spill_threshold_bytes + one record).
    std::uint64_t peak_pending_bytes = 0;
    /// Upper bound on the analyzer's peak resident bytes beyond the
    /// O(footprint) word tables: peak pending records plus the
    /// materialized chunk buffers (two while a prefetch is in flight,
    /// one otherwise). Independent of trace length by construction;
    /// the stress tests assert it.
    std::uint64_t peak_resident_bytes = 0;
};

/**
 * Pass 1 of the streaming OPT curve: a TraceSink that records, for
 * every trace position, the position of the next access to the same
 * word. Attach it to any emission (the engine rides it on the shared
 * analyzer tee), then call finish() with a callable that re-emits the
 * identical trace.
 *
 * Records are bucketed by `position / chunk_positions` so pass 2 can
 * materialize the next-use array one chunk at a time; when pending
 * records exceed the spill budget every bucket appends to its own
 * temp file and the memory is released. Each trace position is
 * recorded at most once (a position is "previous use" to at most one
 * later access), so buckets need no ordering or merging.
 */
class OptNextUseRecorder : public TraceSink
{
  public:
    explicit OptNextUseRecorder(OptStreamOptions options = {});
    ~OptNextUseRecorder() override;

    OptNextUseRecorder(const OptNextUseRecorder &) = delete;
    OptNextUseRecorder &operator=(const OptNextUseRecorder &) = delete;

    void
    onAccess(const Access &access) override
    {
        note(access.addr);
    }

    void
    onRun(std::uint64_t base, std::uint64_t words,
          AccessType type) override
    {
        (void)type; // next-use structure ignores read/write
        noteRun(base, words);
    }

    /** Trace positions recorded so far. */
    std::uint64_t positions() const { return pos_; }

    const OptStreamOptions &options() const { return opts_; }

    /**
     * Pass 2: @p emit_again must re-emit the exact trace pass 1 saw
     * (fatal otherwise — a mismatch would corrupt the curve
     * silently). Walks the segmented Belady stack against the
     * recorded next uses, one chunk resident at a time, and returns
     * the curve over @p capacities (non-empty, positive; sorted and
     * deduplicated internally) — bit-identical to
     * simulateOptCurve() on the buffered trace, which the
     * equivalence tests assert. Single use: the records are consumed.
     */
    OptCurve finish(const std::function<void(TraceSink &)> &emit_again,
                    std::vector<std::uint64_t> capacities,
                    OptStreamStats *stats = nullptr);

  private:
    friend class OptChunkCursor;

    /// In-memory records of one chunk: parallel (offset within
    /// chunk, absolute next-use position) arrays.
    struct Bucket
    {
        std::vector<std::uint32_t> off;
        std::vector<std::uint64_t> next;
    };

    void note(std::uint64_t addr);
    /// note() over a contiguous run with the last-seen probes
    /// prefetched ahead — run addresses are distinct, so the probes
    /// are independent and the table walk pipelines (same lookahead
    /// recipe as the reuse analyzers' map phase).
    void noteRun(std::uint64_t base, std::uint64_t words);
    void spill();
    std::string bucketFile(std::size_t chunk) const;
    /// Materialize chunk @p chunk's next-use array (kNever where no
    /// later access exists) and release its records.
    void loadChunk(std::size_t chunk,
                   std::vector<std::uint64_t> &next_use);
    /// loadChunk() plus a readahead hint on the chunk's spill file;
    /// the cursor's prefetch worker runs this off-thread. Touches the
    /// same recorder state as loadChunk(), so the caller must not
    /// overlap it with another load (the cursor joins the worker
    /// before every chunk swap).
    void prefetchChunk(std::size_t chunk,
                       std::vector<std::uint64_t> &next_use);

    OptStreamOptions opts_;
    FlatWordMap<std::uint64_t> last_seen_; ///< addr -> last position
    std::vector<Bucket> buckets_;          ///< index = chunk
    std::uint64_t pos_ = 0;
    std::uint64_t pending_bytes_ = 0;
    std::uint64_t peak_pending_bytes_ = 0;
    std::uint64_t spilled_bytes_ = 0;
    std::uint64_t chunks_loaded_ = 0;
    std::uint64_t chunks_prefetched_ = 0;
    std::string spill_dir_; ///< created on first spill; dtor removes
    bool finished_ = false;
};

/**
 * Convenience wrapper: run both streaming passes over @p emit (called
 * twice — it must emit the identical trace each time) and return the
 * OPT curve without ever holding the trace or the full next-use
 * array. See OptNextUseRecorder for the memory bound.
 */
OptCurve
simulateOptCurveStreaming(const std::function<void(TraceSink &)> &emit,
                          std::vector<std::uint64_t> capacities,
                          OptStreamOptions options = {},
                          OptStreamStats *stats = nullptr);

} // namespace kb
