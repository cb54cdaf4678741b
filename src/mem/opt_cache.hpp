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
 *    any emission as a TraceSink and writes, per chunk of positions,
 *    dense next-use and word-id arrays (spilled to temp files past a
 *    byte budget), pass 2 re-emits the trace — kernel emissions are
 *    deterministic and far cheaper than the walk — feeding the stack
 *    one chunk at a time. Peak resident analyzer memory beyond the
 *    O(footprint) word tables is the spill budget (closed chunks
 *    plus patch records, at most one record over) plus one open
 *    chunk at 12 bytes per position, independent of trace length.
 */

#pragma once

#include <algorithm>
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
 * The test oracle for every OPT path: the engine does not call it
 * (its per-point and fast-path OPT columns both run
 * OptNextUseRecorder); the equivalence tests compare the streamed
 * results against it, and perfbench's traced replica still times it.
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
    /// Trace positions per chunk; a chunk holds 12 bytes per position
    /// (u64 next use + u32 word id), touched as positions arrive.
    /// Default: 4Mi positions = 48 MiB.
    std::uint64_t chunk_positions = 1ull << 22;
    /// Closed chunks plus patch records held in memory before they
    /// spill to temp files. Default: 256 MiB — traces of up to about
    /// 22M positions never touch the disk.
    std::uint64_t spill_threshold_bytes = 256ull << 20;
    /// Directory for spill files; empty = the system temp directory.
    /// A uniquely named subdirectory is created on first spill and
    /// removed when the recorder is destroyed.
    std::string spill_dir;
};

/** Observed footprint of one streaming OPT computation. */
struct OptStreamStats
{
    std::uint64_t positions = 0;     ///< trace length seen
    std::uint64_t chunks_loaded = 0; ///< chunks handed to the walk
    std::uint64_t spilled_bytes = 0; ///< chunk and patch bytes on disk
    /// High-water mark of in-memory closed-chunk and patch-record
    /// bytes (bounded by spill_threshold_bytes + one 12-byte record).
    std::uint64_t peak_pending_bytes = 0;
    /// High-water mark of the analyzer's resident bytes beyond the
    /// O(footprint) word tables: pending bytes plus the chunk pass 1
    /// writes or pass 2 walks. Bounded by spill_threshold_bytes + one
    /// record + one chunk at 12 bytes per position (never longer than
    /// the trace), independent of trace length; the stress tests
    /// assert it.
    std::uint64_t peak_resident_bytes = 0;
};

/**
 * Pass 1 of the streaming OPT curve: a TraceSink that records, for
 * every trace position, the position of the next access to the same
 * word and the word's dense id. Attach it to any emission (the engine
 * rides it on the shared analyzer tee), then call finish() with a
 * callable that re-emits the identical trace.
 *
 * Each chunk of `chunk_positions` positions is two dense arrays:
 * next[off] (kNever until the word's next access overwrites it) and
 * id[off] (ids in first-occurrence order; 2^32 words is fatal). Past
 * the spill budget every closed chunk goes to its temp file, and a
 * next use into a spilled chunk becomes an (offset, next) patch
 * record, spilled the same way and applied when pass 2 reads the
 * chunk back. Pass 2 takes in-memory chunks by move.
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
    /// One chunk's dense arrays, indexed by offset within the chunk.
    struct Chunk
    {
        std::vector<std::uint64_t> next; ///< next-use position
        std::vector<std::uint32_t> id;   ///< dense word id
    };

    /// Next uses of positions in a spilled chunk: parallel (offset
    /// within chunk, next-use position) arrays.
    struct Patches
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
    /// Record @p next as the next use of spilled position @p prev.
    void patch(std::uint64_t prev, std::uint64_t next);
    /// Close the open chunk, if any, and open one at pos_.
    void openChunk();
    /// The open chunk joins the pending bytes, or spills with every
    /// other closed chunk when that would pass the budget.
    void closeChunk();
    /// Move chunks [0, @p closed) and every patch record to disk.
    void spill(std::size_t closed);
    std::string spillFile(std::size_t chunk) const;
    /// Raise the high-water marks: pending bytes, and pending bytes
    /// plus the chunk pass 1 writes or pass 2 walks.
    void
    notePeak(std::uint64_t chunk_bytes)
    {
        peak_pending_bytes_ = std::max(peak_pending_bytes_, pending_bytes_);
        peak_resident_bytes_ =
            std::max(peak_resident_bytes_, pending_bytes_ + chunk_bytes);
    }
    /// Hand chunk @p chunk to pass 2 in @p out: moved when it is in
    /// memory, else read back from its spill file and patched.
    void loadChunk(std::size_t chunk, Chunk &out);

    OptStreamOptions opts_;
    FlatWordMap<std::uint32_t> last_seen_; ///< addr -> word id
    std::vector<std::uint64_t> last_pos_;  ///< word id -> last position
    std::vector<Chunk> chunks_;            ///< index = chunk
    std::vector<Patches> patches_;         ///< index = spilled chunk
    std::uint64_t spilled_end_ = 0; ///< chunks below are on disk
    std::uint64_t open_end_ = 0;    ///< first position past the open chunk
    std::uint64_t pos_ = 0;
    std::uint64_t pending_bytes_ = 0;
    std::uint64_t peak_pending_bytes_ = 0;
    std::uint64_t peak_resident_bytes_ = 0;
    std::uint64_t spilled_bytes_ = 0;
    std::uint64_t chunks_loaded_ = 0;
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
