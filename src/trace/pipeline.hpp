/**
 * @file
 * Chunked analysis pipeline: one emission, every consumer.
 *
 * The engine's cold fast path computes several independent results
 * from the same trace — the fully-associative Mattson curve, the
 * multi-set set-associative curves, the OPT next-use table, and any
 * replayed non-inclusion models. Each consumer is a pure function of
 * the op sequence, so instead of re-walking the trace once per
 * consumer (or interleaving all of them per op through a tee),
 * AnalysisPipeline renders the emission into a bounded, cache-resident
 * chunk of TraceOps and fans each full chunk out to every attached
 * consumer before the next chunk is rendered. Consumer-major delivery
 * keeps each consumer's working state hot across a whole chunk while
 * the chunk itself stays L2-resident, and a trace op crosses memory
 * bandwidth once instead of once per consumer pass.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "trace/sink.hpp"

namespace kb {

/**
 * One recorded sink call. is_run preserves the onAccess/onRun split
 * exactly: replaying a buffer performs the identical virtual-call
 * sequence the kernel made, so any sink — counting, analyzing,
 * storing — observes a stream indistinguishable from a direct
 * emission.
 */
struct TraceOp
{
    std::uint64_t base = 0;
    std::uint64_t words = 0;
    AccessType type = AccessType::Read;
    bool is_run = false;
};

/** Replay a rendered chunk into the real sink, call for call. */
void drainOps(const std::vector<TraceOp> &ops, TraceSink &sink);

/**
 * Chunked fan-out sink: buffers the incoming stream into one reused
 * TraceOp chunk and replays each full chunk into every attached
 * consumer, in attach order, before buffering continues.
 *
 * Delivery is strictly in-order and call-for-call, so each consumer
 * observes exactly the stream a direct emission would have produced —
 * chunk boundaries are invisible (analyzer_diff_test sweeps chunk
 * sizes 1/7/4096 against unchunked passes to pin this). flush() must
 * be called after the emission completes to deliver the final partial
 * chunk.
 */
class AnalysisPipeline final : public TraceSink
{
  public:
    /**
     * Default chunk bound: 4096 ops x 24 bytes ~= 96 KiB, sized to
     * stay L2-resident alongside one consumer's hot state. Run ops
     * cover many words each, so the bound is on recorded calls, not
     * trace words.
     */
    static constexpr std::size_t kDefaultChunkOps = 4096;

    explicit AnalysisPipeline(std::size_t chunk_ops = kDefaultChunkOps);

    /** Add a consumer; delivery follows attach order. */
    void attach(TraceSink &consumer);

    void onAccess(const Access &access) override;
    void onRun(std::uint64_t base, std::uint64_t words,
               AccessType type) override;

    /** Deliver the buffered partial chunk (no-op when empty). */
    void flush();

    /** Full chunks delivered so far (stats for benches/tests). */
    std::uint64_t chunksDelivered() const { return chunks_; }

    /** Trace words delivered to each consumer so far. */
    std::uint64_t wordsDelivered() const { return words_; }

  private:
    void deliver();

    std::size_t chunk_ops_;
    std::vector<TraceOp> chunk_;
    std::vector<TraceSink *> consumers_;
    std::uint64_t buffered_words_ = 0;
    std::uint64_t chunks_ = 0;
    std::uint64_t words_ = 0;
};

} // namespace kb
