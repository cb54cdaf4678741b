/**
 * @file
 * The parallel experiment engine.
 *
 * Kung's balance analysis is consumed as sweeps: grids of
 * (kernel x local-memory size x memory model) measurements. The seed
 * ran every point serially inside each bench's main(); the engine
 * executes a declarative list of SweepJobs on a fixed-size
 * std::thread pool instead.
 *
 * Determinism is a design requirement, not an accident: every
 * (job, point) measurement is a pure function of its inputs (kernels
 * are immutable, memory models are seeded), each task writes to a
 * pre-allocated slot keyed by (job index, point index), and results
 * are returned in job order — so a 1-thread run and an N-thread run
 * produce bit-identical results and byte-identical reports.
 *
 * Per-point cells are streamed: each cell emits its trace once
 * (fanned out through the chunked AnalysisPipeline when several
 * consumers share the emission), with no intermediate vector. An
 * 8-way LRU column rides it as a one-plane MultiSetReuseAnalyzer at
 * the cell's set count (inclusion holds at a fixed set count);
 * FIFO, random and fully associative LRU go through a ReplaySink
 * into live models. force_replay replays 8-way LRU through a
 * SetAssocCache instead, as the analyzer's oracle.
 * Belady OPT, which needs the future, never holds the trace either:
 * its OptNextUseRecorder rides the same emission, and a second
 * emission feeds the Belady walk — over the one point's capacity on
 * the per-point path, over the whole grid on the fast path (see
 * below).
 *
 * Stack-distance fast path: a job with a fixed schedule (schedule_m
 * != 0) measures Kung's Cio(M) — the *same* computation replayed at
 * every local-memory size. Every model column then falls out of one
 * pass per consumer over the job's trace, and each consumer is its
 * own pool task with its own emission (emitting is cheap next to
 * analyzing), so a job's consumers run in parallel:
 *
 *  * fully associative LRU: the whole capacity->I/O curve from one
 *    ReuseDistanceAnalyzer pass (Mattson stack distances plus a
 *    dirty-distance histogram for write-backs; see trace/reuse.hpp);
 *  * set-associative LRU: inclusion holds per set, so ONE
 *    MultiSetReuseAnalyzer pass — one stamp plane per distinct set
 *    count on the grid, updated under a shared clock — yields the
 *    exact miss/write-back curve over every associativity at every
 *    requested set count;
 *  * Belady OPT: OPT is a stack algorithm, so one segmented Belady
 *    stack walk resolves every grid capacity at once; it runs
 *    streamed (OptNextUseRecorder on one emission, then a second
 *    emission feeding the stack) so the fast path never holds an
 *    O(trace) buffer — a cold OPT column costs two emissions instead
 *    of a trace-sized allocation;
 *  * models without the inclusion property (set-associative FIFO,
 *    random replacement): one emission replays every point's missing
 *    results through one ReplaySink, each model at O(1) per access
 *    (random replacement is a RandomCache, not a one-set cache
 *    scanning M ways).
 *
 * A cold lru + 8way-lru + opt job therefore costs four emissions,
 * one per consumer plus OPT's second pass; a consumer whose curves
 * the store already has emits nothing.
 * The results are bit-identical to the direct per-point replay
 * (force_replay = true), which the equivalence tests assert.
 *
 * The single-pass curves are pure functions of (kernel, traced
 * problem size, schedule_m), so the engine keeps them in a
 * process-wide two-tier CurveStore (engine/curve_store.hpp): a
 * repeated job — a re-run grid, an A/B bench, and with the on-disk
 * tier enabled even a whole separate invocation — reads its columns
 * without re-emitting the trace at all. The same holds for the
 * *replay* path: every per-point result (non-inclusion models on a
 * fixed schedule, and every model of a per-point-schedule job,
 * schedule_headroom jobs included, whether replayed or read off a
 * per-point analyzer) is a pure function of (trace identity, model
 * family, model config, capacity) and is keyed into the store as a
 * ModelCurve entry — so warm repeats of replay jobs
 * also add zero emissions. engineEmissionCount() exposes the
 * emission counter so tests can assert exactly that.
 *
 * Sharding: run() optionally takes a PointFilter that restricts the
 * measurement to a subset of the expanded (job, point) grid. The
 * grid itself (job resolution, memory grids, result shapes) is
 * always prepared in full and identically for every filter, so
 * disjoint shards computed in different processes can be merged into
 * a result bit-identical to an unsharded run (engine/shard.hpp
 * builds contiguous cell ranges and the fragment format on top of
 * this, and the bench driver's --cells/--shard/--merge/--jobs on top
 * of that).
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kernels/kernel.hpp"
#include "mem/local_memory.hpp"

namespace kb {

/** Replacement disciplines a sweep can replay its traces through. */
enum class MemoryModelKind
{
    Lru,          ///< fully associative LRU (reference model)
    SetAssocLru,  ///< 8-way set-associative, LRU per set
    SetAssocFifo, ///< 8-way set-associative, FIFO per set
    RandomRepl,   ///< fully associative, seeded random replacement
    Opt,          ///< Belady OPT (clairvoyant; streamed in two
                  ///< passes on both paths, never buffered)
};

/** Short name for reports ("lru", "opt", ...). */
const char *memoryModelName(MemoryModelKind kind);

/**
 * Instantiate a demand-fill model of @p kind with capacity @p m.
 * Fatal for MemoryModelKind::Opt, which has no streaming form.
 */
std::unique_ptr<LocalMemory> makeMemoryModel(MemoryModelKind kind,
                                             std::uint64_t m);

/**
 * One declarative grid of measurements: a kernel, a geometric range
 * of local-memory sizes, and a set of replay models evaluated at
 * every point.
 */
struct SweepJob
{
    std::string kernel;      ///< registry name, e.g. "matmul"
    std::uint64_t m_lo = 0;  ///< smallest memory; 0 = kernel default
    std::uint64_t m_hi = 0;  ///< largest memory; 0 = kernel default
    unsigned points = 6;     ///< geometric sample count (>= 3)
    /**
     * Fixed problem size for the whole job; 0 picks the kernel's
     * suggestProblemSize(m_hi). Pinning it makes a job reproduce a
     * bench's exact historical regime (e.g. E12's N = 160).
     */
    std::uint64_t n_hint = 0;
    /// Replay disciplines evaluated per point (empty = schedule only).
    std::vector<MemoryModelKind> models;
    /**
     * Schedule selection for the model replays.
     *
     *   0 (default): historical behavior — every point re-tiles the
     *     schedule for its own m and replays that trace (schedule and
     *     capacity move together).
     *
     *   != 0: the paper's Cio(M) setting — one fixed schedule, tiled
     *     for this m, replayed at every point's capacity. Decouples
     *     schedule-m from capacity-m (tile-headroom studies) and
     *     enables the stack-distance fast path: the trace is emitted
     *     once per model consumer (not per point) and every LRU point
     *     is read off the one-pass MissCurve.
     */
    std::uint64_t schedule_m = 0;
    /**
     * Capacity divisor for the per-point schedule: when != 0, the
     * point at capacity m replays the schedule tiled for
     * m / schedule_headroom. This is the declarative form of E12's
     * "tile = M/2" rows — a per-point schedule/capacity ratio that a
     * fixed schedule_m cannot state (1 reproduces the historical
     * schedule-follows-capacity behavior exactly). Mutually
     * exclusive with schedule_m; per-point traces differ, so such
     * jobs always replay per point. A point whose m / headroom falls
     * below the kernel's minMemory replays the smallest valid
     * schedule instead (clamped up, never dropped) — keep m_lo >=
     * headroom * minMemory when the exact ratio matters.
     */
    std::uint64_t schedule_headroom = 0;
    /**
     * Numerator of the per-point tile fraction: with
     * schedule_headroom != 0 the point at capacity m replays the
     * schedule tiled for m * schedule_headroom_num /
     * schedule_headroom. The default (1) keeps the historical "tile
     * = M/h" reading; E12's 3M/4 rows set num = 3, headroom = 4.
     * Must satisfy 1 <= num <= headroom (the tile never exceeds the
     * capacity); meaningful only with schedule_headroom != 0.
     */
    std::uint64_t schedule_headroom_num = 1;
    /**
     * Disable the stack-distance paths (the fixed-schedule consumers
     * and the per-point 8-way LRU analyzer) AND bypass the CurveStore
     * entirely (no reads, no writes): every point replays directly
     * from a fresh emission. The results are identical either way;
     * this exists for the equivalence tests and the A/B speedup
     * bench, whose "direct" numbers must measure real replays, not
     * store hits.
     */
    bool force_replay = false;
    /**
     * Skip the per-point schedule measurement (measureRatioPoint) and
     * fill only the model columns; samples keep their m so the grid
     * is still visible. This is the "LRU-only sweep" shape: all the
     * work is trace replay, which is what the fast path accelerates.
     */
    bool models_only = false;
};

/** One measured point of a job. */
struct SweepPointResult
{
    RatioPoint sample; ///< the schedule measurement (paper regime)
    /// I/O words of each replayed model, parallel to SweepJob::models.
    std::vector<std::uint64_t> model_io;
};

/** All measurements of one job, points in ascending-memory order. */
struct SweepResult
{
    std::size_t job_index = 0; ///< index into the submitted job list
    SweepJob job;              ///< the job, with defaults resolved
    std::uint64_t n_hint = 0;  ///< fixed problem size used
    std::vector<SweepPointResult> points;

    std::vector<double> memories() const;
    std::vector<double> ratios() const;
};

/**
 * Fixed-size thread-pool executor for SweepJobs.
 *
 * Tasks are individual (job, point) measurements plus, for a
 * fixed-schedule job, one task per model consumer, so a single
 * expensive job still spreads across the pool. run() may be called
 * repeatedly and from any thread; each call spins up its own workers
 * (jobs are seconds-scale, pool spin-up is microseconds).
 */
class ExperimentEngine
{
  public:
    /** @param threads worker count; 0 = hardware concurrency. */
    explicit ExperimentEngine(unsigned threads = 0);

    /** Worker count this engine runs with. */
    unsigned threads() const { return threads_; }

    /**
     * Ownership predicate for sharded runs: true iff this process
     * measures (job_index, point_index). Job resolution and grids
     * are unaffected — only the per-point work is skipped.
     */
    using PointFilter =
        std::function<bool(std::size_t job, std::size_t point)>;

    /**
     * Execute every job and return results in job order. Results are
     * independent of the worker count (see file comment).
     */
    std::vector<SweepResult> run(const std::vector<SweepJob> &jobs) const;

    /** Called with a job's result once all its owned cells are in. */
    using JobDone = std::function<void(const SweepResult &)>;

    /**
     * Sharded form: measure only the (job, point) cells @p owns
     * accepts (nullptr = all). Unowned points keep default-initialized
     * slots; owned points are bit-identical to an unfiltered run, so
     * disjoint shards merge into the full result (engine/shard.hpp).
     * When set, @p done streams the results out during the pass: it
     * is called once per job with at least one owned cell, in job
     * order, as soon as that job and every earlier such job are
     * measured. Calls run on a pool thread, one at a time.
     */
    std::vector<SweepResult> run(const std::vector<SweepJob> &jobs,
                                 const PointFilter &owns,
                                 const JobDone &done = nullptr) const;

    /** Convenience: run a single job. */
    SweepResult runOne(const SweepJob &job) const;

    /**
     * Deterministic parallel map: run @p body for every index in
     * [0, count) on the pool. The body must write only its own
     * index's slot (the SweepJob contract applied to arbitrary
     * grids); results are then independent of the worker count.
     * Examples whose grids are not kernel sweeps (processor-array
     * utilization surfaces, Warp scaling tables) declare their cells
     * as indices and run here.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &body) const;

    /** std::thread::hardware_concurrency with a sane floor of 1. */
    static unsigned hardwareThreads();

  private:
    unsigned threads_;
};

/**
 * Trace emissions performed by engine sweeps in this process (one
 * per emitTrace() call the engine makes). The curve cache exists to
 * keep this from growing on repeated jobs; tests assert on it.
 */
std::uint64_t engineEmissionCount();

} // namespace kb
