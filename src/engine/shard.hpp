/**
 * @file
 * Process-level sharding of sweep grids.
 *
 * A batch of SweepJobs expands to a deterministic (job, point) grid
 * (the engine's phase-1 resolution is identical in every process),
 * so the grid can be partitioned across independent invocations.
 * There is one partition: contiguous *cell ranges* over the
 * linearized grid. Cells are numbered job-major in the deterministic
 * resolution order, so every process agrees on what cell k means.
 * `--cells lo-hi` names a range directly (the unit the work-queue
 * orchestrator deals out, engine/orchestrator.hpp) and `--shard i/N`
 * is shorthand for the i-th of N near-equal ranges (shardCellRange).
 *
 * The owning process streams its cells into a *fragment* file
 * (CellFragmentWriter) and a merge pass reassembles disjoint
 * fragments into the full result vector, bit-identical to an
 * unsharded run (doubles travel as raw IEEE-754 bit patterns, never
 * through decimal round-trips). Rows are keyed by (job, point),
 * never by which worker computed them, so merges are invariant to
 * how ranges were (re)assigned.
 *
 * Fragments are line-oriented text (one `point` row per owned cell)
 * and carry a signature over the resolved job list, so fragments
 * from a different job grid, flag set, or binary revision are
 * rejected instead of silently merged. Rows are written
 * *incrementally* (header first, one flushed row per completed cell,
 * a final `end` line): the growing file doubles as the worker's
 * heartbeat — the orchestrator kills a worker whose fragment stops
 * growing — and a fragment without its `end` line is detectably
 * truncated, so a crash mid-range can never smuggle a partial range
 * past the merge. One reader parses the format for both consumers:
 * checkFragmentFile() is the cheap accept-time validation the
 * orchestrator runs before trusting a worker's exit status, and
 * mergeShardFragments() adds the checks that need the grid (bounds,
 * model columns, duplicates, coverage). With the on-disk CurveStore
 * enabled, shards of one fixed-schedule sweep also share their
 * single-pass curves through tier 2 — the features compose.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"

namespace kb {

/**
 * Content signature of a resolved job grid: every field of every
 * resolved job plus its grid size, hashed. Depends only on the
 * engine's deterministic phase-1 resolution — not on measurements —
 * so every shard of one grid computes the same value.
 */
std::uint64_t sweepSignature(const std::vector<SweepResult> &results);

/**
 * Merge fragment files into @p skeleton: the resolved-but-unmeasured
 * result vector of the same job list (run the engine with a filter
 * owning nothing to get one — it costs no measurements). Cells are
 * keyed by (job, point), never by who computed them. Fatal on a
 * fragment checkFragmentFile() would reject, a job-count or
 * model-column mismatch, a cell outside the grid or supplied twice,
 * or incomplete coverage — a partial merge must never masquerade as
 * a full run.
 */
void mergeShardFragments(std::vector<SweepResult> &skeleton,
                         const std::vector<std::string> &paths);

/** One contiguous range of linearized grid cells: [lo, hi). */
struct CellRange
{
    std::size_t lo = 0;
    std::size_t hi = 0;

    std::size_t size() const { return hi - lo; }
};

/** Parse "lo-hi" (half-open, lo < hi); false on malformed input. */
bool parseCellRange(const std::string &text, CellRange &out);

/** One shard of an N-way partitioned sweep grid. */
struct ShardSpec
{
    std::size_t index = 0; ///< in [0, count)
    std::size_t count = 1; ///< total shards
};

/** Parse "i/N" (e.g. "0/2"); false on malformed input or i >= N. */
bool parseShardSpec(const std::string &text, ShardSpec &out);

/**
 * Shard @p spec's cells of a @p total_cells grid: the contiguous
 * range [floor(i*T/N), floor((i+1)*T/N)). The N ranges tile the grid
 * in order and differ in size by at most one cell; with N > T some
 * are empty (their fragments carry no rows and still merge).
 */
CellRange shardCellRange(const ShardSpec &spec, std::size_t total_cells);

/** Total cell count of a resolved grid (sum of per-job points). */
std::size_t gridCellCount(const std::vector<SweepResult> &skeleton);

/**
 * Map linearized cell index @p cell (job-major over the resolved
 * grid) to its (job, point) coordinates. Fatal out of range.
 */
void cellCoordinates(const std::vector<SweepResult> &skeleton,
                     std::size_t cell, std::size_t &job,
                     std::size_t &point);

/** The engine PointFilter measuring exactly @p range's cells. */
ExperimentEngine::PointFilter
cellRangeFilter(const std::vector<SweepResult> &skeleton,
                const CellRange &range);

/**
 * Incremental fragment writer for a cell-range worker. The header is
 * written on construction; appendCell() writes and *flushes* one
 * `point` row (the flush is the worker's heartbeat — see the file
 * comment); finish() writes the `end` line. Hosts the worker-side
 * fault points (`kill-after-cells`, `hang-after-cells`,
 * `truncate-fragment`), so every orchestrator recovery path can be
 * driven from the environment.
 */
class CellFragmentWriter
{
  public:
    /** Fatal on an unwritable @p path. */
    CellFragmentWriter(const std::string &path, std::uint64_t signature,
                       std::size_t job_count);

    void appendCell(std::size_t job, std::size_t point,
                    const SweepPointResult &pt);
    void finish();

  private:
    std::string path_;
    std::ofstream out_;
    bool finished_ = false;
};

/**
 * Measure @p range's cells of @p jobs on @p engine and stream them
 * into a fragment at @p path; @p skeleton is the jobs' resolved,
 * unmeasured grid. The one fragment producer behind `--cells` and
 * `--shard`. It makes one engine pass over the range and writes each
 * job's rows as soon as the engine reports the job measured, so the
 * growing file is the worker's heartbeat while jobs still overlap on
 * the pool. An empty range writes a valid fragment with no rows.
 */
void writeCellRangeFragment(const ExperimentEngine &engine,
                            const std::vector<SweepJob> &jobs,
                            const std::vector<SweepResult> &skeleton,
                            const CellRange &range,
                            const std::string &path);

/** Accept-time fragment validation result. */
struct FragmentCheck
{
    bool ok = false;
    std::string reason; ///< empty when ok
};

/**
 * Cheap structural validation of a worker's fragment, run by the
 * orchestrator before accepting a slice: the file must exist, parse
 * (header, signature when @p expect_signature is non-empty, well
 * formed `point` rows), carry exactly @p expect_cells rows when
 * non-zero, and close with its `end` line. A truncated, corrupt or
 * short fragment fails the check — the orchestrator re-queues the
 * owning cells instead of failing the merge later.
 *
 * With @p expect_signature empty the check is relaxed to "non-empty
 * and ends with `end`" (test stand-ins that are not real fragments).
 */
FragmentCheck checkFragmentFile(const std::string &path,
                                const std::string &expect_signature,
                                std::size_t expect_cells);

} // namespace kb
