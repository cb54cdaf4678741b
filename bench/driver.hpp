/**
 * @file
 * Shared harness for the bench binaries.
 *
 * The seed's 13 bench mains each hand-rolled the same things:
 * banner printing, serial sweep loops, ASCII tables and ad-hoc CSV
 * dumps, with no command line at all. The driver collapses that into
 * one place. Every bench now:
 *
 *   * parses the common flags (--kernel, --points, --threads,
 *     --analyzer, --csv, --no-csv, --list-kernels, --help);
 *   * gets a BenchContext holding a ready ExperimentEngine sized by
 *     --threads;
 *   * runs its sweeps through the engine (deterministic: --threads N
 *     prints byte-identical tables to --threads 1);
 *   * keeps only its experiment-specific analysis code.
 *
 * Sharding (benches with BenchCaps::shard): `--cells lo-hi` runs one
 * contiguous range of the linearized (job, point) grid and streams
 * its rows into a fragment file (--shard-out) instead of the normal
 * report, each job's rows as soon as the job is measured, so the
 * growing file doubles as a progress heartbeat. `--shard i/N` is shorthand for the i-th of N
 * near-equal ranges and runs the same code; `--merge f0,f1,...`
 * reassembles fragments and prints the report byte-identical to an
 * unsharded run. Ranges are deterministic (engine/shard.hpp), so a
 * grid can be distributed across processes or hosts and merged
 * afterwards. Contiguous ranges keep a job's points together but
 * can be uneven in wall time; `--jobs N` is the balanced route: the
 * driver re-execs ITSELF as `--cells` workers on fine slices under
 * the fault-tolerant work-queue coordinator (engine/orchestrator.hpp:
 * progress deadlines, capped-backoff retries, speculative
 * re-dispatch), merges their fragments, and prints the report —
 * byte-identical to the unsharded run.
 * `--curve-store DIR` points the two-tier CurveStore's disk tier at
 * DIR (equivalent to KB_CURVE_CACHE_DIR), letting shards and
 * repeated invocations share their single-pass curves and replayed
 * points; orchestrated workers inherit the flag automatically, and
 * the coordinator fscks the shared directory before the fleet
 * launches. `--store-fsck` runs that integrity scan standalone:
 * corrupt or misaddressed entries and crashed writers' temp files
 * are removed, valid entries untouched.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "analysis/sweep.hpp"
#include "engine/engine.hpp"
#include "util/csv.hpp"

namespace kb {
namespace bench {

/**
 * Which of the shared flags a bench actually honors. Flags a bench
 * does not honor are rejected (exit 2) instead of silently ignored,
 * and dropped from its --help text.
 */
struct BenchCaps
{
    bool kernels = true;    ///< --kernel restricts its sweeps
    bool points = true;     ///< --points resizes its sweeps
    bool threads = true;    ///< --threads feeds its engine use
    bool perf_json = false; ///< --perf-json runs its perf-report mode
    /// --shard/--merge: the bench routes exactly one job batch
    /// through BenchContext::runJobs(), so its grid can be split
    /// across processes and its report reassembled.
    bool shard = false;
};

/** Options shared by every bench binary. */
struct DriverOptions
{
    /// --kernel: restrict multi-kernel benches to these registry
    /// names (repeatable flag, commas allowed). Empty = bench default.
    std::vector<std::string> kernels;
    unsigned points = 0;  ///< --points: sweep samples; 0 = bench default
    unsigned threads = 0; ///< --threads: engine workers; 0 = hardware
    /// --analyzer scalar|simd: row-scan path of the set-associative
    /// analyzers (see trace/reuse.hpp). Empty = the KB_ANALYZER
    /// environment variable, or simd. Curves are bit-identical across
    /// paths; only the scan speed changes. Inherited by --jobs
    /// workers via self_args.
    std::string analyzer;
    std::string csv_path; ///< --csv: override the bench's CSV path
    bool no_csv = false;  ///< --no-csv: suppress CSV side outputs
    /// --perf-json: write the bench's machine-readable perf report
    /// here instead of running its normal tables (benches with
    /// BenchCaps::perf_json only; refused with any partition flag).
    std::string perf_json;
    /// --shard i/N: shorthand for --cells over the i-th of N
    /// contiguous ranges of the grid (benches with BenchCaps::shard).
    std::string shard;
    /// --cells lo-hi: run one linearized cell range of the grid and
    /// stream a fragment instead of the report (benches with
    /// BenchCaps::shard; the orchestrator's worker-side flag).
    std::string cells;
    /// --shard-out: fragment path (default shard_<i>_of_<N>.kbshard).
    std::string shard_out;
    /// --merge: fragment paths to reassemble into the full report
    /// (repeatable flag, commas allowed).
    std::vector<std::string> merge_paths;
    /// --jobs N: run the grid through the work-queue coordinator
    /// with N concurrent worker subprocesses of this very binary
    /// (benches with BenchCaps::shard; mutually exclusive with
    /// --shard/--cells/--merge; 0 or 1 = run inline).
    unsigned jobs = 0;
    /// --curve-store DIR: enable the CurveStore's on-disk tier at DIR.
    std::string curve_store_dir;
    /// --store-fsck: integrity-scan the store directory (removing
    /// corrupt entries and stale temps) and exit instead of running
    /// the bench.
    bool store_fsck = false;
    /// The invocation itself, for --jobs re-execs: argv[0] and every
    /// argument except --jobs (filled by runBench).
    std::string self_program;
    std::vector<std::string> self_args;
};

/** Per-run state handed to a bench body. */
class BenchContext
{
  public:
    BenchContext(DriverOptions opts, std::string experiment);

    const DriverOptions &options() const { return opts_; }
    const ExperimentEngine &engine() const { return engine_; }
    const std::string &experiment() const { return experiment_; }

    /** --points if given, else @p fallback. */
    unsigned points(unsigned fallback) const;

    /**
     * Kernel selection: --kernel names if given (validated against
     * the registry), else @p fallback, else every registered kernel.
     */
    std::vector<std::string>
    kernels(std::vector<std::string> fallback = {}) const;

    /** Measure one curve on the engine (kernel default range). */
    RatioCurve curve(const std::string &kernel,
                     unsigned fallback_points = 6) const;

    /** Run the experiment's declared SweepJobs, with --kernel and
     *  --points applied on top. Routed through runJobs(), so the
     *  declared grid shards and merges like any other batch. */
    std::vector<SweepResult> experimentSweeps() const;

    /**
     * Run one batch of jobs honoring the sharding flags. Without
     * them this is engine().run(jobs). With --merge or --jobs it
     * reassembles fragments into the full result (so the bench body
     * formats a report byte-identical to an unsharded run). With
     * --cells or --shard it measures only that cell range, writes
     * the fragment, and unwinds out of the bench body (runBench
     * catches the unwind and exits 0) — a bench with BenchCaps::shard
     * must route its one job batch through here.
     */
    std::vector<SweepResult>
    runJobs(const std::vector<SweepJob> &jobs) const;

    /**
     * CSV writer honoring --csv/--no-csv: nullptr when suppressed,
     * otherwise opened at --csv's path or @p default_path. The bench
     * should mention the file in its stdout only via csvNote().
     */
    std::unique_ptr<CsvWriter>
    csv(const std::string &default_path,
        std::vector<std::string> headers) const;

    /** "(series written to X)" line, or "" when CSV is suppressed. */
    std::string csvNote(const std::string &default_path) const;

  private:
    DriverOptions opts_;
    std::string experiment_;
    ExperimentEngine engine_;
};

/**
 * Standard R(M) sweep table: columns M, Ccomp, Cio, R(M), plus an
 * optional shape column (e.g. R/sqrt(M)) computed per sample.
 */
void printCurveTable(
    std::ostream &os, const RatioCurve &curve,
    const char *shape_header = nullptr,
    const std::function<double(const RatioSample &)> &shape = nullptr);

/**
 * Bench entry point: parse flags, print the experiment banner (when
 * @p experiment is non-null), build the context, run @p body.
 * Returns the body's exit code, or 2 on a bad command line (including
 * a flag outside @p caps).
 */
int runBench(int argc, char **argv, const char *experiment,
             const std::function<int(BenchContext &)> &body,
             const BenchCaps &caps = {});

} // namespace bench
} // namespace kb
