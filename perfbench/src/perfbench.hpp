/**
 * @file
 * The repository benchmark: named sweep workloads, their timed passes,
 * the correctness gate, and the traced per-layer run.
 *
 * A workload is a seeded list of SweepJobs grouped into batches; one
 * *pass* runs every batch through ExperimentEngine::run in order. The
 * program only ever receives SweepJobs — the seed shifts each job's
 * memory grid within a narrow band and permutes the order jobs are
 * submitted in within each batch, so a claim written against one seed
 * can be re-checked on another.
 */

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "engine/curve_store.hpp"
#include "engine/engine.hpp"

namespace perfbench {

/** Seed whose pass digests are committed in digests.txt. */
constexpr std::uint64_t kDefaultSeed = 1;

/** A job plus its position in the unpermuted workload definition. */
struct SeededJob
{
    kb::SweepJob job;
    std::size_t canonical = 0;
};

/** One engine.run() call of a pass. */
using Batch = std::vector<SeededJob>;

struct Workload
{
    std::string name;
    std::uint64_t seed = kDefaultSeed;
    std::vector<Batch> batches;
    /// warm_store: served from a disk tier populated during setup;
    /// a pass that emits a trace fails.
    bool warm = false;
    /// Worker lanes one pass can keep busy: cold_ablation runs one
    /// job (one heavy task) at a time, the others fill the pool.
    bool pooled = true;
};

/** Workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** Build @p name's job list for @p seed; false on an unknown name. */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  Workload &out);

/** Every job of @p w with force_replay set (the direct-replay oracle),
 *  in one batch. */
std::vector<kb::SweepJob> forcedJobs(const Workload &w);

/** Canonical-order results of one pass. */
using PassResults = std::vector<kb::SweepResult>;

/** Total (job, point) cells of a workload, as gridCellCount counts. */
std::size_t cellCount(const kb::ExperimentEngine &engine,
                      const Workload &w);

/** FNV-1a over the bit patterns of every sample and model_io word. */
std::uint64_t digestOf(const PassResults &results);

/** True iff the two cells are bit-identical. */
bool sameCell(const kb::SweepPointResult &a, const kb::SweepPointResult &b);

/** Point the curve store at a pass's disk tier: a freshly emptied
 *  @p dir for a cold workload, the populated @p dir for a warm one.
 *  Tier 1 and the counters are cleared either way. */
void prepareStore(const Workload &w, const std::string &dir);

/** Run every job of @p w once against an emptied store at @p dir
 *  (the warm_store population step). */
void populateStore(const Workload &w, const std::string &dir,
                   unsigned threads);

/** What one untraced pass did. */
struct PassOutcome
{
    PassResults results;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::uint64_t emissions = 0;
    double peak_rss_mb = 0.0; ///< the pass's own peak RSS
    kb::CurveStoreStats store;
    std::string error; ///< a thrown exception, "" when none
};

PassOutcome runPass(const kb::ExperimentEngine &engine, const Workload &w,
                    const std::string &store_dir);

/** What a pass is checked against. */
struct Expectation
{
    std::optional<std::uint64_t> digest; ///< committed, default seed
    /// (canonical job, point) -> direct-replay oracle cell.
    std::map<std::pair<std::size_t, std::size_t>, kb::SweepPointResult>
        oracle_cells;
};

/** The correctness gate: "" when the pass is correct, else why not. */
std::string checkPass(const Workload &w, const PassOutcome &pass,
                      const Expectation &expect);

/** Oracle cells for a non-default seed: a few seed-chosen cells
 *  recomputed with force_replay. */
Expectation crossCheckCells(const kb::ExperimentEngine &engine,
                            const Workload &w, std::size_t cells);

/** Committed digest of (workload, seed) from @p path, if listed. */
std::optional<std::uint64_t> committedDigest(const std::string &path,
                                             const std::string &workload,
                                             std::uint64_t seed);

/** Process user+sys CPU seconds so far. */
double processCpuSeconds();

/** Seconds on the steady clock since an arbitrary epoch. */
double nowSeconds();

/** Median of @p values (mean of the middle two when even); 0 if empty. */
double median(std::vector<double> values);

// --------------------------------------------------------------- traced

/** Per-layer metrics of one traced invocation, by metric name. */
using LayerMetrics = std::map<std::string, double>;

/**
 * The traced run: untraced reference passes (wall_s, emissions, CPU),
 * a serial pass for pool efficiency, then traced replica passes that
 * re-issue each pass's work through the layers' public calls with a
 * span around each. Writes the spans to @p span_path as Chrome
 * trace-event JSON. @p failed / @p attempted count passes that threw
 * or disagreed with the engine's results.
 */
LayerMetrics tracedRun(const kb::ExperimentEngine &engine, const Workload &w,
                       const std::string &store_dir, double seconds,
                       const std::string &span_path,
                       const Expectation &expect, int &attempted,
                       int &failed);

/** Names of every per-layer metric, in report order. */
std::vector<std::string> perLayerMetricNames();

/** Unit of per-layer metric @p name ("s", "words/s", "count", ...). */
std::string perLayerUnit(const std::string &name);

/** Self-tests of the gate and metric tables; 0 when all pass. */
int selfTest(const std::string &scratch_dir);

} // namespace perfbench
