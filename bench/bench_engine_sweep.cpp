/**
 * @file
 * Engine bench: the full multi-kernel balance sweep on the parallel
 * experiment engine.
 *
 * This is the scaling canary for the engine layer. It measures every
 * registered kernel's R(M) curve (optionally restricted with
 * --kernel) as one batch of SweepJobs and prints the curves. Wall
 * time and worker count go to *stderr*, so stdout is byte-identical
 * for every --threads value — compare:
 *
 *   bench_engine_sweep --threads 1 > a.txt
 *   bench_engine_sweep --threads 8 > b.txt
 *   diff a.txt b.txt   # empty; stderr shows the speedup
 *
 * --shard I/N runs the I-th of N contiguous ranges of the batch's
 * linearized (job, point) grid and writes a fragment; --merge
 * reassembles fragments into the full report, byte-identical to the
 * unsharded run. --jobs N deals fine --cells slices to N worker
 * subprocesses of this binary, merges them and prints the report;
 * it is the load-balanced route (CI diffs both). See
 * engine/shard.hpp and engine/orchestrator.hpp.
 *
 * --perf-json PATH switches to the perf-report mode: it A/B-measures
 * the stack-distance fast path against direct per-point replay on
 * fixed-schedule sweeps (the same job, force_replay toggled; results
 * are bit-identical, the engine tests assert it) — the historical
 * LRU-only sweep plus the set-associative-LRU, Belady-OPT and
 * combined ablation columns — plus raw trace-replay throughput, the
 * cache-hot re-run time of each fast job, and the two-tier curve
 * store's cold-disk vs warm-disk sweep times (a scratch directory
 * stands in for a shared cache dir; tier 1 is cleared between the
 * runs so the warm number is what a *fresh process* would pay) —
 * measured both for a fast-path job and for a pure *replay* job
 * (E12's tile-headroom shape), whose per-point results ride the
 * store's ModelCurve entries. An `orchestrator` section times the
 * work-queue coordinator over a small two-kernel grid, fault-free
 * and with one worker SIGKILLed mid-slice, so coordination overhead
 * and recovery cost are part of the trajectory too. The
 * CurveStore is cleared before every cold measurement so the A/B
 * stays honest. CI stores the file as the BENCH_sweep.json artifact
 * so every PR leaves a perf trajectory.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include <unistd.h>

#include "bench/driver.hpp"
#include "engine/curve_store.hpp"
#include "engine/orchestrator.hpp"
#include "engine/shard.hpp"
#include "kernels/registry.hpp"
#include "util/binio.hpp"
#include "util/faultpoint.hpp"
#include "mem/lru_cache.hpp"
#include "mem/opt_cache.hpp"
#include "trace/replay.hpp"
#include "trace/reuse.hpp"
#include "trace/sink.hpp"
#include "util/table.hpp"

namespace {

using namespace kb;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Wall time of one engine run of @p job. */
double
timedRun(const ExperimentEngine &engine, const SweepJob &job)
{
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = engine.runOne(job);
    (void)result;
    return secondsSince(t0);
}

/** One model family's fast-vs-replay A/B numbers. */
struct SweepAb
{
    double direct_s = 0.0;      ///< force_replay, curve cache cleared
    double fast_cold_s = 0.0;   ///< fast path, curve cache cleared
    double fast_cached_s = 0.0; ///< fast path again, cache hot
};

/**
 * A/B one fixed-schedule sweep: direct per-point replay vs the
 * single-pass fast path (cold and cache-hot). The cache is cleared
 * before each cold run so earlier measurements cannot subsidize
 * later ones.
 */
SweepAb
measureSweepAb(const ExperimentEngine &engine, const SweepJob &job)
{
    SweepJob direct_job = job;
    direct_job.force_replay = true;

    SweepAb ab;
    CurveStore::instance().clear();
    ab.direct_s = timedRun(engine, direct_job);
    CurveStore::instance().clear();
    ab.fast_cold_s = timedRun(engine, job);
    ab.fast_cached_s = timedRun(engine, job);
    return ab;
}

/** Cold-disk vs warm-disk (fresh-process) times of one job. */
struct StoreAb
{
    double disk_cold_s = 0.0; ///< empty disk dir, empty tier 1
    double disk_warm_s = 0.0; ///< warm disk dir, empty tier 1
    std::uint64_t warm_emissions = 0; ///< trace emissions of the warm run
    std::uint64_t cold_replay_stores = 0; ///< replayed points persisted
    std::uint64_t warm_replay_hits = 0;   ///< replayed points served warm
};

/**
 * Time the two-tier store: run @p job against an empty scratch
 * directory (cold: builds curves and persists them), then clear tier
 * 1 only and run again (warm: what a separate invocation pays —
 * curves come off disk, zero trace emissions). The store is restored
 * to its previous directory afterwards.
 */
StoreAb
measureStoreAb(const ExperimentEngine &engine, const SweepJob &job)
{
    auto &store = CurveStore::instance();
    const std::string previous_dir = store.diskDirectory();
    // Pid-suffixed scratch: concurrent perf runs on one host must
    // not clear each other's entries mid-measurement.
    const auto scratch =
        std::filesystem::temp_directory_path() /
        ("kb_curve_store_perf." +
         std::to_string(static_cast<unsigned long>(::getpid())));

    StoreAb ab;
    store.setDiskDirectory(scratch.string());
    store.clearDisk();
    store.clear();
    ab.disk_cold_s = timedRun(engine, job);
    ab.cold_replay_stores = store.stats().replay_stores;
    store.clear(); // tier 1 only: model a fresh process, warm disk
    const std::uint64_t emissions_before = engineEmissionCount();
    ab.disk_warm_s = timedRun(engine, job);
    ab.warm_emissions = engineEmissionCount() - emissions_before;
    ab.warm_replay_hits = store.stats().replay_hits;

    store.clearDisk();
    store.setDiskDirectory(previous_dir);
    store.clear();
    std::error_code ec;
    std::filesystem::remove(scratch, ec);
    return ab;
}

/**
 * Time the fault-tolerant work queue itself: orchestrate a small
 * two-kernel grid across 2 worker subprocesses of this very binary,
 * fault-free and then with the first worker SIGKILLed mid-slice
 * (KB_FAULT=kill-after-cells=1@worker=0), so the report pins both the
 * coordination overhead (wall vs summed worker busy time) and the
 * recovery cost of one lost worker. Returns false (refusing the
 * report) if either run fails to complete.
 */
bool
measureOrchestrator(const bench::BenchContext &ctx,
                    OrchestratorStats &clean, OrchestratorStats &faulted,
                    std::size_t &grid_cells, std::string &error)
{
    // The exact grid the re-execed workers will build from these
    // flags; its signature gates fragment acceptance.
    std::vector<SweepJob> jobs;
    for (const char *name : {"matmul", "fft"}) {
        SweepJob job;
        job.kernel = name;
        job.points = 3;
        jobs.push_back(job);
    }
    const ExperimentEngine serial(1);
    const auto skeleton = serial.run(
        jobs, [](std::size_t, std::size_t) { return false; });

    OrchestratorSpec spec;
    spec.program = ctx.options().self_program;
    spec.args = {"--points", "3", "--kernel", "matmul,fft",
                 "--threads", "1"};
    spec.jobs = 2;
    spec.total_cells = gridCellCount(skeleton);
    spec.expect_signature = toHex16(sweepSignature(skeleton));
    grid_cells = spec.total_cells;

    auto run = orchestrateSweep(spec);
    if (!run.ok) {
        error = run.error;
        return false;
    }
    clean = run.stats;
    removeOrchestratorScratch(run.scratch_dir);

    ::setenv("KB_FAULT", "kill-after-cells=1@worker=0", 1);
    faultReset();
    run = orchestrateSweep(spec);
    ::unsetenv("KB_FAULT");
    faultReset();
    if (!run.ok) {
        error = run.error;
        return false;
    }
    faulted = run.stats;
    removeOrchestratorScratch(run.scratch_dir);
    return true;
}

void
writeOrchestratorStatsJson(std::ostream &out, const char *indent,
                           const OrchestratorStats &s)
{
    out << indent << "\"slices\": " << s.slices << ",\n"
        << indent << "\"dispatched\": " << s.dispatched << ",\n"
        << indent << "\"retried\": " << s.retried << ",\n"
        << indent << "\"speculative\": " << s.speculative << ",\n"
        << indent << "\"workers_killed\": " << s.workers_killed << ",\n"
        << indent << "\"fragments_rejected\": " << s.fragments_rejected
        << ",\n"
        << indent << "\"wall_s\": " << s.wall_s << ",\n"
        << indent << "\"busy_s\": " << s.busy_s << "\n";
}

double
speedup(const SweepAb &ab)
{
    return ab.fast_cold_s > 0.0 ? ab.direct_s / ab.fast_cold_s : 0.0;
}

void
writeAbJson(std::ostream &out, const char *name,
            const std::vector<const char *> &models, unsigned points,
            const SweepAb &ab, bool trailing_comma)
{
    out << "  \"" << name << "\": {\n"
        << "    \"points\": " << points << ",\n"
        << "    \"models\": [";
    for (std::size_t i = 0; i < models.size(); ++i)
        out << (i ? ", " : "") << "\"" << models[i] << "\"";
    out << "],\n"
        << "    \"direct_replay_s\": " << ab.direct_s << ",\n"
        << "    \"fast_path_s\": " << ab.fast_cold_s << ",\n"
        << "    \"cached_fast_path_s\": " << ab.fast_cached_s << ",\n"
        << "    \"speedup\": " << speedup(ab) << "\n"
        << "  }" << (trailing_comma ? "," : "") << "\n";
}

int
writePerfReport(const bench::BenchContext &ctx, const std::string &path)
{
    const auto selected = ctx.kernels({"matmul"});
    if (selected.size() != 1) {
        std::cerr << "perf-json: the report measures exactly one "
                     "kernel; pass a single --kernel NAME\n";
        return 2;
    }
    // Fail on an unwritable path up front, before minutes of timed
    // sweeps run for nothing.
    std::ofstream out(path);
    if (!out) {
        std::cerr << "perf-json: cannot open " << path << "\n";
        return 1;
    }
    // Detach the disk tier for the whole report: clear() empties
    // tier 1 only, so an ambient KB_CURVE_CACHE_DIR (or a previous
    // sweep's entries) would otherwise serve the "cold" runs from
    // disk and fake the A/B numbers. measureStoreAb re-attaches a
    // scratch directory for the one section that measures the disk
    // tier on purpose.
    auto &curve_store = CurveStore::instance();
    const std::string ambient_store_dir = curve_store.diskDirectory();
    curve_store.setDiskDirectory("");
    const std::string kernel_name = selected.front();
    const auto kernel = KernelRegistry::instance().shared(kernel_name);
    std::uint64_t m_lo = 0, m_hi = 0;
    kernel->defaultSweepRange(m_lo, m_hi);
    const std::uint64_t schedule_m = m_hi;
    const std::uint64_t n_hint = kernel->suggestProblemSize(m_hi);
    const std::uint64_t n_trace =
        kernel->regimeProblemSize(n_hint, schedule_m);

    // --- raw trace-replay throughput on the fixed-schedule trace ---
    CountingSink counter;
    kernel->emitTrace(n_trace, schedule_m, counter);
    const std::uint64_t words = counter.total();

    auto t0 = std::chrono::steady_clock::now();
    NullSink null;
    kernel->emitTrace(n_trace, schedule_m, null);
    const double emit_s = secondsSince(t0);

    t0 = std::chrono::steady_clock::now();
    LruCache lru(schedule_m);
    ReplaySink replay(lru);
    kernel->emitTrace(n_trace, schedule_m, replay);
    replay.flush();
    const double direct_s = secondsSince(t0);

    t0 = std::chrono::steady_clock::now();
    ReuseDistanceAnalyzer analyzer;
    kernel->emitTrace(n_trace, schedule_m, analyzer);
    const auto curve = analyzer.missCurve();
    const double stack_s = secondsSince(t0);

    // Cross-check while we are here: the one-pass curve must agree
    // with the replay it is about to be benchmarked against.
    if (curve.ioWords(schedule_m) != lru.stats().ioWords()) {
        std::cerr << "perf-json: fast path diverged from direct "
                     "replay; refusing to report\n";
        return 1;
    }

    // --- end-to-end fixed-schedule sweeps, fast path vs replay ---
    SweepJob job;
    job.kernel = kernel_name;
    job.points = ctx.points(8);
    job.models = {MemoryModelKind::Lru};
    job.schedule_m = schedule_m;
    job.models_only = true;

    const ExperimentEngine serial(1);

    // --- the three analyzer paths vs their pre-PR-6 baselines ---
    // Probe the grid the engine would sweep: with no models the run
    // just materializes each point's capacity sample.
    SweepJob grid_probe = job;
    grid_probe.models = {};
    const auto grid_points = serial.runOne(grid_probe).points;
    std::vector<std::uint64_t> grid_m;
    std::vector<std::uint64_t> grid_sets;
    for (const auto &pt : grid_points) {
        grid_m.push_back(pt.sample.m);
        // Mirrors the engine's set-assoc convention: 8-way caches,
        // sets = max(ceil(m / 8), 1).
        const std::uint64_t sets =
            std::max<std::uint64_t>((pt.sample.m + 7) / 8, 1);
        if (std::find(grid_sets.begin(), grid_sets.end(), sets) ==
            grid_sets.end())
            grid_sets.push_back(sets);
    }

    // Multi-set: ONE emission covering every set count, vs one
    // emission per set count (what the engine paid before).
    t0 = std::chrono::steady_clock::now();
    MultiSetReuseAnalyzer multi(grid_sets, 8);
    kernel->emitTrace(n_trace, schedule_m, multi);
    std::uint64_t multi_io = 0;
    for (std::size_t p = 0; p < multi.planeCount(); ++p)
        multi_io += multi.waysCurve(p).ioWords(8);
    const double multi_s = secondsSince(t0);

    t0 = std::chrono::steady_clock::now();
    std::uint64_t per_set_io = 0;
    for (const std::uint64_t sets : grid_sets) {
        MultiSetReuseAnalyzer one({sets}, 8);
        kernel->emitTrace(n_trace, schedule_m, one);
        per_set_io += one.waysCurve(0).ioWords(8);
    }
    const double per_set_s = secondsSince(t0);
    if (multi_io != per_set_io) {
        std::cerr << "perf-json: multi-set pass diverged from "
                     "per-set passes; refusing to report\n";
        return 1;
    }

    // Per-path A/B of the same one-pass scan: the vectorized row
    // scan vs the scalar oracle, pinned explicitly so the report
    // carries both regardless of KB_ANALYZER / --analyzer.
    const auto timeMultiPath = [&](AnalyzerPath path,
                                   std::uint64_t &io) {
        const auto path_t0 = std::chrono::steady_clock::now();
        MultiSetReuseAnalyzer pinned(grid_sets, 8, path);
        kernel->emitTrace(n_trace, schedule_m, pinned);
        io = 0;
        for (std::size_t p = 0; p < pinned.planeCount(); ++p)
            io += pinned.waysCurve(p).ioWords(8);
        return secondsSince(path_t0);
    };
    std::uint64_t scalar_io = 0;
    std::uint64_t simd_io = 0;
    const double multi_scalar_s =
        timeMultiPath(AnalyzerPath::Scalar, scalar_io);
    const double multi_simd_s =
        timeMultiPath(AnalyzerPath::Simd, simd_io);
    if (scalar_io != multi_io || simd_io != multi_io) {
        std::cerr << "perf-json: analyzer paths diverged "
                     "(scalar/simd/active io mismatch); refusing to "
                     "report\n";
        return 1;
    }

    // The fully associative pass per analyzer path: Scalar is the
    // per-word reference loops, Simd adds the ISA rank scans and the
    // run-block shortcut.
    const auto timeFullyAssoc = [&](AnalyzerPath path,
                                    MissCurve &curve_out) {
        const auto path_t0 = std::chrono::steady_clock::now();
        ReuseDistanceAnalyzer fa(path);
        kernel->emitTrace(n_trace, schedule_m, fa);
        curve_out = fa.missCurve();
        return secondsSince(path_t0);
    };
    MissCurve fa_scalar_curve({}, 0, 0);
    MissCurve fa_simd_curve({}, 0, 0);
    const double fa_scalar_s =
        timeFullyAssoc(AnalyzerPath::Scalar, fa_scalar_curve);
    const double fa_simd_s =
        timeFullyAssoc(AnalyzerPath::Simd, fa_simd_curve);
    for (const std::uint64_t m : grid_m) {
        if (fa_scalar_curve.ioWords(m) != curve.ioWords(m) ||
            fa_simd_curve.ioWords(m) != curve.ioWords(m)) {
            std::cerr << "perf-json: fully-assoc analyzer paths "
                         "diverged; refusing to report\n";
            return 1;
        }
    }

    // OPT: the streaming two-pass walk (two emissions, no trace
    // buffer) vs buffering the trace and walking it in place.
    OptStreamStats opt_stats;
    t0 = std::chrono::steady_clock::now();
    const OptCurve opt_streamed = simulateOptCurveStreaming(
        [&](TraceSink &sink) {
            kernel->emitTrace(n_trace, schedule_m, sink);
        },
        grid_m, OptStreamOptions{}, &opt_stats);
    const double opt_stream_s = secondsSince(t0);

    t0 = std::chrono::steady_clock::now();
    VectorSink trace_buffer;
    kernel->emitTrace(n_trace, schedule_m, trace_buffer);
    const OptCurve opt_buffered =
        simulateOptCurve(trace_buffer.trace(), grid_m);
    const double opt_buffered_s = secondsSince(t0);
    for (const std::uint64_t m : grid_m) {
        if (opt_streamed.ioWords(m) != opt_buffered.ioWords(m)) {
            std::cerr << "perf-json: streaming OPT diverged from the "
                         "buffered walk; refusing to report\n";
            return 1;
        }
    }

    const SweepAb lru_ab = measureSweepAb(serial, job);

    // Per-column A/B for the PR-3 fast paths, single-threaded, plus
    // the combined set-assoc + OPT ablation shape (what E12-style
    // studies pay for).
    SweepJob sa_job = job;
    sa_job.models = {MemoryModelKind::SetAssocLru};
    const SweepAb sa_ab = measureSweepAb(serial, sa_job);

    SweepJob opt_job = job;
    opt_job.models = {MemoryModelKind::Opt};
    const SweepAb opt_ab = measureSweepAb(serial, opt_job);

    SweepJob ablation_job = job;
    ablation_job.models = {MemoryModelKind::SetAssocLru,
                           MemoryModelKind::Opt};
    const SweepAb ablation_ab = measureSweepAb(serial, ablation_job);

    // The two-tier store: cold disk vs warm disk on the ablation
    // shape (the heaviest fast-path job in this report).
    const StoreAb store_ab = measureStoreAb(serial, ablation_job);

    // The replay path through the store: a tile-headroom job (E12's
    // shape) whose per-point schedules rule out the fast path — every
    // column is a real replay cold, and a pure store read warm.
    SweepJob replay_job = job;
    replay_job.models = {MemoryModelKind::SetAssocLru,
                         MemoryModelKind::SetAssocFifo,
                         MemoryModelKind::RandomRepl};
    replay_job.schedule_m = 0;
    replay_job.schedule_headroom = 2;
    const StoreAb replay_ab = measureStoreAb(serial, replay_job);

    // The work-queue coordinator, fault-free vs one killed worker.
    OrchestratorStats orch_clean;
    OrchestratorStats orch_faulted;
    std::size_t orch_cells = 0;
    std::string orch_error;
    if (!measureOrchestrator(ctx, orch_clean, orch_faulted, orch_cells,
                             orch_error)) {
        std::cerr << "perf-json: orchestrated sweep failed ("
                  << orch_error << "); refusing to report\n";
        return 1;
    }

    // The historical threads-N LRU numbers (pool scaling trajectory).
    const unsigned pool_threads = ctx.engine().threads();
    SweepJob direct_job = job;
    direct_job.force_replay = true;
    CurveStore::instance().clear();
    const double pool_direct_s = timedRun(ctx.engine(), direct_job);
    CurveStore::instance().clear();
    const double pool_fast_s = timedRun(ctx.engine(), job);
    curve_store.setDiskDirectory(ambient_store_dir);

    const auto rate = [words](double s) {
        return s > 0.0 ? static_cast<double>(words) / s : 0.0;
    };
    const char *kb_simd_env = std::getenv("KB_SIMD");
    out.precision(6);
    out << "{\n"
        << "  \"bench\": \"bench_engine_sweep\",\n"
        << "  \"kernel\": \"" << kernel_name << "\",\n"
        << "  \"schedule_m\": " << schedule_m << ",\n"
        << "  \"n_trace\": " << n_trace << ",\n"
        << "  \"trace_words\": " << words << ",\n"
        << "  \"host\": {\n"
        << "    \"cpus\": " << std::thread::hardware_concurrency()
        << ",\n"
        << "    \"simd_isa\": \"" << analyzerSimdIsa() << "\",\n"
        << "    \"kb_simd\": \""
        << (kb_simd_env != nullptr && *kb_simd_env != '\0'
                ? kb_simd_env
                : "auto")
        << "\",\n"
        << "    \"analyzer_path\": \""
        << analyzerPathName(activeAnalyzerPath()) << "\"\n"
        << "  },\n"
        << "  \"replay\": {\n"
        << "    \"emit_only_s\": " << emit_s << ",\n"
        << "    \"emit_words_per_s\": " << rate(emit_s) << ",\n"
        << "    \"direct_lru_s\": " << direct_s << ",\n"
        << "    \"direct_lru_words_per_s\": " << rate(direct_s) << ",\n"
        << "    \"stack_distance_s\": " << stack_s << ",\n"
        << "    \"stack_distance_words_per_s\": " << rate(stack_s)
        << "\n"
        << "  },\n"
        << "  \"analyzer\": {\n"
        << "    \"fully_assoc_words_per_s\": " << rate(stack_s)
        << ",\n"
        << "    \"multi_set_counts\": " << grid_sets.size() << ",\n"
        << "    \"multi_set_one_pass_s\": " << multi_s << ",\n"
        << "    \"multi_set_one_pass_words_per_s\": "
        << rate(multi_s) << ",\n"
        << "    \"multi_set_one_pass_path\": \""
        << analyzerPathName(multi.path()) << "\",\n"
        << "    \"multi_set_scalar_s\": " << multi_scalar_s << ",\n"
        << "    \"multi_set_scalar_words_per_s\": "
        << rate(multi_scalar_s) << ",\n"
        << "    \"multi_set_simd_s\": " << multi_simd_s << ",\n"
        << "    \"multi_set_simd_words_per_s\": "
        << rate(multi_simd_s) << ",\n"
        << "    \"multi_set_simd_speedup\": "
        << (multi_simd_s > 0.0 ? multi_scalar_s / multi_simd_s : 0.0)
        << ",\n"
        << "    \"multi_set_per_set_passes_s\": " << per_set_s
        << ",\n"
        << "    \"multi_set_speedup\": "
        << (multi_s > 0.0 ? per_set_s / multi_s : 0.0) << ",\n"
        << "    \"fully_assoc_scalar_s\": " << fa_scalar_s << ",\n"
        << "    \"fully_assoc_simd_s\": " << fa_simd_s << ",\n"
        << "    \"fully_assoc_simd_speedup\": "
        << (fa_simd_s > 0.0 ? fa_scalar_s / fa_simd_s : 0.0) << ",\n"
        << "    \"opt_streaming_s\": " << opt_stream_s << ",\n"
        << "    \"opt_streaming_words_per_s\": "
        << rate(opt_stream_s) << ",\n"
        << "    \"opt_buffered_s\": " << opt_buffered_s << ",\n"
        << "    \"opt_streaming_peak_resident_bytes\": "
        << opt_stats.peak_resident_bytes << ",\n"
        << "    \"opt_streaming_spilled_bytes\": "
        << opt_stats.spilled_bytes << "\n"
        << "  },\n"
        << "  \"sweep\": {\n"
        << "    \"points\": " << job.points << ",\n"
        << "    \"models\": [\"lru\"],\n"
        << "    \"threads_1\": {\n"
        << "      \"direct_replay_s\": " << lru_ab.direct_s << ",\n"
        << "      \"fast_path_s\": " << lru_ab.fast_cold_s << ",\n"
        << "      \"cached_fast_path_s\": " << lru_ab.fast_cached_s
        << ",\n"
        << "      \"speedup\": " << speedup(lru_ab) << "\n"
        << "    },\n"
        << "    \"threads_n\": {\n"
        << "      \"threads\": " << pool_threads << ",\n"
        << "      \"direct_replay_s\": " << pool_direct_s << ",\n"
        << "      \"fast_path_s\": " << pool_fast_s << ",\n"
        << "      \"speedup\": "
        << (pool_fast_s > 0.0 ? pool_direct_s / pool_fast_s : 0.0)
        << "\n"
        << "    }\n"
        << "  },\n";
    writeAbJson(out, "setassoc_sweep", {"8way-lru"}, job.points, sa_ab,
                true);
    writeAbJson(out, "opt_sweep", {"opt"}, job.points, opt_ab, true);
    writeAbJson(out, "ablation_sweep", {"8way-lru", "opt"}, job.points,
                ablation_ab, true);
    out << "  \"curve_store\": {\n"
        << "    \"format_version\": " << CurveStore::kFormatVersion
        << ",\n"
        << "    \"job\": \"ablation_sweep\",\n"
        << "    \"disk_cold_s\": " << store_ab.disk_cold_s << ",\n"
        << "    \"disk_warm_s\": " << store_ab.disk_warm_s << ",\n"
        << "    \"warm_trace_emissions\": " << store_ab.warm_emissions
        << ",\n"
        << "    \"warm_speedup\": "
        << (store_ab.disk_warm_s > 0.0
                ? store_ab.disk_cold_s / store_ab.disk_warm_s
                : 0.0)
        << "\n"
        << "  },\n"
        << "  \"replay_store\": {\n"
        << "    \"job\": \"headroom_replay_sweep\",\n"
        << "    \"models\": [\"8way-lru\", \"8way-fifo\", "
           "\"random\"],\n"
        << "    \"points\": " << replay_job.points << ",\n"
        << "    \"disk_cold_s\": " << replay_ab.disk_cold_s << ",\n"
        << "    \"disk_warm_s\": " << replay_ab.disk_warm_s << ",\n"
        << "    \"warm_trace_emissions\": "
        << replay_ab.warm_emissions << ",\n"
        << "    \"cold_replay_stores\": "
        << replay_ab.cold_replay_stores << ",\n"
        << "    \"warm_replay_hits\": " << replay_ab.warm_replay_hits
        << ",\n"
        << "    \"warm_speedup\": "
        << (replay_ab.disk_warm_s > 0.0
                ? replay_ab.disk_cold_s / replay_ab.disk_warm_s
                : 0.0)
        << "\n"
        << "  },\n"
        << "  \"orchestrator\": {\n"
        << "    \"workers\": 2,\n"
        << "    \"grid_cells\": " << orch_cells << ",\n"
        << "    \"clean\": {\n";
    writeOrchestratorStatsJson(out, "      ", orch_clean);
    out << "    },\n"
        << "    \"injected_fault\": "
           "\"kill-after-cells=1@worker=0\",\n"
        << "    \"faulted\": {\n";
    writeOrchestratorStatsJson(out, "      ", orch_faulted);
    out << "    },\n"
        << "    \"recovery_overhead\": "
        << (orch_clean.wall_s > 0.0
                ? orch_faulted.wall_s / orch_clean.wall_s
                : 0.0)
        << "\n"
        << "  }\n"
        << "}\n";
    std::cerr << "perf: " << words << " trace words; 1-thread sweeps of "
              << job.points << " pts (direct / fast / cached, speedup):"
              << "\n  lru      " << lru_ab.direct_s << " / "
              << lru_ab.fast_cold_s << " / " << lru_ab.fast_cached_s
              << " s (" << speedup(lru_ab) << "x)"
              << "\n  8way-lru " << sa_ab.direct_s << " / "
              << sa_ab.fast_cold_s << " / " << sa_ab.fast_cached_s
              << " s (" << speedup(sa_ab) << "x)"
              << "\n  opt      " << opt_ab.direct_s << " / "
              << opt_ab.fast_cold_s << " / " << opt_ab.fast_cached_s
              << " s (" << speedup(opt_ab) << "x)"
              << "\n  ablation " << ablation_ab.direct_s << " / "
              << ablation_ab.fast_cold_s << " / "
              << ablation_ab.fast_cached_s << " s ("
              << speedup(ablation_ab) << "x)"
              << "\nanalyzer: fully-assoc " << rate(stack_s)
              << " w/s, multi-set one-pass " << rate(multi_s)
              << " w/s ("
              << (multi_s > 0.0 ? per_set_s / multi_s : 0.0)
              << "x vs per-set), streaming OPT " << rate(opt_stream_s)
              << " w/s; fully-assoc simd "
              << (fa_simd_s > 0.0 ? fa_scalar_s / fa_simd_s : 0.0)
              << "x vs scalar"
              << "\ncurve store (ablation job): disk-cold "
              << store_ab.disk_cold_s << " s, disk-warm "
              << store_ab.disk_warm_s << " s, warm emissions "
              << store_ab.warm_emissions
              << "\nreplay store (headroom job): disk-cold "
              << replay_ab.disk_cold_s << " s, disk-warm "
              << replay_ab.disk_warm_s << " s, warm emissions "
              << replay_ab.warm_emissions << ", warm replay hits "
              << replay_ab.warm_replay_hits
              << "\norchestrator (2 workers, " << orch_cells
              << " cells): clean " << orch_clean.wall_s
              << " s wall / " << orch_clean.busy_s
              << " s busy; 1 worker killed -> " << orch_faulted.wall_s
              << " s wall, " << orch_faulted.retried << " retried ("
              << (orch_clean.wall_s > 0.0
                      ? orch_faulted.wall_s / orch_clean.wall_s
                      : 0.0)
              << "x overhead)"
              << "\nreport written to " << path << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace kb;
    return bench::runBench(
        argc, argv, nullptr,
        [](bench::BenchContext &ctx) {
            // The driver refuses --perf-json with any partition flag.
            if (!ctx.options().perf_json.empty())
                return writePerfReport(ctx, ctx.options().perf_json);

            std::vector<SweepJob> jobs;
            for (const auto &name : ctx.kernels()) {
                SweepJob job;
                job.kernel = name;
                job.points = ctx.points(6);
                jobs.push_back(job);
            }

            const auto t0 = std::chrono::steady_clock::now();
            const auto results = ctx.runJobs(jobs);
            const auto t1 = std::chrono::steady_clock::now();
            const double seconds =
                std::chrono::duration<double>(t1 - t0).count();

            for (const auto &result : results) {
                const auto curve = toRatioCurve(result);
                printHeading(std::cout,
                             result.job.kernel + "  [m in " +
                                 std::to_string(result.job.m_lo) +
                                 ", " +
                                 std::to_string(result.job.m_hi) +
                                 "], n_hint = " +
                                 std::to_string(result.n_hint));
                bench::printCurveTable(std::cout, curve);
                std::cout << "\n";
            }

            std::cerr << "engine: " << results.size() << " jobs, "
                      << ctx.engine().threads() << " threads, "
                      << seconds << " s wall\n";
            return 0;
        },
        bench::BenchCaps{.kernels = true, .points = true,
                         .threads = true, .perf_json = true,
                         .shard = true});
}
