#include "engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <optional>
#include <thread>

#include "engine/curve_store.hpp"
#include "kernels/registry.hpp"
#include "mem/lru_cache.hpp"
#include "mem/opt_cache.hpp"
#include "mem/random_cache.hpp"
#include "mem/set_assoc.hpp"
#include "trace/pipeline.hpp"
#include "trace/replay.hpp"
#include "trace/reuse.hpp"
#include "trace/sink.hpp"
#include "util/logging.hpp"

namespace kb {

namespace {

std::atomic<std::uint64_t> g_emissions{0};

/** Set count of the engine's 8-way models at capacity @p m (rounded
 *  up so the model never holds fewer than m words). */
std::uint64_t
setAssocSets(std::uint64_t m)
{
    return std::max<std::uint64_t>((m + 7) / 8, 1);
}

constexpr std::uint64_t kSetAssocWays = 8;

/// Seed of the random-replacement model (part of its replay identity:
/// the store keys replayed results by model config, so the seed must
/// be stable and named).
constexpr std::uint64_t kRandomSeed = 7;

/** Capacity-independent store identity of a replayed model. */
ReplayModelKey
replayModelKey(MemoryModelKind kind)
{
    ReplayModelKey key;
    key.family = static_cast<std::uint8_t>(kind);
    switch (kind) {
      case MemoryModelKind::SetAssocLru:
      case MemoryModelKind::SetAssocFifo:
        key.param = kSetAssocWays;
        break;
      case MemoryModelKind::RandomRepl:
        key.param = kRandomSeed;
        break;
      case MemoryModelKind::Lru:
      case MemoryModelKind::Opt:
        break;
    }
    return key;
}

} // namespace

std::uint64_t
engineEmissionCount()
{
    return g_emissions.load(std::memory_order_relaxed);
}

const char *
memoryModelName(MemoryModelKind kind)
{
    switch (kind) {
      case MemoryModelKind::Lru:          return "lru";
      case MemoryModelKind::SetAssocLru:  return "8way-lru";
      case MemoryModelKind::SetAssocFifo: return "8way-fifo";
      case MemoryModelKind::RandomRepl:   return "random";
      case MemoryModelKind::Opt:          return "opt";
    }
    return "?";
}

std::unique_ptr<LocalMemory>
makeMemoryModel(MemoryModelKind kind, std::uint64_t m)
{
    // 8-way models need sets * 8 words; round m *up* to the next
    // multiple of the associativity so every model at a grid point
    // has at least m words (exact for multiples of 8, else +<8 —
    // never a silently smaller cache than the LRU column). The
    // set-associative fast path mirrors this via setAssocSets().
    const std::uint64_t sets = setAssocSets(m);
    switch (kind) {
      case MemoryModelKind::Lru:
        return std::make_unique<LruCache>(m);
      case MemoryModelKind::SetAssocLru:
        return std::make_unique<SetAssocCache>(sets, 8,
                                               ReplacementPolicy::LRU);
      case MemoryModelKind::SetAssocFifo:
        return std::make_unique<SetAssocCache>(sets, 8,
                                               ReplacementPolicy::FIFO);
      case MemoryModelKind::RandomRepl:
        return std::make_unique<RandomCache>(m, kRandomSeed);
      case MemoryModelKind::Opt:
        break;
    }
    fatal("OPT has no streaming model; the engine runs it through "
          "OptNextUseRecorder");
}

std::vector<double>
SweepResult::memories() const
{
    std::vector<double> out;
    out.reserve(points.size());
    for (const auto &p : points)
        out.push_back(static_cast<double>(p.sample.m));
    return out;
}

std::vector<double>
SweepResult::ratios() const
{
    std::vector<double> out;
    out.reserve(points.size());
    for (const auto &p : points)
        out.push_back(p.sample.ratio);
    return out;
}

namespace {

/**
 * The geometric memory grid of a job: points spaced by a constant
 * factor in [m_lo, m_hi], clamped to the kernel's minimum and
 * deduplicated after rounding. Matches the seed's sweep loop so
 * engine curves are bit-identical to the old serial ones.
 */
std::vector<std::uint64_t>
memoryGrid(const Kernel &kernel, std::uint64_t n_hint,
           std::uint64_t m_lo, std::uint64_t m_hi, unsigned points)
{
    // Name the offending job in the failure: a batch submits many
    // jobs and "bad sweep range" alone does not say whose.
    KB_REQUIRE(points >= 3, "sweep job '", kernel.name(),
               "' needs at least three points (got ", points, ")");
    KB_REQUIRE(m_lo >= 2 && m_lo < m_hi, "sweep job '", kernel.name(),
               "' has a bad memory range [", m_lo, ", ", m_hi, "]");

    const double step = std::pow(static_cast<double>(m_hi) /
                                     static_cast<double>(m_lo),
                                 1.0 / (points - 1));
    std::vector<std::uint64_t> grid;
    std::uint64_t prev_m = 0;
    for (unsigned i = 0; i < points; ++i) {
        std::uint64_t m = static_cast<std::uint64_t>(
            std::llround(static_cast<double>(m_lo) * std::pow(step, i)));
        m = std::max(m, kernel.minMemory(n_hint));
        // Rounding (or the minMemory clamp) can collapse adjacent
        // points of a narrow range onto one capacity; keep each
        // capacity once so downstream consumers see a strictly
        // increasing grid. The geometric sequence is monotone, so
        // comparing against the previous point suffices.
        if (m == prev_m)
            continue;
        KB_ASSERT(m > prev_m);
        prev_m = m;
        grid.push_back(m);
    }
    return grid;
}

/** A prepared job: resolved kernel, range, grid and result slots. */
struct PreparedJob
{
    std::shared_ptr<const Kernel> kernel;
    std::vector<std::uint64_t> grid;
    /// Sharding mask, parallel to grid: owned[p] != 0 iff this
    /// process measures point p (all-ones without a PointFilter).
    std::vector<char> owned;
    SweepResult result;
};

/** One schedulable unit of work. */
struct Task
{
    /// point == kJobTrace is the job-level single-pass trace task of
    /// the stack-distance fast path; other values are point indices.
    static constexpr std::size_t kJobTrace =
        static_cast<std::size_t>(-1);

    std::size_t job = 0;
    std::size_t point = 0;
};

/** True when the job's model columns come from the single-pass
 *  job-level trace task instead of per-point replays: a pinned
 *  schedule AND at least one inclusion-respecting model (LRU,
 *  set-associative LRU, OPT), whose whole column falls out of one
 *  pass — and whose curve the CurveStore can serve on a repeat. A
 *  fixed-schedule job with only non-inclusion models keeps per-point
 *  tasks — they produce identical results and spread across the
 *  pool. */
bool
usesJobTrace(const SweepJob &job)
{
    if (job.schedule_m == 0 || job.force_replay)
        return false;
    for (const auto kind : job.models) {
        if (kind == MemoryModelKind::Lru ||
            kind == MemoryModelKind::SetAssocLru ||
            kind == MemoryModelKind::Opt)
            return true;
    }
    return false;
}

/**
 * Emit one (n, m) trace through the chunked analysis pipeline shared
 * by both replay paths: the streaming models (if any) behind one
 * ReplaySink — flushed at end of trace — plus any extra branches (the
 * stack-distance analyzers, OPT's next-use recorder). Each rendered
 * chunk fans out to every consumer before the next is rendered, so
 * consumers run cache-hot over whole chunks instead of interleaving
 * per op through a tee (see trace/pipeline.hpp).
 */
void
emitThroughBranches(const Kernel &kernel, std::uint64_t n,
                    std::uint64_t m,
                    const std::vector<LocalMemory *> &streaming,
                    std::vector<TraceSink *> branches)
{
    std::optional<ReplaySink> replay;
    if (!streaming.empty()) {
        replay.emplace(streaming);
        branches.push_back(&*replay);
    }
    KB_ASSERT(!branches.empty());
    g_emissions.fetch_add(1, std::memory_order_relaxed);
    if (branches.size() == 1) {
        // One consumer gets the stream directly: chunking buys
        // nothing without a fan-out to amortize it over.
        kernel.emitTrace(n, m, *branches.front());
    } else {
        AnalysisPipeline pipeline;
        for (TraceSink *branch : branches)
            pipeline.attach(*branch);
        kernel.emitTrace(n, m, pipeline);
        pipeline.flush();
    }
    if (replay)
        replay->flush();
}

/** Measure one (job, point): schedule costs plus model replays. */
void
executeTask(PreparedJob &pj, std::size_t point_idx)
{
    const Kernel &kernel = *pj.kernel;
    const SweepJob &job = pj.result.job;
    const std::uint64_t m = pj.grid[point_idx];
    auto &slot = pj.result.points[point_idx];

    if (job.models_only) {
        slot.sample.m = m; // keep the grid visible in the samples
    } else {
        slot.sample = kernel.measureRatioPoint(pj.result.n_hint, m);
    }

    if (job.models.empty() || usesJobTrace(job))
        return;

    // Replay the regime's own problem size so the model columns and
    // the schedule sample describe the same computation. (Grids are
    // the one family whose sample is not a single measure() — their
    // replay is the plain time-tiled schedule at n_hint.) A fixed
    // schedule_m pins both the tiling and the regime size, so every
    // point replays the identical trace at its own capacity; a
    // schedule_headroom job re-tiles per point for a fixed fraction
    // of its capacity (tile-headroom studies, E12's M/2 rows).
    std::uint64_t trace_m = job.schedule_m ? job.schedule_m : m;
    if (job.schedule_headroom > 0)
        trace_m = std::max(trace_m * job.schedule_headroom_num /
                               job.schedule_headroom,
                           kernel.minMemory(pj.result.n_hint));
    const std::uint64_t n_trace =
        kernel.regimeProblemSize(pj.result.n_hint, trace_m);

    // Every replayed result is a pure function of (trace identity,
    // model family, config, capacity), so the CurveStore keys it like
    // a single-pass curve: a repeated replay job — even in a fresh
    // process against a warm disk tier — adds zero trace emissions.
    // force_replay bypasses the store both ways: it exists so the
    // equivalence tests and the A/B bench measure the *real* replay.
    const TraceKey trace_key{job.kernel, n_trace, trace_m};
    auto &store = CurveStore::instance();
    const bool use_store = !job.force_replay;

    std::vector<std::optional<std::uint64_t>> cached(job.models.size());
    bool all_cached = use_store;
    if (use_store) {
        for (std::size_t i = 0; i < job.models.size(); ++i) {
            cached[i] = store.findReplayIo(
                trace_key, replayModelKey(job.models[i]), m);
            all_cached = all_cached && cached[i].has_value();
        }
    }

    // One emitTrace() pass feeds every model whose result is missing
    // through a streaming ReplaySink, and an uncached OPT column's
    // next-use recorder rides the same emission. With every result
    // cached the trace is not emitted at all.
    std::vector<std::unique_ptr<LocalMemory>> streaming;
    std::vector<LocalMemory *> streaming_ptrs;
    std::optional<OptNextUseRecorder> opt_recorder;
    if (!all_cached) {
        for (std::size_t i = 0; i < job.models.size(); ++i) {
            if (cached[i])
                continue;
            if (job.models[i] == MemoryModelKind::Opt) {
                opt_recorder.emplace();
                continue;
            }
            streaming.push_back(makeMemoryModel(job.models[i], m));
            streaming_ptrs.push_back(streaming.back().get());
        }
        std::vector<TraceSink *> branches;
        if (opt_recorder)
            branches.push_back(&*opt_recorder);
        emitThroughBranches(kernel, n_trace, trace_m, streaming_ptrs,
                            std::move(branches));
    }

    // OPT pass 2 over a one-capacity grid: a second emission (counted,
    // like the fast path's) feeds the Belady walk, so no trace buffer
    // exists.
    std::optional<OptCurve> opt_curve;
    if (opt_recorder)
        opt_curve = opt_recorder->finish(
            [&](TraceSink &sink) {
                g_emissions.fetch_add(1, std::memory_order_relaxed);
                kernel.emitTrace(n_trace, trace_m, sink);
            },
            {m});

    slot.model_io.reserve(job.models.size());
    std::size_t next_streaming = 0;
    for (std::size_t i = 0; i < job.models.size(); ++i) {
        std::uint64_t io = 0;
        if (cached[i]) {
            io = *cached[i];
        } else if (job.models[i] == MemoryModelKind::Opt) {
            io = opt_curve->ioWords(m);
        } else {
            io = streaming[next_streaming++]->stats().ioWords();
        }
        slot.model_io.push_back(io);
        if (use_store && !cached[i])
            store.storeReplayIo(trace_key,
                                replayModelKey(job.models[i]), m, io);
    }
}

/**
 * The stack-distance fast path: emit the job's fixed-schedule trace
 * through the analysis pipeline at most ONCE and fill the model
 * columns of every point from single-pass curves. LRU columns come
 * off the one-pass MissCurve; set-associative LRU columns off ONE
 * multi-plane Mattson pass serving every distinct set count on the
 * grid simultaneously (inclusion holds per set); OPT columns off the
 * streaming two-pass walk — the next-use recorder rides the shared
 * emission and a second emission (kernels are deterministic; emitting
 * is ~50x cheaper than analyzing) feeds the segmented Belady stack,
 * so no O(trace) buffer ever exists. Models without the inclusion
 * property (set-associative FIFO, random) are replayed from the same
 * emission — one live instance per (point, model) whose result the
 * store does not already have.
 *
 * Every curve AND every replayed point result is looked up in the
 * process-wide CurveStore first and stored after computing; when
 * everything requested is already cached, the trace is not emitted
 * at all — warm repeats of any fixed-schedule job, mixed models
 * included, add zero emissions.
 */
void
executeJobTrace(PreparedJob &pj)
{
    const Kernel &kernel = *pj.kernel;
    const SweepJob &job = pj.result.job;
    KB_ASSERT(usesJobTrace(job));
    const std::uint64_t n_trace =
        kernel.regimeProblemSize(pj.result.n_hint, job.schedule_m);
    const TraceKey trace_key{job.kernel, n_trace, job.schedule_m};
    auto &store = CurveStore::instance();

    bool wants_lru = false, wants_sa = false, wants_opt = false;
    for (const auto kind : job.models) {
        wants_lru |= kind == MemoryModelKind::Lru;
        wants_sa |= kind == MemoryModelKind::SetAssocLru;
        wants_opt |= kind == MemoryModelKind::Opt;
    }

    // --- consult the store before committing to any trace work ---
    std::shared_ptr<const MissCurve> lru_curve;
    if (wants_lru)
        lru_curve = store.findLru(trace_key);
    // One ways-curve per distinct set count among the OWNED grid
    // points (a geometric grid rarely repeats a set count, but dense
    // grids do). Unowned points belong to another shard.
    std::map<std::uint64_t, std::shared_ptr<const MissCurve>> sa_curves;
    if (wants_sa) {
        for (std::size_t p = 0; p < pj.grid.size(); ++p)
            if (pj.owned[p])
                sa_curves.emplace(setAssocSets(pj.grid[p]), nullptr);
        for (auto &[sets, curve] : sa_curves)
            curve = store.findSetAssoc(trace_key, sets, kSetAssocWays);
    }
    // The OPT curve is always built for the FULL grid (not just the
    // owned capacities): the one-pass walk costs the same either way
    // and every shard then stores the identical disk entry instead of
    // per-shard partial curves.
    std::shared_ptr<const OptCurve> opt_curve;
    if (wants_opt)
        opt_curve = store.findOpt(trace_key, pj.grid);

    // Per-(point, model) results for the non-inclusion disciplines,
    // owned points only. Each is consulted in the store first (their
    // replayed results are keyed like curves, see executeTask); a
    // live model instance exists only for results the store does not
    // have, in (point-major, model-minor) order for the readback
    // below. When everything — curves and replay results — is
    // cached, the trace is not emitted at all.
    std::vector<std::vector<std::optional<std::uint64_t>>>
        replay_cached(pj.grid.size());
    std::vector<std::unique_ptr<LocalMemory>> streaming;
    std::vector<LocalMemory *> streaming_ptrs;
    for (std::size_t p = 0; p < pj.grid.size(); ++p) {
        if (!pj.owned[p])
            continue;
        replay_cached[p].resize(job.models.size());
        for (std::size_t i = 0; i < job.models.size(); ++i) {
            const auto kind = job.models[i];
            if (kind == MemoryModelKind::Lru ||
                kind == MemoryModelKind::SetAssocLru ||
                kind == MemoryModelKind::Opt)
                continue;
            replay_cached[p][i] = store.findReplayIo(
                trace_key, replayModelKey(kind), pj.grid[p]);
            if (replay_cached[p][i])
                continue;
            streaming.push_back(makeMemoryModel(kind, pj.grid[p]));
            streaming_ptrs.push_back(streaming.back().get());
        }
    }

    // --- one emission feeds every analyzer whose curve is missing ---
    // All missing set-assoc curves come from ONE multi-plane analyzer
    // (one sink dispatch per access instead of one per set count),
    // and a missing OPT curve attaches the streaming recorder's pass
    // 1 instead of an O(trace) buffer.
    ReuseDistanceAnalyzer lru_analyzer;
    std::optional<MultiSetReuseAnalyzer> sa_analyzer;
    std::optional<OptNextUseRecorder> opt_recorder;
    std::vector<TraceSink *> branches;
    std::vector<std::uint64_t> missing_sets;
    for (auto &[sets, curve] : sa_curves)
        if (!curve)
            missing_sets.push_back(sets);
    const bool need_lru = wants_lru && !lru_curve;
    if (!missing_sets.empty()) {
        sa_analyzer.emplace(missing_sets, kSetAssocWays);
        branches.push_back(&*sa_analyzer);
    }
    if (need_lru)
        branches.push_back(&lru_analyzer);
    if (wants_opt && !opt_curve) {
        opt_recorder.emplace();
        branches.push_back(&*opt_recorder);
    }

    if (!branches.empty() || !streaming_ptrs.empty())
        emitThroughBranches(kernel, n_trace, job.schedule_m,
                            streaming_ptrs, std::move(branches));

    if (need_lru) {
        lru_curve = std::make_shared<const MissCurve>(
            lru_analyzer.missCurve());
        store.storeLru(trace_key, lru_curve);
    }
    if (sa_analyzer) {
        for (std::size_t p = 0; p < sa_analyzer->planeCount(); ++p) {
            auto curve = std::make_shared<const MissCurve>(
                sa_analyzer->waysCurve(p));
            store.storeSetAssoc(trace_key, sa_analyzer->setsAt(p),
                                kSetAssocWays, curve);
            sa_curves[sa_analyzer->setsAt(p)] = std::move(curve);
        }
    }
    if (wants_opt && !opt_curve) {
        // Streaming pass 2: re-emit the deterministic trace (counted
        // as an emission — it is one) instead of replaying a buffer.
        opt_curve = std::make_shared<const OptCurve>(
            opt_recorder->finish(
                [&](TraceSink &sink) {
                    g_emissions.fetch_add(1, std::memory_order_relaxed);
                    kernel.emitTrace(n_trace, job.schedule_m, sink);
                },
                pj.grid));
        store.storeOpt(trace_key, opt_curve);
    }

    // --- read every owned point's model row off the curves ---
    // Freshly replayed results are batched per model column (points
    // ascend with p, so the capacity lists come out sorted) and
    // stored once per column below: one disk round-trip per entry
    // instead of one rewrite of the growing entry file per point.
    std::vector<std::vector<std::uint64_t>> fresh_caps(
        job.models.size()),
        fresh_io(job.models.size());
    std::size_t next_streaming = 0;
    for (std::size_t p = 0; p < pj.grid.size(); ++p) {
        if (!pj.owned[p])
            continue;
        const std::uint64_t m = pj.grid[p];
        auto &slot = pj.result.points[p];
        slot.model_io.reserve(job.models.size());
        for (std::size_t i = 0; i < job.models.size(); ++i) {
            const auto kind = job.models[i];
            if (kind == MemoryModelKind::Lru) {
                slot.model_io.push_back(lru_curve->ioWords(m));
            } else if (kind == MemoryModelKind::SetAssocLru) {
                slot.model_io.push_back(
                    sa_curves[setAssocSets(m)]->ioWords(kSetAssocWays));
            } else if (kind == MemoryModelKind::Opt) {
                slot.model_io.push_back(opt_curve->ioWords(m));
            } else if (replay_cached[p][i]) {
                slot.model_io.push_back(*replay_cached[p][i]);
            } else {
                const std::uint64_t io =
                    streaming[next_streaming++]->stats().ioWords();
                slot.model_io.push_back(io);
                fresh_caps[i].push_back(m);
                fresh_io[i].push_back(io);
            }
        }
    }
    for (std::size_t i = 0; i < job.models.size(); ++i)
        if (!fresh_caps[i].empty())
            store.storeReplayPoints(trace_key,
                                    replayModelKey(job.models[i]),
                                    std::move(fresh_caps[i]),
                                    std::move(fresh_io[i]));
}

} // namespace

ExperimentEngine::ExperimentEngine(unsigned threads)
    : threads_(threads == 0 ? hardwareThreads() : threads)
{
}

unsigned
ExperimentEngine::hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

std::vector<SweepResult>
ExperimentEngine::run(const std::vector<SweepJob> &jobs) const
{
    return run(jobs, nullptr);
}

std::vector<SweepResult>
ExperimentEngine::run(const std::vector<SweepJob> &jobs,
                      const PointFilter &owns) const
{
    auto &registry = KernelRegistry::instance();

    // Phase 1: resolve jobs serially (cheap, deterministic). This
    // phase is identical for every PointFilter, so shards agree on
    // grids and result shapes by construction.
    std::vector<PreparedJob> prepared;
    prepared.reserve(jobs.size());
    std::vector<Task> tasks;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        PreparedJob pj;
        pj.kernel = registry.shared(jobs[j].kernel);
        pj.result.job_index = j;
        pj.result.job = jobs[j];
        // Resolve defaults per field: a job may pin one bound and
        // default the other.
        std::uint64_t def_lo = 0, def_hi = 0;
        pj.kernel->defaultSweepRange(def_lo, def_hi);
        if (pj.result.job.m_lo == 0)
            pj.result.job.m_lo = def_lo;
        if (pj.result.job.m_hi == 0)
            pj.result.job.m_hi = def_hi;
        KB_REQUIRE(pj.result.job.schedule_m == 0 ||
                       pj.result.job.schedule_headroom == 0,
                   "sweep job '", pj.result.job.kernel,
                   "' sets both schedule_m and schedule_headroom; a "
                   "schedule is either fixed or a per-point fraction, "
                   "not both");
        KB_REQUIRE(pj.result.job.schedule_headroom_num >= 1 &&
                       (pj.result.job.schedule_headroom == 0 ||
                        pj.result.job.schedule_headroom_num <=
                            pj.result.job.schedule_headroom),
                   "sweep job '", pj.result.job.kernel,
                   "' has a bad tile fraction ",
                   pj.result.job.schedule_headroom_num, "/",
                   pj.result.job.schedule_headroom,
                   " (need 1 <= num <= headroom)");
        KB_REQUIRE(pj.result.job.schedule_headroom != 0 ||
                       pj.result.job.schedule_headroom_num == 1,
                   "sweep job '", pj.result.job.kernel,
                   "' sets schedule_headroom_num without "
                   "schedule_headroom");
        pj.result.n_hint =
            pj.result.job.n_hint != 0
                ? pj.result.job.n_hint
                : pj.kernel->suggestProblemSize(pj.result.job.m_hi);
        pj.grid = memoryGrid(*pj.kernel, pj.result.n_hint,
                             pj.result.job.m_lo, pj.result.job.m_hi,
                             pj.result.job.points);
        pj.result.points.resize(pj.grid.size());
        // Stamp the resolved grid into every slot up front (owned
        // slots overwrite it with their full sample). Unowned slots
        // of a sharded run then still carry their capacity, and the
        // shard signature can cover the resolved grid itself.
        for (std::size_t p = 0; p < pj.grid.size(); ++p)
            pj.result.points[p].sample.m = pj.grid[p];
        pj.owned.assign(pj.grid.size(), 1);
        if (owns)
            for (std::size_t p = 0; p < pj.grid.size(); ++p)
                pj.owned[p] = owns(j, p) ? 1 : 0;
        const bool any_owned =
            std::find(pj.owned.begin(), pj.owned.end(), char{1}) !=
            pj.owned.end();
        // The single-pass trace task (when the job has one) goes
        // first: it is the heaviest unit, so an early start keeps the
        // pool balanced. A job none of whose points are owned does no
        // work at all in this shard.
        if (any_owned && usesJobTrace(pj.result.job))
            tasks.push_back(Task{j, Task::kJobTrace});
        for (std::size_t p = 0; p < pj.grid.size(); ++p)
            if (pj.owned[p])
                tasks.push_back(Task{j, p});
        prepared.push_back(std::move(pj));
    }

    // Phase 2: measure every (job, point) on the pool. Each task
    // writes only its own pre-allocated slot, so no locking and no
    // scheduling-dependent state: results are identical for any
    // worker count.
    parallelFor(tasks.size(), [&prepared, &tasks](std::size_t i) {
        const Task &t = tasks[i];
        if (t.point == Task::kJobTrace)
            executeJobTrace(prepared[t.job]);
        else
            executeTask(prepared[t.job], t.point);
    });

    std::vector<SweepResult> results;
    results.reserve(prepared.size());
    for (auto &pj : prepared)
        results.push_back(std::move(pj.result));
    return results;
}

void
ExperimentEngine::parallelFor(
    std::size_t count,
    const std::function<void(std::size_t)> &body) const
{
    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(threads_,
                              std::max<std::size_t>(count, 1)));
    if (workers <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            body(i);
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
}

SweepResult
ExperimentEngine::runOne(const SweepJob &job) const
{
    auto results = run({job});
    KB_ASSERT(results.size() == 1);
    return std::move(results.front());
}

} // namespace kb
