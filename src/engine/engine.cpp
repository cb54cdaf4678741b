#include "engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <map>
#include <mutex>
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

/** One schedulable unit of work: a (job, point) cell, or one consumer
 *  of a fixed-schedule job's trace (see executeConsumer). */
struct Task
{
    /// The consumers in queue order: OPT first, since its two passes
    /// are the longest chain of a job, then the others.
    enum class Kind : std::uint8_t { Opt, MultiSet, Lru, Replay, Point };

    std::size_t job = 0;
    std::size_t point = 0; ///< the cell of a Kind::Point task
    Kind kind = Kind::Point;
};

/** The fast-path consumer that fills a @p kind column of a
 *  fixed-schedule job: Replay for the models without the inclusion
 *  property, which are replayed per point. */
Task::Kind
consumerOf(MemoryModelKind kind)
{
    switch (kind) {
      case MemoryModelKind::Lru:         return Task::Kind::Lru;
      case MemoryModelKind::SetAssocLru: return Task::Kind::MultiSet;
      case MemoryModelKind::Opt:         return Task::Kind::Opt;
      case MemoryModelKind::SetAssocFifo:
      case MemoryModelKind::RandomRepl:
        break;
    }
    return Task::Kind::Replay;
}

/** True when the job's model columns come from the job-level consumer
 *  tasks instead of per-point replays: a pinned schedule AND at least
 *  one inclusion-respecting model (LRU, set-associative LRU, OPT),
 *  whose whole column falls out of one pass — and whose curve the
 *  CurveStore can serve on a repeat. A fixed-schedule job with only
 *  non-inclusion models keeps per-point tasks — they produce
 *  identical results and spread across the pool. */
bool
usesJobTrace(const SweepJob &job)
{
    if (job.schedule_m == 0 || job.force_replay)
        return false;
    for (const auto kind : job.models)
        if (consumerOf(kind) != Task::Kind::Replay)
            return true;
    return false;
}

/**
 * Emit one per-point (n, m) trace through the chunked analysis
 * pipeline: the streaming models (if any) behind one ReplaySink —
 * flushed at end of trace — plus any extra branches (OPT's next-use
 * recorder, the 8-way LRU stack analyzer). Each rendered chunk fans
 * out to every consumer before the next is rendered, so consumers run
 * cache-hot over whole chunks instead of interleaving per op through
 * a tee (see trace/pipeline.hpp).
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

/** Measure one (job, point): schedule costs plus model columns. 8-way
 *  LRU keeps the inclusion property at a fixed set count, so its
 *  column comes off a one-plane stack analyzer (2.9x faster than a
 *  SetAssocCache replay on E12's matmul cells, 4-vCPU avx2 guest);
 *  force_replay keeps that replay as its oracle. FIFO, random and
 *  fully associative LRU are replayed (an LruCache is as fast as a
 *  ReuseDistanceAnalyzer at one capacity). */
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

    // One emitTrace() pass feeds every model whose result is missing:
    // OPT's next-use recorder, 8-way LRU's stack analyzer and the
    // other models behind one streaming ReplaySink. With every result
    // cached the trace is not emitted at all.
    std::vector<std::unique_ptr<LocalMemory>> streaming;
    std::vector<LocalMemory *> streaming_ptrs;
    std::optional<OptNextUseRecorder> opt_recorder;
    std::optional<MultiSetReuseAnalyzer> set_assoc;
    if (!all_cached) {
        for (std::size_t i = 0; i < job.models.size(); ++i) {
            if (cached[i])
                continue;
            if (job.models[i] == MemoryModelKind::Opt) {
                opt_recorder.emplace();
                continue;
            }
            if (job.models[i] == MemoryModelKind::SetAssocLru &&
                !job.force_replay) {
                set_assoc.emplace(
                    std::vector<std::uint64_t>{setAssocSets(m)},
                    kSetAssocWays);
                continue;
            }
            streaming.push_back(makeMemoryModel(job.models[i], m));
            streaming_ptrs.push_back(streaming.back().get());
        }
        std::vector<TraceSink *> branches;
        if (opt_recorder)
            branches.push_back(&*opt_recorder);
        if (set_assoc)
            branches.push_back(&*set_assoc);
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
        } else if (job.models[i] == MemoryModelKind::SetAssocLru &&
                   set_assoc) {
            io = set_assoc->waysCurve(0).ioWords(kSetAssocWays);
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
 * The stack-distance fast path, one consumer of a fixed-schedule job
 * per task (see engine.hpp for what each consumer computes). The task
 * looks its curves up in the CurveStore and, only when one is
 * missing, emits the job's trace into its own analyzer (emitting is
 * over an order of magnitude cheaper than analyzing, so consumers
 * re-emit instead of sharing one stream), stores what it computed and
 * writes its columns of every owned row. The OPT curve covers the
 * FULL grid: the walk costs the same, and every shard then stores the
 * identical entry. Each column is a pure function of its own
 * emission, and each task writes only its own columns of rows run()
 * sized beforehand, so results do not depend on which worker runs
 * which consumer, or when; a consumer whose curves are all cached
 * emits nothing.
 */
void
executeConsumer(PreparedJob &pj, Task::Kind consumer)
{
    const Kernel &kernel = *pj.kernel;
    const SweepJob &job = pj.result.job;
    KB_ASSERT(usesJobTrace(job));
    const std::uint64_t n_trace =
        kernel.regimeProblemSize(pj.result.n_hint, job.schedule_m);
    const TraceKey trace_key{job.kernel, n_trace, job.schedule_m};
    auto &store = CurveStore::instance();
    bool emitted = false;
    const auto emit = [&](TraceSink &sink) {
        emitted = true;
        g_emissions.fetch_add(1, std::memory_order_relaxed);
        kernel.emitTrace(n_trace, job.schedule_m, sink);
    };
    // Writes io(p, i) into every owned row's columns this consumer
    // serves.
    const auto fill = [&](const auto &io) {
        for (std::size_t p = 0; p < pj.grid.size(); ++p) {
            if (!pj.owned[p])
                continue;
            for (std::size_t i = 0; i < job.models.size(); ++i)
                if (consumerOf(job.models[i]) == consumer)
                    pj.result.points[p].model_io[i] = io(p, i);
        }
    };

    switch (consumer) {
      case Task::Kind::Opt: {
        auto curve = store.findOpt(trace_key, pj.grid);
        if (!curve) {
            OptNextUseRecorder recorder;
            emit(recorder);
            curve = std::make_shared<const OptCurve>(
                recorder.finish(emit, pj.grid));
            store.storeOpt(trace_key, curve);
        }
        fill([&](std::size_t p, std::size_t) {
            return curve->ioWords(pj.grid[p]);
        });
        break;
      }
      case Task::Kind::MultiSet: {
        // One ways-curve per distinct set count among the owned
        // points (a geometric grid rarely repeats a set count, but
        // dense grids do).
        std::map<std::uint64_t, std::shared_ptr<const MissCurve>> curves;
        for (std::size_t p = 0; p < pj.grid.size(); ++p)
            if (pj.owned[p])
                curves.emplace(setAssocSets(pj.grid[p]), nullptr);
        std::vector<std::uint64_t> missing;
        for (auto &[sets, curve] : curves) {
            curve = store.findSetAssoc(trace_key, sets, kSetAssocWays);
            if (!curve)
                missing.push_back(sets);
        }
        if (!missing.empty()) {
            MultiSetReuseAnalyzer analyzer(missing, kSetAssocWays);
            emit(analyzer);
            for (std::size_t k = 0; k < analyzer.planeCount(); ++k) {
                auto curve = std::make_shared<const MissCurve>(
                    analyzer.waysCurve(k));
                store.storeSetAssoc(trace_key, analyzer.setsAt(k),
                                    kSetAssocWays, curve);
                curves[analyzer.setsAt(k)] = std::move(curve);
            }
        }
        fill([&](std::size_t p, std::size_t) {
            return curves[setAssocSets(pj.grid[p])]->ioWords(
                kSetAssocWays);
        });
        break;
      }
      case Task::Kind::Lru: {
        auto curve = store.findLru(trace_key);
        if (!curve) {
            ReuseDistanceAnalyzer analyzer;
            emit(analyzer);
            curve = std::make_shared<const MissCurve>(analyzer.missCurve());
            store.storeLru(trace_key, curve);
        }
        fill([&](std::size_t p, std::size_t) {
            return curve->ioWords(pj.grid[p]);
        });
        break;
      }
      case Task::Kind::Replay: {
        // Cached results go straight into their rows; the rest get a
        // live model, in (point-major, model-minor) order.
        std::vector<std::pair<std::size_t, std::size_t>> missing;
        std::vector<std::unique_ptr<LocalMemory>> models;
        std::vector<LocalMemory *> model_ptrs;
        fill([&](std::size_t p, std::size_t i) -> std::uint64_t {
            const auto kind = job.models[i];
            if (const auto io = store.findReplayIo(
                    trace_key, replayModelKey(kind), pj.grid[p]))
                return *io;
            missing.emplace_back(p, i);
            models.push_back(makeMemoryModel(kind, pj.grid[p]));
            model_ptrs.push_back(models.back().get());
            return 0;
        });
        if (missing.empty())
            break;
        ReplaySink sink(std::move(model_ptrs));
        emit(sink);
        sink.flush();
        // Fresh results are batched per model column (points ascend,
        // so the capacity lists come out sorted) and stored once per
        // column: one disk round-trip per entry instead of one
        // rewrite of the growing entry file per point.
        std::vector<std::vector<std::uint64_t>> fresh_caps(
            job.models.size()),
            fresh_io(job.models.size());
        for (std::size_t k = 0; k < missing.size(); ++k) {
            const auto [p, i] = missing[k];
            const std::uint64_t io = models[k]->stats().ioWords();
            pj.result.points[p].model_io[i] = io;
            fresh_caps[i].push_back(pj.grid[p]);
            fresh_io[i].push_back(io);
        }
        for (std::size_t i = 0; i < job.models.size(); ++i)
            if (!fresh_caps[i].empty())
                store.storeReplayPoints(trace_key,
                                        replayModelKey(job.models[i]),
                                        std::move(fresh_caps[i]),
                                        std::move(fresh_io[i]));
        break;
      }
      case Task::Kind::Point:
        KB_ASSERT(false);
    }
#ifdef __GLIBC__
    // Hand the analyzer's freed pages back to the OS: each worker
    // allocates from its own malloc arena, which would otherwise keep
    // them resident while another worker's consumer reaches its peak
    // (perfbench cold_ablation on 4 vCPUs, median peak RSS: 298 MB
    // without this, 263 MB with it, 280 MB when one task ran every
    // consumer).
    if (emitted)
        malloc_trim(0);
#endif
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
                      const PointFilter &owns, const JobDone &done) const
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
        // A fixed-schedule job's consumer tasks go first, OPT ahead:
        // they are the heaviest units, so an early start keeps the
        // pool balanced. Each writes its own columns of the owned
        // rows, which are sized here, before any task runs. A job none
        // of whose points are owned does no work at all in this shard.
        if (any_owned && usesJobTrace(pj.result.job)) {
            const auto &models = pj.result.job.models;
            for (const auto consumer :
                 {Task::Kind::Opt, Task::Kind::MultiSet, Task::Kind::Lru,
                  Task::Kind::Replay})
                if (std::any_of(models.begin(), models.end(),
                                [&](MemoryModelKind kind) {
                                    return consumerOf(kind) == consumer;
                                }))
                    tasks.push_back(Task{j, 0, consumer});
            for (std::size_t p = 0; p < pj.grid.size(); ++p)
                if (pj.owned[p])
                    pj.result.points[p].model_io.assign(models.size(), 0);
        }
        for (std::size_t p = 0; p < pj.grid.size(); ++p)
            if (pj.owned[p])
                tasks.push_back(Task{j, p, Task::Kind::Point});
        prepared.push_back(std::move(pj));
    }

    // Phase 2: run every task on the pool. A point task writes only
    // its own pre-allocated slot, a consumer task only its own
    // columns of the pre-sized rows, so no locking and no
    // scheduling-dependent state: results are identical for any
    // worker count. With a JobDone hook, the last task of a job —
    // consumer or point — releases it, and finished jobs go to the
    // hook in job order.
    enum : char { kNoCells, kRunning, kMeasured };
    std::vector<char> state(prepared.size(), kNoCells);
    std::vector<std::atomic<std::size_t>> pending(prepared.size());
    for (const Task &t : tasks) {
        state[t.job] = kRunning;
        pending[t.job].fetch_add(1, std::memory_order_relaxed);
    }
    std::mutex done_mu;
    std::size_t next_done = 0;
    const auto release = [&](std::size_t job) {
        const std::lock_guard<std::mutex> lock(done_mu);
        state[job] = kMeasured;
        for (; next_done < prepared.size(); ++next_done) {
            if (state[next_done] == kRunning)
                return;
            if (state[next_done] == kMeasured)
                done(prepared[next_done].result);
        }
    };
    parallelFor(tasks.size(), [&](std::size_t i) {
        const Task &t = tasks[i];
        if (t.kind == Task::Kind::Point)
            executeTask(prepared[t.job], t.point);
        else
            executeConsumer(prepared[t.job], t.kind);
        if (done &&
            pending[t.job].fetch_sub(1, std::memory_order_acq_rel) == 1)
            release(t.job);
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
