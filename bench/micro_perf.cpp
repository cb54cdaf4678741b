/**
 * @file
 * Library micro-benchmarks (google-benchmark): throughput of the
 * simulation substrates. These are performance canaries for the
 * infrastructure, not paper results.
 */

#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "engine/curve_store.hpp"
#include "engine/engine.hpp"
#include "kernels/fft.hpp"
#include "kernels/matmul.hpp"
#include "mem/lru_cache.hpp"
#include "mem/opt_cache.hpp"
#include "mem/random_cache.hpp"
#include "mem/set_assoc.hpp"
#include "kernels/registry.hpp"
#include "pebble/builders.hpp"
#include "pebble/heuristic.hpp"
#include "trace/replay.hpp"
#include "trace/reuse.hpp"
#include "trace/sink.hpp"
#include "util/rng.hpp"

namespace {

using namespace kb;

void
BM_LruAccess(benchmark::State &state)
{
    const std::uint64_t capacity =
        static_cast<std::uint64_t>(state.range(0));
    LruCache cache(capacity);
    Xoshiro256 rng(1);
    std::vector<std::uint64_t> addrs(1 << 14);
    for (auto &a : addrs)
        a = rng.below(4 * capacity);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(addrs[i++ & (addrs.size() - 1)], false));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruAccess)->Arg(256)->Arg(4096);

void
BM_ReuseDistance(benchmark::State &state)
{
    Xoshiro256 rng(2);
    std::vector<std::uint64_t> addrs(1 << 14);
    for (auto &a : addrs)
        a = rng.below(1 << 12);
    for (auto _ : state) {
        ReuseDistanceAnalyzer rd;
        for (const auto a : addrs)
            rd.onAccess(readOf(a));
        benchmark::DoNotOptimize(rd.coldMisses());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(addrs.size()));
}
BENCHMARK(BM_ReuseDistance);

void
BM_ReuseDistanceColdRuns(benchmark::State &state)
{
    // First-touch runs take the bulk path: no distance queries, the
    // rank bitmap marked in whole words by setRun().
    const std::uint64_t words =
        static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        ReuseDistanceAnalyzer rd;
        rd.onRun(0, words, AccessType::Read);
        rd.onRun(words, words, AccessType::Write);
        benchmark::DoNotOptimize(rd.coldMisses());
    }
    state.SetItemsProcessed(state.iterations() * 2 * state.range(0));
}
BENCHMARK(BM_ReuseDistanceColdRuns)->Arg(1 << 12)->Arg(1 << 18);

void
BM_StackDistanceCurveMatmul(benchmark::State &state)
{
    // The fast-path unit: one emitTrace pass through the analyzer
    // yields Cio(M) for EVERY capacity (compare BM_SweepDirect /
    // BM_SweepFastPath for the end-to-end engine numbers).
    MatmulKernel k;
    for (auto _ : state) {
        ReuseDistanceAnalyzer rd;
        k.emitTrace(64, 256, rd);
        const auto curve = rd.missCurve();
        benchmark::DoNotOptimize(curve.ioWords(256));
    }
}
BENCHMARK(BM_StackDistanceCurveMatmul);

void
BM_OptSimulation(benchmark::State &state)
{
    Xoshiro256 rng(3);
    std::vector<Access> trace(1 << 14);
    for (auto &a : trace)
        a = readOf(rng.below(1 << 10));
    for (auto _ : state) {
        benchmark::DoNotOptimize(simulateOpt(trace, 256));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_OptSimulation);

void
BM_ReuseHierarchical(benchmark::State &state)
{
    // The blocked-count rank core on a tiled re-reference pattern:
    // every lap touches the same rows in a shuffled order, so each
    // row arrives as a warm run with consecutive previous-use stamps
    // (one rank query + bulk mark moves per row) while the shuffle
    // keeps the queries spread across the whole stamp hierarchy, and
    // laps drive the compaction cycle. Compare BM_ReuseDistance for
    // the word-at-a-time random shape.
    const std::uint64_t rows = 1 << 8;
    const std::uint64_t row_words = 1 << 6;
    Xoshiro256 rng(7);
    for (auto _ : state) {
        ReuseDistanceAnalyzer rd;
        std::vector<std::uint64_t> order(rows);
        for (std::uint64_t r = 0; r < rows; ++r)
            order[r] = r;
        for (int lap = 0; lap < 16; ++lap) {
            for (std::uint64_t r = rows; r-- > 1;)
                std::swap(order[r], order[rng.below(r + 1)]);
            for (std::uint64_t r = 0; r < rows; ++r)
                rd.onRun(order[r] * row_words, row_words,
                         AccessType::Read);
        }
        benchmark::DoNotOptimize(rd.accesses());
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(16 * rows * row_words));
}
BENCHMARK(BM_ReuseHierarchical);

void
BM_MultiSetPass(benchmark::State &state)
{
    // One shared pass serving range(0) set counts at once — the
    // engine's one-emission-per-job set-assoc path. Arg(1) is the
    // old per-set-count cost for comparison.
    const auto planes = static_cast<std::size_t>(state.range(0));
    std::vector<std::uint64_t> sets;
    for (std::size_t p = 0; p < planes; ++p)
        sets.push_back(1 + 3 * p);
    Xoshiro256 rng(5);
    std::vector<std::uint64_t> addrs(1 << 14);
    for (auto &a : addrs)
        a = rng.below(1 << 12);
    for (auto _ : state) {
        MultiSetReuseAnalyzer analyzer(sets, 8);
        for (std::size_t i = 0; i < addrs.size(); ++i)
            analyzer.onAccess(i % 5 == 0 ? writeOf(addrs[i])
                                         : readOf(addrs[i]));
        benchmark::DoNotOptimize(analyzer.accesses());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(addrs.size()));
}
BENCHMARK(BM_MultiSetPass)->Arg(1)->Arg(8);

void
BM_MultiSetRowScan(benchmark::State &state)
{
    // The row-scan core head to head: Arg(0) = the scalar oracle,
    // Arg(1) = the KB_SIMD path with its compressed recency-ordered
    // rows. Runs feed the bulk onRun path exactly as the production
    // sweep does; both paths produce bit-identical curves
    // (analyzer_diff_test), only the words/s differs.
    const auto path = state.range(0) == 0 ? AnalyzerPath::Scalar
                                          : AnalyzerPath::Simd;
    const std::vector<std::uint64_t> sets{6, 12, 21, 39, 72, 133,
                                          247, 512};
    Xoshiro256 rng(7);
    struct Run
    {
        std::uint64_t base;
        std::uint64_t words;
        bool write;
    };
    std::vector<Run> runs(1 << 10);
    for (auto &r : runs)
        r = {rng.below(1 << 14), 1 + rng.below(64),
             rng.below(4) == 0};
    std::uint64_t words = 0;
    for (const auto &r : runs)
        words += r.words;
    for (auto _ : state) {
        MultiSetReuseAnalyzer analyzer(sets, 8, path);
        for (const auto &r : runs)
            analyzer.onRun(r.base, r.words,
                           r.write ? AccessType::Write
                                   : AccessType::Read);
        benchmark::DoNotOptimize(analyzer.accesses());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(words));
}
BENCHMARK(BM_MultiSetRowScan)->Arg(0)->Arg(1);

/**
 * Rank-query throughput over a realistic mid-trace bitmap: cold
 * streaks of set marks with gaps between them, queries spread across
 * the whole stamp hierarchy. Both paths return identical ranks
 * (MarkRankDiff asserts it); only the block-scan speed differs.
 */
void
markRankBenchmark(benchmark::State &state, AnalyzerPath path)
{
    const std::uint64_t domain = 1 << 18;
    MarkRank rank(path);
    rank.grow(domain);
    for (std::uint64_t base = 0; base + 384 <= domain; base += 512)
        rank.setRun(base, 384);
    Xoshiro256 rng(11);
    std::vector<std::uint64_t> queries(1 << 12);
    for (auto &q : queries)
        q = rng.below(domain);
    std::uint64_t sum = 0;
    for (auto _ : state) {
        for (const auto q : queries)
            sum += rank.rankInc(q);
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(queries.size()));
}

void
BM_MarkRankScalar(benchmark::State &state)
{
    markRankBenchmark(state, AnalyzerPath::Scalar);
}
BENCHMARK(BM_MarkRankScalar);

void
BM_MarkRankSimd(benchmark::State &state)
{
    markRankBenchmark(state, AnalyzerPath::Simd);
}
BENCHMARK(BM_MarkRankSimd);

void
BM_OptStreaming(benchmark::State &state)
{
    // The two-pass streaming OPT walk on BM_OptSimulation's exact
    // trace shape, for a direct buffered-vs-streaming comparison; a
    // small chunk forces real chunk-boundary crossings.
    Xoshiro256 rng(3);
    std::vector<Access> trace(1 << 14);
    for (auto &a : trace)
        a = readOf(rng.below(1 << 10));
    OptStreamOptions opts;
    opts.chunk_positions = 1 << 12;
    for (auto _ : state) {
        const auto curve = simulateOptCurveStreaming(
            [&](TraceSink &sink) {
                for (const auto &a : trace)
                    sink.onAccess(a);
            },
            {256}, opts);
        benchmark::DoNotOptimize(curve.missesAt(256));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_OptStreaming);

void
BM_OptCurveGrid(benchmark::State &state)
{
    // The streaming walk over an 8-point geometric capacity grid on a
    // matmul trace, the engine's OPT job shape: most accesses miss
    // the smallest capacities, so each one cascades victims through
    // several bands (BM_OptStreaming's single band never does).
    MatmulKernel k;
    const auto emit = [&](TraceSink &sink) { k.emitTrace(64, 256, sink); };
    const std::vector<std::uint64_t> grid = {8,   16,  32,  64,
                                             128, 256, 512, 1024};
    std::uint64_t words = 0;
    for (auto _ : state) {
        const auto curve = simulateOptCurveStreaming(emit, grid);
        benchmark::DoNotOptimize(curve.missesAt(8));
        words = curve.accesses();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(words));
}
BENCHMARK(BM_OptCurveGrid);

void
BM_MatmulMeasure(benchmark::State &state)
{
    MatmulKernel k;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            k.measure(64, static_cast<std::uint64_t>(state.range(0)),
                      false));
    }
}
BENCHMARK(BM_MatmulMeasure)->Arg(64)->Arg(1024);

void
BM_FftMeasure(benchmark::State &state)
{
    FftKernel k;
    for (auto _ : state) {
        benchmark::DoNotOptimize(k.measure(1 << 12, 64, false));
    }
}
BENCHMARK(BM_FftMeasure);

void
BM_PebbleHeuristicFft(benchmark::State &state)
{
    const Dag dag = buildFftDag(64);
    for (auto _ : state) {
        benchmark::DoNotOptimize(playHeuristic(dag, 16));
    }
}
BENCHMARK(BM_PebbleHeuristicFft);

void
BM_CountingSinkRuns(benchmark::State &state)
{
    // Bulk onRun path: counting a range must be O(1), not O(words).
    const std::uint64_t words =
        static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        CountingSink sink;
        sink.onRun(0, words, AccessType::Read);
        benchmark::DoNotOptimize(sink.total());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CountingSinkRuns)->Arg(1 << 10)->Arg(1 << 20);

/**
 * Trace emission into a CountingSink, per kernel. items = words
 * emitted, so the reported rate is words/s.
 */
void
BM_EmitScalar(benchmark::State &state, const char *kernel_name)
{
    const auto kernel =
        KernelRegistry::instance().shared(kernel_name);
    std::uint64_t m_lo = 0, m_hi = 0;
    kernel->defaultSweepRange(m_lo, m_hi);
    const std::uint64_t m = std::min(m_hi, 4 * m_lo);
    const std::uint64_t n =
        kernel->regimeProblemSize(kernel->suggestProblemSize(m), m);
    std::uint64_t words = 0;
    for (auto _ : state) {
        CountingSink sink;
        kernel->emitTrace(n, m, sink);
        words = sink.total();
        benchmark::DoNotOptimize(words);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(words));
}

BENCHMARK_CAPTURE(BM_EmitScalar, matmul, "matmul");
BENCHMARK_CAPTURE(BM_EmitScalar, stencil9, "stencil9");
BENCHMARK_CAPTURE(BM_EmitScalar, stencil9t, "stencil9t");
BENCHMARK_CAPTURE(BM_EmitScalar, matvec, "matvec");
BENCHMARK_CAPTURE(BM_EmitScalar, fft, "fft");

void
BM_StreamingReplayMatmul(benchmark::State &state)
{
    // Streaming emitTrace -> LRU (no intermediate trace vector).
    MatmulKernel k;
    for (auto _ : state) {
        LruCache lru(256);
        ReplaySink sink(lru);
        k.emitTrace(64, 256, sink);
        sink.flush();
        benchmark::DoNotOptimize(lru.stats().ioWords());
    }
}
BENCHMARK(BM_StreamingReplayMatmul);

void
BM_RandomReplay(benchmark::State &state)
{
    // Fully associative random replacement at E12's largest capacity
    // on a buffered matmul trace tiled for half of it (E12's M/2
    // row): Arg(0) = the one-set SetAssocCache(1, 2048, Random),
    // which scans every way per access; Arg(1) = RandomCache, one
    // hash lookup per access. Both replay the identical victims.
    constexpr std::uint64_t kCapacity = 2048;
    MatmulKernel k;
    VectorSink buffer;
    k.emitTrace(64, kCapacity / 2, buffer);
    const auto &trace = buffer.trace();
    for (auto _ : state) {
        std::unique_ptr<LocalMemory> model;
        if (state.range(0) == 0)
            model = std::make_unique<SetAssocCache>(
                1, kCapacity, ReplacementPolicy::Random, 7);
        else
            model = std::make_unique<RandomCache>(kCapacity, 7);
        for (const auto &a : trace)
            model->access(a);
        model->flush();
        benchmark::DoNotOptimize(model->stats().ioWords());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_RandomReplay)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void
BM_OptPerPoint(benchmark::State &state)
{
    // One iteration = the OPT column of E12's `tight` job: six
    // per-point cells (matmul N = 160, schedule tiled for each
    // capacity), each from a fresh emission. Arg(0) buffers the trace
    // and runs simulateOpt; Arg(1) rides OptNextUseRecorder on the
    // emission and walks a second emission over the one-capacity
    // grid, the engine's per-point path.
    const auto kernel = KernelRegistry::instance().shared("matmul");
    const std::vector<std::uint64_t> grid = {64,  128,  256,
                                             512, 1024, 2048};
    const bool streamed = state.range(0) != 0;
    for (auto _ : state) {
        for (const std::uint64_t m : grid) {
            const std::uint64_t n = kernel->regimeProblemSize(160, m);
            std::uint64_t io = 0;
            if (streamed) {
                OptNextUseRecorder recorder;
                kernel->emitTrace(n, m, recorder);
                const auto emit_again = [&](TraceSink &sink) {
                    kernel->emitTrace(n, m, sink);
                };
                io = recorder.finish(emit_again, {m}).ioWords(m);
            } else {
                VectorSink buffer;
                kernel->emitTrace(n, m, buffer);
                io = simulateOpt(buffer.trace(), m).stats.ioWords();
            }
            benchmark::DoNotOptimize(io);
        }
    }
}
BENCHMARK(BM_OptPerPoint)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/** LRU-only fixed-schedule sweep job shared by the A/B pair below. */
SweepJob
lruSweepJob(bool force_replay)
{
    SweepJob job;
    job.kernel = "matmul";
    job.m_lo = 48;
    job.m_hi = 1024;
    job.points = 8;
    job.models = {MemoryModelKind::Lru};
    job.schedule_m = 1024;
    job.models_only = true;
    job.force_replay = force_replay;
    return job;
}

void
BM_SweepDirect(benchmark::State &state)
{
    // Baseline: every point re-emits and re-replays the trace through
    // its own LruCache — O(points x trace).
    ExperimentEngine engine(1);
    const SweepJob job = lruSweepJob(/*force_replay=*/true);
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.runOne(job));
    }
}
BENCHMARK(BM_SweepDirect)->Unit(benchmark::kMillisecond);

void
BM_SweepFastPath(benchmark::State &state)
{
    // Stack-distance fast path, cold: one emission, whole curve —
    // O(trace log U + points). Bit-identical results to the direct
    // run above (asserted by the engine tests). The CurveStore's
    // tier 1 is cleared per iteration and its disk tier detached for
    // the duration (an ambient KB_CURVE_CACHE_DIR would serve the
    // "cold" runs), so this keeps measuring the single-pass
    // analyzer, not the store.
    auto &store = CurveStore::instance();
    const std::string ambient_dir = store.diskDirectory();
    store.setDiskDirectory("");
    ExperimentEngine engine(1);
    const SweepJob job = lruSweepJob(/*force_replay=*/false);
    for (auto _ : state) {
        store.clear();
        benchmark::DoNotOptimize(engine.runOne(job));
    }
    store.setDiskDirectory(ambient_dir);
}
BENCHMARK(BM_SweepFastPath)->Unit(benchmark::kMillisecond);

void
BM_SweepCached(benchmark::State &state)
{
    // Cache-hot repeat of the same job: curves served from the
    // CurveStore (tier 1), no emission at all (the repeated-sweep case the
    // cache exists for).
    ExperimentEngine engine(1);
    const SweepJob job = lruSweepJob(/*force_replay=*/false);
    CurveStore::instance().clear();
    benchmark::DoNotOptimize(engine.runOne(job)); // warm the cache
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.runOne(job));
    }
}
BENCHMARK(BM_SweepCached)->Unit(benchmark::kMicrosecond);

/** Runs a cold_ablation-shaped matmul job (fixed schedule at m_hi,
 *  eight points, models only) with @p models on @p threads engine
 *  threads, from a cleared store with its disk tier detached. */
void
coldJobBenchmark(benchmark::State &state,
                 std::vector<MemoryModelKind> models, unsigned threads)
{
    auto &store = CurveStore::instance();
    const std::string ambient_dir = store.diskDirectory();
    store.setDiskDirectory("");
    ExperimentEngine engine(threads);
    SweepJob job;
    job.kernel = "matmul";
    job.m_lo = 48;
    job.m_hi = 1024;
    job.points = 8;
    job.models = std::move(models);
    job.schedule_m = 1024;
    job.models_only = true;
    for (auto _ : state) {
        store.clear();
        benchmark::DoNotOptimize(engine.runOne(job));
    }
    store.setDiskDirectory(ambient_dir);
}

void
BM_ColdJobTrace(benchmark::State &state)
{
    // lru + 8way-lru + opt, one pool task per consumer: at Arg(4) the
    // job's wall time should approach BM_ColdJobOptChain's, its
    // slowest consumer; Arg(1) runs the consumers back to back.
    coldJobBenchmark(state,
                     {MemoryModelKind::Lru, MemoryModelKind::SetAssocLru,
                      MemoryModelKind::Opt},
                     static_cast<unsigned>(state.range(0)));
}
BENCHMARK(BM_ColdJobTrace)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_ColdJobOptChain(benchmark::State &state)
{
    // The same job's OPT column alone: recorder pass 1 and the Belady
    // walk on a second emission.
    coldJobBenchmark(state, {MemoryModelKind::Opt}, 1);
}
BENCHMARK(BM_ColdJobOptChain)->UseRealTime()->Unit(benchmark::kMillisecond);

void
BM_EngineSweep(benchmark::State &state)
{
    // Multi-kernel sweep at 1 vs N threads (the tentpole speedup).
    const unsigned threads = static_cast<unsigned>(state.range(0));
    ExperimentEngine engine(threads);
    std::vector<SweepJob> jobs;
    for (const char *name : {"matmul", "triangularization", "fft",
                             "sorting", "matvec", "trisolve"}) {
        SweepJob job;
        job.kernel = name;
        job.points = 4;
        jobs.push_back(job);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run(jobs));
    }
}
BENCHMARK(BM_EngineSweep)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

} // namespace
