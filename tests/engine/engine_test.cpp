/**
 * @file
 * Tests for the parallel experiment engine: deterministic results
 * independent of worker count, registry round-trips, plug-in kernels,
 * and model-set replay.
 */

#include <gtest/gtest.h>

#include "analysis/sweep.hpp"
#include "engine/engine.hpp"
#include "kernels/kernel.hpp"
#include "kernels/registry.hpp"
#include "mem/lru_cache.hpp"
#include "trace/replay.hpp"

namespace kb {
namespace {

/**
 * A plug-in kernel living entirely in this test binary: registers
 * itself with the registry (order >= 100) and never touches core.
 */
class ToyStreamKernel : public Kernel
{
  public:
    std::string name() const override { return "toy_stream"; }
    std::string description() const override
    {
        return "test-only streaming kernel";
    }
    ScalingLaw law() const override { return ScalingLaw::impossible(); }
    double asymptoticRatio(std::uint64_t) const override { return 2.0; }
    WorkloadCost
    analyticCosts(std::uint64_t n, std::uint64_t) const override
    {
        return {2.0 * static_cast<double>(n), static_cast<double>(n)};
    }
    MeasuredCost
    measure(std::uint64_t n, std::uint64_t m, bool) const override
    {
        MeasuredCost r;
        r.cost.comp_ops = 2.0 * static_cast<double>(n);
        r.cost.io_words =
            static_cast<double>(n) + static_cast<double>(m);
        r.peak_memory = m;
        r.verified = true;
        return r;
    }
    void
    emitTrace(std::uint64_t n, std::uint64_t,
              TraceSink &sink) const override
    {
        sink.onRun(0, n, AccessType::Read);
        sink.onRun(n, n / 2, AccessType::Write);
    }
    std::uint64_t minMemory(std::uint64_t) const override { return 2; }
    std::uint64_t
    suggestProblemSize(std::uint64_t m_max) const override
    {
        return 4 * m_max;
    }
    void
    defaultSweepRange(std::uint64_t &lo, std::uint64_t &hi) const override
    {
        lo = 8;
        hi = 64;
    }
};

const KernelRegistrar kToyRegistrar{
    "toy_stream", [] { return std::make_unique<ToyStreamKernel>(); },
    100, /*compute_bound=*/false};

std::vector<SweepJob>
smallJobs()
{
    SweepJob matmul;
    matmul.kernel = "matmul";
    matmul.m_lo = 48;
    matmul.m_hi = 1024;
    matmul.points = 4;

    SweepJob fft;
    fft.kernel = "fft";
    fft.m_lo = 8;
    fft.m_hi = 256;
    fft.points = 4;

    SweepJob grid;
    grid.kernel = "grid1d";
    grid.m_lo = 256;
    grid.m_hi = 4096;
    grid.points = 3;

    return {matmul, fft, grid};
}

void
expectIdentical(const std::vector<SweepResult> &a,
                const std::vector<SweepResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
        EXPECT_EQ(a[j].job_index, b[j].job_index);
        EXPECT_EQ(a[j].job.kernel, b[j].job.kernel);
        EXPECT_EQ(a[j].n_hint, b[j].n_hint);
        ASSERT_EQ(a[j].points.size(), b[j].points.size());
        for (std::size_t p = 0; p < a[j].points.size(); ++p) {
            const auto &x = a[j].points[p];
            const auto &y = b[j].points[p];
            EXPECT_EQ(x.sample.m, y.sample.m);
            // Bit-identical, not approximately equal: the engine
            // promises scheduling-independent results.
            EXPECT_EQ(x.sample.ratio, y.sample.ratio);
            EXPECT_EQ(x.sample.comp_ops, y.sample.comp_ops);
            EXPECT_EQ(x.sample.io_words, y.sample.io_words);
            EXPECT_EQ(x.model_io, y.model_io);
        }
    }
}

TEST(Engine, OneThreadAndEightThreadsAreBitIdentical)
{
    const auto serial = ExperimentEngine(1).run(smallJobs());
    const auto parallel = ExperimentEngine(8).run(smallJobs());
    expectIdentical(serial, parallel);
}

TEST(Engine, MeasureRatioCurveMatchesSerialEngine)
{
    // The analysis entry point (hardware threads) returns the same
    // curve as a one-thread engine run of the same job.
    const auto curve =
        measureRatioCurve(KernelId::MatMul, 48, 1024, 4);
    SweepJob job;
    job.kernel = "matmul";
    job.m_lo = 48;
    job.m_hi = 1024;
    job.points = 4;
    const auto serial = ExperimentEngine(1).runOne(job);
    ASSERT_EQ(curve.samples.size(), serial.points.size());
    for (std::size_t i = 0; i < curve.samples.size(); ++i) {
        EXPECT_EQ(curve.samples[i].m, serial.points[i].sample.m);
        EXPECT_EQ(curve.samples[i].ratio,
                  serial.points[i].sample.ratio);
    }
    EXPECT_EQ(curve.kernel, KernelId::MatMul);
    EXPECT_EQ(curve.name, "matmul");
}

TEST(Engine, ModelReplayIsThreadCountInvariant)
{
    SweepJob job;
    job.kernel = "matmul";
    job.m_lo = 64;
    job.m_hi = 512;
    job.points = 4;
    job.models = {MemoryModelKind::Lru, MemoryModelKind::SetAssocLru,
                  MemoryModelKind::Opt};
    const auto serial = ExperimentEngine(1).run({job});
    const auto parallel = ExperimentEngine(8).run({job});
    expectIdentical(serial, parallel);
    for (const auto &p : serial[0].points) {
        ASSERT_EQ(p.model_io.size(), 3u);
        // OPT is optimal: never more I/O than LRU.
        EXPECT_LE(p.model_io[2], p.model_io[0]);
    }
}

TEST(Engine, StreamedLruReplayMatchesBufferedReplay)
{
    // Streaming the trace into an LRU (ReplaySink, no intermediate
    // vector) must equal the two-pass buffer-then-replay workflow.
    const auto kernel = makeKernel("matmul");
    const std::uint64_t n = 48, m = 120;

    VectorSink buffered;
    kernel->emitTrace(n, m, buffered);
    LruCache via_vector(m);
    for (const auto &a : buffered.trace())
        via_vector.access(a);
    via_vector.flush();

    LruCache streamed(m);
    ReplaySink sink(streamed);
    kernel->emitTrace(n, m, sink);
    sink.flush();

    EXPECT_EQ(sink.accessCount(), buffered.trace().size());
    EXPECT_EQ(streamed.stats().accesses, via_vector.stats().accesses);
    EXPECT_EQ(streamed.stats().misses, via_vector.stats().misses);
    EXPECT_EQ(streamed.stats().writebacks,
              via_vector.stats().writebacks);
    EXPECT_EQ(streamed.stats().ioWords(), via_vector.stats().ioWords());
}

TEST(Registry, RoundTripsWithKernelIds)
{
    auto &registry = KernelRegistry::instance();
    // Every built-in id's name resolves in the registry, and the
    // registry's presentation order starts with exactly the paper's
    // twelve ids (plug-ins sort after, order >= 100).
    const auto ids = allKernelIds();
    const auto names = registry.names();
    ASSERT_GE(names.size(), ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
        EXPECT_TRUE(registry.contains(kernelIdName(ids[i])));
        EXPECT_EQ(names[i], kernelIdName(ids[i]));
        KernelId back;
        ASSERT_TRUE(kernelIdFromName(names[i], back));
        EXPECT_EQ(back, ids[i]);
    }
}

TEST(Registry, SharedInstanceIsCachedAndNamed)
{
    auto &registry = KernelRegistry::instance();
    const auto a = registry.shared("fft");
    const auto b = registry.shared("fft");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(a->name(), "fft");
}

TEST(Registry, PluginKernelNeedsNoCoreChanges)
{
    auto &registry = KernelRegistry::instance();
    ASSERT_TRUE(registry.contains("toy_stream"));

    // Not a built-in: no id, and allKernelIds() still has twelve.
    KernelId id;
    EXPECT_FALSE(kernelIdFromName("toy_stream", id));
    EXPECT_EQ(allKernelIds().size(), 12u);

    // The engine sweeps it like any built-in, via its own regime.
    SweepJob job;
    job.kernel = "toy_stream";
    job.points = 3;
    const auto result = ExperimentEngine(2).runOne(job);
    EXPECT_EQ(result.job.m_lo, 8u);
    EXPECT_EQ(result.job.m_hi, 64u);
    ASSERT_GE(result.points.size(), 2u);
    EXPECT_EQ(result.n_hint, 4u * 64u);
    for (const auto &p : result.points)
        EXPECT_GT(p.sample.ratio, 0.0);
}

TEST(Engine, PartialRangeKeepsExplicitBound)
{
    // Only the defaulted bound is resolved; the pinned one survives.
    SweepJob job;
    job.kernel = "matmul";
    job.m_lo = 512;
    job.m_hi = 0; // default (4096 for matmul)
    job.points = 3;
    const auto result = ExperimentEngine(1).runOne(job);
    EXPECT_EQ(result.job.m_lo, 512u);
    EXPECT_EQ(result.job.m_hi, 4096u);
    EXPECT_GE(result.points.front().sample.m, 512u);
}

TEST(Engine, ModelReplayUsesTheRegimeProblemSize)
{
    // FFT's regime measures n = P(M)^2, much smaller than n_hint;
    // the replay must trace the same computation, so the LRU's I/O
    // stays commensurate with the sample's (a n_hint-sized replay
    // would be orders of magnitude larger).
    SweepJob job;
    job.kernel = "fft";
    job.m_lo = 16;
    job.m_hi = 64;
    job.points = 3;
    job.models = {MemoryModelKind::Lru};
    const auto result = ExperimentEngine(1).runOne(job);
    for (const auto &p : result.points) {
        ASSERT_EQ(p.model_io.size(), 1u);
        const double lru = static_cast<double>(p.model_io[0]);
        EXPECT_GT(lru, 0.1 * p.sample.io_words);
        EXPECT_LT(lru, 10.0 * p.sample.io_words);
    }
}

TEST(Engine, UnknownKernelIsFatal)
{
    SweepJob job;
    job.kernel = "no_such_kernel";
    EXPECT_EXIT({ (void)ExperimentEngine(1).run({job}); },
                ::testing::ExitedWithCode(1), "unknown kernel");
}

TEST(Engine, GridDeduplicatesCollapsedPoints)
{
    // A narrow range with many points rounds adjacent samples onto
    // the same capacity; the grid must keep each capacity once, in
    // strictly increasing order.
    SweepJob job;
    job.kernel = "matmul";
    job.m_lo = 60;
    job.m_hi = 70;
    job.points = 12;
    const auto result = ExperimentEngine(1).runOne(job);
    ASSERT_GE(result.points.size(), 3u);
    ASSERT_LE(result.points.size(), 11u); // 60..70 has 11 integers
    for (std::size_t p = 1; p < result.points.size(); ++p)
        EXPECT_GT(result.points[p].sample.m,
                  result.points[p - 1].sample.m);
}

TEST(Engine, GridRequireMessagesNameTheOffendingKernel)
{
    // A batch submits many jobs; the failure must say whose grid is
    // bad, not just that one is.
    SweepJob job;
    job.kernel = "matmul";
    job.points = 2;
    EXPECT_EXIT({ (void)ExperimentEngine(1).run({job}); },
                ::testing::ExitedWithCode(1),
                "sweep job 'matmul' needs at least three points");

    SweepJob bad_range;
    bad_range.kernel = "fft";
    bad_range.m_lo = 512;
    bad_range.m_hi = 128;
    EXPECT_EXIT({ (void)ExperimentEngine(1).run({bad_range}); },
                ::testing::ExitedWithCode(1),
                "sweep job 'fft' has a bad memory range");
}

TEST(Engine, PinnedProblemSizeOverridesTheKernelSuggestion)
{
    SweepJob job;
    job.kernel = "matmul";
    job.m_lo = 64;
    job.m_hi = 512;
    job.points = 3;
    job.n_hint = 96;
    const auto result = ExperimentEngine(1).runOne(job);
    EXPECT_EQ(result.n_hint, 96u);
    // The sample really measured N = 96.
    const auto kernel = KernelRegistry::instance().shared("matmul");
    const auto expected = kernel->measureRatioPoint(
        96, result.points.front().sample.m);
    EXPECT_DOUBLE_EQ(result.points.front().sample.comp_ops,
                     expected.comp_ops);
    EXPECT_DOUBLE_EQ(result.points.front().sample.io_words,
                     expected.io_words);
}

TEST(Engine, ScheduleModeAndHeadroomAreMutuallyExclusive)
{
    SweepJob job;
    job.kernel = "matmul";
    job.schedule_m = 256;
    job.schedule_headroom = 2;
    job.models = {MemoryModelKind::Lru};
    EXPECT_EXIT({ (void)ExperimentEngine(1).run({job}); },
                ::testing::ExitedWithCode(1),
                "schedule_m and schedule_headroom");
}

} // namespace
} // namespace kb
