/**
 * @file
 * Cross-module consistency: the word-level traces, the scratchpad
 * accounting, and the reuse-distance/LRU machinery must tell the same
 * story about a kernel's I/O.
 */

#include <gtest/gtest.h>

#include "kernels/kernel.hpp"
#include "kernels/matmul.hpp"
#include "mem/lru_cache.hpp"
#include "trace/pipeline.hpp"
#include "trace/reuse.hpp"
#include "trace/sink.hpp"

namespace kb {
namespace {

TEST(TraceConsistency, MatmulLruIoTracksScheduleIo)
{
    // Replaying the matmul trace through an LRU of the same capacity
    // must reproduce the schedule's I/O up to a small constant (cold
    // effects and the resident-tile discipline).
    MatmulKernel k;
    const std::uint64_t n = 48, m = 120; // b = 10
    const auto sched = k.measure(n, m, false);

    LruCache lru(m);
    CallbackSink sink([&](const Access &a) { lru.access(a); });
    k.emitTrace(n, m, sink);
    lru.flush();

    const double lru_io =
        static_cast<double>(lru.stats().ioWords());
    EXPECT_LT(lru_io, 1.3 * sched.cost.io_words);
    EXPECT_GT(lru_io, 0.5 * sched.cost.io_words);
}

TEST(TraceConsistency, MissCurveMonotoneAcrossKernelTraces)
{
    for (const auto id :
         {KernelId::MatMul, KernelId::Fft, KernelId::Sort}) {
        const auto k = makeKernel(id);
        ReuseDistanceAnalyzer rd;
        const std::uint64_t n = id == KernelId::Fft ? 64 : 32;
        k->emitTrace(n, 16, rd);
        const auto curve = rd.missCurve();
        std::uint64_t prev = ~0ull;
        for (std::uint64_t cap = 1; cap <= 64; cap *= 2) {
            const auto misses = curve.missesAt(cap);
            EXPECT_LE(misses, prev) << kernelIdName(id);
            prev = misses;
        }
    }
}

TEST(TraceConsistency, LargerMemoryTraceMovesFewerWords)
{
    // The schedule adapts to m: more memory, fewer trace accesses to
    // off-PE data (reads especially).
    MatmulKernel k;
    CountingSink small_sink, large_sink;
    k.emitTrace(64, 35, small_sink);
    k.emitTrace(64, 1088, large_sink);
    EXPECT_LT(large_sink.reads(), small_sink.reads());
}

TEST(TraceConsistency, TraceFootprintMatchesProblemArrays)
{
    // The matmul trace touches exactly the 3 n^2 words of A, B, C.
    MatmulKernel k;
    const std::uint64_t n = 24;
    ReuseDistanceAnalyzer rd;
    k.emitTrace(n, 48, rd);
    EXPECT_EQ(rd.distinctWords(), 3 * n * n);
}

TEST(TraceConsistency, ReuseCurveAgreesWithLruOnKernelTrace)
{
    // The one-pass miss curve equals an actual LRU simulation on a
    // real kernel trace, not just synthetic ones.
    MatmulKernel k;
    ReuseDistanceAnalyzer rd;
    VectorSink rec;
    AnalysisPipeline pipeline;
    pipeline.attach(rd);
    pipeline.attach(rec);
    k.emitTrace(32, 24, pipeline);
    pipeline.flush();
    const auto curve = rd.missCurve();
    for (std::uint64_t cap : {8u, 24u, 64u, 256u}) {
        LruCache lru(cap);
        for (const auto &a : rec.trace())
            lru.access(a);
        EXPECT_EQ(curve.missesAt(cap), lru.stats().misses)
            << "cap=" << cap;
    }
}

} // namespace
} // namespace kb
