/**
 * @file
 * measure(verify=true) and measure(verify=false) bill the same schedule.
 *
 * With verify off a kernel may skip its arithmetic, because nobody
 * reads the values; the scratchpad counters must not notice. Every
 * registered kernel is measured in both modes at (n, m) points below
 * its verify limit, so the checked mode really computes and checks
 * its answer, and the two results must agree bit for bit on comp_ops,
 * io_words and peak_memory. The expected counts are the ones the
 * kernels produced while they still ran their numerics in both modes,
 * so a schedule walker whose billing drifts when its values go away
 * fails here. The same holds for GridKernel::measureResident (the E1
 * and E4 regime) and for FftKernel::decompose.
 */

#include <bit>
#include <cstdint>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "kernels/fft.hpp"
#include "kernels/grid.hpp"
#include "kernels/registry.hpp"

namespace kb {
namespace {

struct Expected
{
    const char *kernel;
    std::uint64_t n;
    std::uint64_t m;
    double comp_ops;
    double io_words;
    std::uint64_t peak_memory;
};

/**
 * Each kernel at two or three points: a ragged edge tile or block
 * (n not a multiple of the tile), a regular one, and for the blocked
 * kernels the smallest legal memory.
 */
constexpr Expected kExpected[] = {
    {"matmul", 37, 20, 101306, 36963, 15},
    {"matmul", 64, 48, 524288, 94208, 48},
    {"matmul", 50, 3, 250000, 252500, 3},
    {"triangularization", 37, 20, 33078, 27020, 12},
    {"triangularization", 64, 48, 172704, 69632, 48},
    {"triangularization", 16, 3, 2600, 4352, 3},
    {"qr", 37, 50, 102675, 43068, 50},
    {"qr", 64, 27, 528384, 245472, 27},
    {"qr", 16, 4, 8448, 10488, 3},
    {"grid1d", 300, 64, 62400, 4024, 64},
    {"grid1d", 2048, 64, 429380, 27712, 64},
    {"grid2d", 40, 512, 475412, 53944, 512},
    {"grid2d", 23, 100, 118496, 47680, 98},
    {"grid3d", 16, 512, 1179648, 471808, 432},
    {"grid3d", 11, 200, 497664, 338944, 128},
    {"grid4d", 8, 2048, 1441792, 794624, 1250},
    {"grid4d", 6, 500, 1441792, 2138624, 162},
    {"fft", 1024, 16, 63488, 22528, 16},
    {"fft", 256, 4, 14848, 8192, 4},
    {"fft", 4096, 100, 270336, 49152, 100},
    {"sorting", 4096, 64, 68638, 24448, 64},
    {"sorting", 1000, 8, 12775, 8000, 8},
    {"matvec", 128, 8, 32768, 19328, 8},
    {"matvec", 100, 50, 20000, 10400, 50},
    {"trisolve", 128, 8, 16384, 12544, 8},
    {"trisolve", 100, 50, 10000, 6066, 48},
    {"spmv", 1024, 8, 16384, 25563, 8},
    {"spmv", 500, 64, 8000, 12025, 64},
    {"stencil9", 48, 32, 110592, 44560, 20},
    {"stencil9", 37, 100, 65712, 15080, 100},
    {"stencil9t", 48, 64, 331776, 100656, 50},
    {"stencil9t", 37, 200, 276840, 29814, 200},
};

/** Bit-for-bit comparison of two counted costs against @p want. */
void
expectBilled(const MeasuredCost &got, const Expected &want)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cost.comp_ops),
              std::bit_cast<std::uint64_t>(want.comp_ops))
        << "comp_ops " << got.cost.comp_ops;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cost.io_words),
              std::bit_cast<std::uint64_t>(want.io_words))
        << "io_words " << got.cost.io_words;
    EXPECT_EQ(got.peak_memory, want.peak_memory);
}

TEST(MeasureModes, BothModesBillTheSameSchedule)
{
    for (const Expected &e : kExpected) {
        SCOPED_TRACE(std::string(e.kernel) + " n=" + std::to_string(e.n) +
                     " m=" + std::to_string(e.m));
        const auto kernel = KernelRegistry::instance().shared(e.kernel);
        const MeasuredCost checked = kernel->measure(e.n, e.m, true);
        const MeasuredCost billed = kernel->measure(e.n, e.m, false);
        EXPECT_TRUE(checked.verified);
        EXPECT_FALSE(billed.verified);
        expectBilled(checked, e);
        expectBilled(billed, e);
    }
}

/** A kernel registered without a row would escape the differential. */
TEST(MeasureModes, TableCoversEveryRegisteredKernel)
{
    std::set<std::string> covered;
    for (const Expected &e : kExpected)
        covered.insert(e.kernel);
    for (const auto &name : KernelRegistry::instance().names())
        EXPECT_EQ(covered.count(name), 1u) << "no row for " << name;
    EXPECT_EQ(covered.size(), KernelRegistry::instance().names().size());
}

TEST(MeasureModes, ResidentGridBillsTheSameInBothModes)
{
    // 8 sweeps of the resident block, one point per dimension.
    constexpr Expected kResident[] = {
        {"grid1d", 100, 64, 1200, 68, 64},
        {"grid2d", 30, 200, 3584, 264, 200},
        {"grid3d", 14, 500, 4608, 616, 432},
        {"grid4d", 9, 2000, 7128, 1562, 1250},
    };
    for (unsigned d = 1; d <= 4; ++d) {
        const Expected &e = kResident[d - 1];
        SCOPED_TRACE(e.kernel);
        const GridKernel k(d, 8);
        const MeasuredCost checked = k.measureResident(e.n, e.m, true);
        const MeasuredCost billed = k.measureResident(e.n, e.m, false);
        EXPECT_TRUE(checked.verified);
        EXPECT_FALSE(billed.verified);
        expectBilled(checked, e);
        expectBilled(billed, e);
    }
}

TEST(MeasureModes, FftDecompositionKeepsItsCounts)
{
    struct Decomp
    {
        std::uint64_t n, m, blocks, max_block, shuffles, shuffle_words,
            levels;
    };
    constexpr Decomp kDecomp[] = {
        {16, 4, 8, 4, 3, 96, 2},
        {64, 64, 1, 64, 0, 0, 1},
        {1024, 16, 384, 16, 51, 12288, 3},
        {4096, 4, 6144, 4, 1023, 122880, 6},
        {1u << 16, 256, 512, 256, 3, 393216, 2},
    };
    const FftKernel k;
    for (const Decomp &want : kDecomp) {
        SCOPED_TRACE("n=" + std::to_string(want.n) +
                     " m=" + std::to_string(want.m));
        const FftDecomposition got = k.decompose(want.n, want.m);
        EXPECT_EQ(got.n, want.n);
        EXPECT_EQ(got.memory, want.m);
        EXPECT_EQ(got.blocks, want.blocks);
        EXPECT_EQ(got.max_block, want.max_block);
        EXPECT_EQ(got.shuffles, want.shuffles);
        EXPECT_EQ(got.shuffle_words, want.shuffle_words);
        EXPECT_EQ(got.levels, want.levels);
    }
}

} // namespace
} // namespace kb
