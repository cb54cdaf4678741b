/**
 * @file
 * The parameter list of the per-kernel test cases (instantiation
 * prefix PerKernel/), which CMake registers with ctest one case at a
 * time so `ctest -j` runs them in parallel.
 */

#pragma once

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace kb {

/**
 * Every registered kernel, in registry order. Spelled out so that
 * each (test, kernel) pair is its own gtest case; every binary that
 * uses it has a PerKernelCoverage test pinning it to the registry,
 * so a new kernel cannot go unchecked.
 */
inline const std::vector<std::string> kKernelNames = {
    "matmul", "triangularization", "qr", "grid1d", "grid2d",
    "grid3d", "grid4d", "fft", "sorting", "matvec", "trisolve",
    "spmv", "stencil9", "stencil9t"};

/** Instantiates @p fixture (a TestWithParam<std::string>) once per
 *  registered kernel, each case named after its kernel. */
#define KB_INSTANTIATE_PER_KERNEL(fixture)                               \
    INSTANTIATE_TEST_SUITE_P(                                            \
        PerKernel, fixture, ::testing::ValuesIn(::kb::kKernelNames),    \
        [](const ::testing::TestParamInfo<std::string> &info) {         \
            return info.param;                                          \
        })

} // namespace kb
