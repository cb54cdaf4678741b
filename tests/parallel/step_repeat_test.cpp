/**
 * @file
 * A StepWorkload with repeat r plays exactly like r separate copies.
 *
 * The Section 4 workloads fold runs of identical macro-steps into one
 * entry. The simulator must then produce the same cycle counts, bit for
 * bit, as it does for the expanded list: the repeats are played one by
 * one in the original floating-point order, not summed in closed form.
 */

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "parallel/array_sim.hpp"

namespace kb {
namespace {

std::vector<StepWorkload>
expand(const std::vector<StepWorkload> &steps)
{
    std::vector<StepWorkload> out;
    for (const StepWorkload &s : steps)
        for (std::uint64_t r = 0; r < s.repeat; ++r)
            out.push_back(
                StepWorkload{s.input_words, s.output_words, s.ops_per_pe});
    return out;
}

void
expectSameResult(const ArraySimResult &a, const ArraySimResult &b)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cycles),
              std::bit_cast<std::uint64_t>(b.cycles));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.compute_cycles),
              std::bit_cast<std::uint64_t>(b.compute_cycles));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.io_cycles),
              std::bit_cast<std::uint64_t>(b.io_cycles));
    EXPECT_EQ(a.steps, b.steps);
}

TEST(StepRepeat, RepeatedStepPlaysLikeItsCopies)
{
    // Inexact binary fractions, so any reassociation would show.
    const ArrayMachine m{3, 0.7, 1.3, 1.1, 3};
    const std::vector<StepWorkload> folded = {
        {0.1, 0.0, 0.3, 7},
        {0.0, 2.9, 0.0, 1},
        {1.7, 0.2, 5.3, 0},
        {0.1, 0.0, 0.3, 5},
    };
    expectSameResult(simulateArray(m, folded),
                     simulateArray(m, expand(folded)));
}

} // namespace
} // namespace kb
