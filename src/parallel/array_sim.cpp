#include "parallel/array_sim.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace kb {

ArraySimResult
simulateArray(const ArrayMachine &machine,
              const std::vector<StepWorkload> &steps)
{
    KB_REQUIRE(machine.pe_count >= 1, "array needs PEs");
    KB_REQUIRE(machine.ops_per_cycle > 0.0 &&
                   machine.host_words_per_cycle > 0.0,
               "rates must be positive");

    const double latency = machine.hop_latency_cycles *
                           static_cast<double>(machine.pipeline_depth);

    ArraySimResult result;
    double channel_free = 0.0; // when the host channel is next idle
    double pe_free = 0.0;      // when the PE ranks are next idle

    for (const auto &step : steps) {
        const double io_time =
            (step.input_words + step.output_words) /
            machine.host_words_per_cycle;
        const double comp_time = step.ops_per_pe / machine.ops_per_cycle;

        for (std::uint64_t r = 0; r < step.repeat; ++r) {
            // Input (and the previous step's output) occupy the
            // channel.
            const double io_done = channel_free + io_time;
            channel_free = io_done;
            result.io_cycles += io_time;

            // Compute starts once the words have propagated and the
            // PEs have finished the previous step (double buffering:
            // the transfer itself overlapped that compute).
            const double start = std::max(io_done + latency, pe_free);
            pe_free = start + comp_time;
            result.compute_cycles += comp_time;
        }
        result.steps += step.repeat;
    }

    result.cycles = std::max(channel_free, pe_free);
    return result;
}

std::uint64_t
minMemoryForUtilization(
    const std::function<ArraySimResult(std::uint64_t)> &run,
    double target, std::uint64_t lo, std::uint64_t hi)
{
    KB_REQUIRE(lo >= 1 && lo <= hi, "bad search range");
    if (run(lo).utilization() >= target)
        return lo;

    // Gallop upward rather than probing hi directly: at very large
    // memories a workload can degenerate to a handful of giant
    // macro-steps whose pipeline fill drags utilization back down, so
    // utilization is unimodal, not monotone, over the full range.
    std::uint64_t below = lo;
    std::uint64_t above = 0;
    for (std::uint64_t cur = lo; cur < hi;) {
        cur = std::min(cur * 2, hi);
        if (run(cur).utilization() >= target) {
            above = cur;
            break;
        }
        below = cur;
    }
    if (above == 0)
        return hi + 1;

    while (below + 1 < above) {
        const std::uint64_t mid = below + (above - below) / 2;
        if (run(mid).utilization() >= target)
            above = mid;
        else
            below = mid;
    }
    return above;
}

} // namespace kb
