/**
 * @file
 * Time-stepped simulator for host-fed processor arrays.
 *
 * The dataflows of Section 4 decompose into macro-steps: a block of
 * words enters through the boundary, every PE computes on it, results
 * eventually stream back out. With double buffering the host channel
 * and the PEs overlap; the simulator plays the steps through a
 * two-stage pipeline (channel -> PE ranks) and reports how busy the
 * PEs were. Searching the smallest per-PE memory that reaches a
 * target utilization reproduces Fig. 3 / Fig. 4 empirically.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace kb {

/** One macro-step of an array dataflow, played @p repeat times. */
struct StepWorkload
{
    double input_words = 0.0;  ///< words entering via the boundary
    double output_words = 0.0; ///< words leaving via the boundary
    double ops_per_pe = 0.0;   ///< work each PE performs this step
    std::uint64_t repeat = 1;  ///< consecutive identical copies
};

/** Machine parameters of the array. */
struct ArrayMachine
{
    std::uint64_t pe_count = 1;        ///< total PEs
    double ops_per_cycle = 1.0;        ///< per-PE compute rate
    double host_words_per_cycle = 1.0; ///< aggregate boundary bandwidth
    double hop_latency_cycles = 1.0;   ///< neighbor forwarding latency
    std::uint64_t pipeline_depth = 1;  ///< hops from boundary to the
                                       ///< farthest PE
};

/** Outcome of simulating a step sequence. */
struct ArraySimResult
{
    double cycles = 0.0;         ///< makespan
    double compute_cycles = 0.0; ///< per-PE busy time (all PEs equal)
    double io_cycles = 0.0;      ///< channel busy time
    std::uint64_t steps = 0;

    /** Fraction of the makespan each PE spent computing. */
    double
    utilization() const
    {
        return cycles > 0.0 ? compute_cycles / cycles : 1.0;
    }
};

/**
 * Play @p steps through the double-buffered pipeline: step k's input
 * transfer overlaps step k-1's compute; a step's compute starts only
 * after its words have crossed the pipeline. A step with repeat r is
 * played r times in a row, in the same floating-point order as r
 * separate entries.
 */
ArraySimResult simulateArray(const ArrayMachine &machine,
                             const std::vector<StepWorkload> &steps);

/**
 * Smallest per-PE memory in [lo, hi] whose simulated utilization
 * reaches @p target, by binary search (utilization is monotone in
 * memory for all our dataflows). Returns hi+1 if even hi fails.
 *
 * @param run maps a per-PE memory budget to a simulation result
 */
std::uint64_t minMemoryForUtilization(
    const std::function<ArraySimResult(std::uint64_t)> &run,
    double target, std::uint64_t lo, std::uint64_t hi);

} // namespace kb
