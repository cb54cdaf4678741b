/**
 * @file
 * Sorting (Section 3.5).
 *
 * Two-phase external merge sort of N keys with local memory M:
 *
 *   Phase 1: sort ceil(N/M) runs of M keys in-core
 *            (Ccomp = O(M log2 M), Cio = 2M per run);
 *   Phase 2: (M-1)-way merge with an in-core heap — each word of
 *            output costs one word in, one word out, and O(log2 M)
 *            comparisons.
 *
 * Both phases give R(M) = Theta(log2 M) comparisons per word, so the
 * law is M_new = M_old^alpha, the same exponential blow-up as the
 * FFT. Song (1981) shows this is optimal for comparison sorting.
 *
 * Operations counted are key comparisons (the paper's unit for
 * sorting).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "kernels/kernel.hpp"

namespace kb {

/** External two-phase merge sort of N 64-bit keys. */
class SortKernel : public Kernel
{
  public:
    std::string name() const override { return "sorting"; }

    std::string
    description() const override
    {
        return "external two-phase merge sort (M-way heap merge)";
    }

    ScalingLaw law() const override { return ScalingLaw::exponential(); }

    double asymptoticRatio(std::uint64_t m) const override;
    WorkloadCost analyticCosts(std::uint64_t n,
                               std::uint64_t m) const override;
    MeasuredCost measure(std::uint64_t n, std::uint64_t m,
                         bool verify = true) const override;
    void emitTrace(std::uint64_t n, std::uint64_t m,
                   TraceSink &sink) const override;
    std::uint64_t minMemory(std::uint64_t n) const override;
    std::uint64_t suggestProblemSize(std::uint64_t m_max) const override;

    /** Paper regime: n = M^2 (the two-phase setting). */
    std::uint64_t
    regimeProblemSize(std::uint64_t /*n_hint*/,
                      std::uint64_t m) const override
    {
        return m * m;
    }

    void
    defaultSweepRange(std::uint64_t &m_lo,
                      std::uint64_t &m_hi) const override
    {
        m_lo = 32;
        m_hi = 1024;
    }
};

/** Deterministic keys used by measure(). */
std::vector<std::uint64_t> sortInput(std::uint64_t n, std::uint64_t seed);

/**
 * In-core bottom-up merge sort that counts comparisons; exposed for
 * tests. @return number of key comparisons performed.
 */
std::uint64_t countingMergeSort(std::vector<std::uint64_t> &keys);

} // namespace kb
