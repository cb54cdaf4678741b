/**
 * @file
 * Matrix-vector multiplication (Section 3.6) — the canonical
 * I/O-bounded computation.
 *
 * y = A x reads every element of A exactly once (N^2 words) and
 * performs 2 N^2 operations, so R(M) <= 2 no matter how large the
 * local memory: after a constant, enlarging M buys nothing, and a PE
 * whose C/IO grew by alpha >= 2 can never be rebalanced by memory
 * alone. Law: Impossible.
 *
 * The schedule keeps a row-block of y resident (M - 2 words) and
 * streams x and the matching rows of A.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "kernels/kernel.hpp"

namespace kb {

/** Dense N x N matrix-vector product, paper Section 3.6. */
class MatvecKernel : public Kernel
{
  public:
    std::string name() const override { return "matvec"; }

    std::string
    description() const override
    {
        return "N x N matrix-vector product (I/O bounded)";
    }

    ScalingLaw law() const override { return ScalingLaw::impossible(); }

    double asymptoticRatio(std::uint64_t m) const override;
    WorkloadCost analyticCosts(std::uint64_t n,
                               std::uint64_t m) const override;
    MeasuredCost measure(std::uint64_t n, std::uint64_t m,
                         bool verify = true) const override;
    void emitTrace(std::uint64_t n, std::uint64_t m,
                   TraceSink &sink) const override;
    std::uint64_t minMemory(std::uint64_t n) const override;
    std::uint64_t suggestProblemSize(std::uint64_t m_max) const override;

    void
    defaultSweepRange(std::uint64_t &m_lo,
                      std::uint64_t &m_hi) const override
    {
        m_lo = 8;
        m_hi = 8192;
    }

    /** Resident y-block length: m - 2 (one x word, one A word). */
    static std::uint64_t blockRows(std::uint64_t m);
};

/** Reference y = A x, exposed for tests. */
std::vector<double> matvecReference(const std::vector<double> &a,
                                    const std::vector<double> &x,
                                    std::uint64_t n);

} // namespace kb
