/**
 * @file
 * Solution of a triangular linear system (Section 3.6) — the paper's
 * second I/O-bounded example.
 *
 * Solving L x = b by forward substitution reads each of the ~N^2/2
 * elements of L exactly once and performs ~N^2 operations, so
 * R(M) <= 2 for every M: rebalancing by memory alone is impossible.
 *
 * The schedule computes x in blocks of ~sqrt(M) entries; previously
 * computed x blocks are re-streamed for the off-diagonal updates.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "kernels/kernel.hpp"

namespace kb {

/** Forward substitution on an N x N lower-triangular system. */
class TrisolveKernel : public Kernel
{
  public:
    std::string name() const override { return "trisolve"; }

    std::string
    description() const override
    {
        return "triangular solve by forward substitution (I/O bounded)";
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

    /** x-block length: largest b with b^2 + 2b <= m. */
    static std::uint64_t blockSize(std::uint64_t m);
};

/** Deterministic well-conditioned lower-triangular matrix (row-major,
 *  upper part zero). */
std::vector<double> trisolveInput(std::uint64_t n, std::uint64_t seed);

/** Reference forward substitution, exposed for tests. */
std::vector<double> trisolveReference(const std::vector<double> &l,
                                      const std::vector<double> &b,
                                      std::uint64_t n);

} // namespace kb
