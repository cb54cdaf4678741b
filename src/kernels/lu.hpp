/**
 * @file
 * Matrix triangularization (Section 3.2).
 *
 * Scheme: blocked right-looking LU factorization (Gaussian
 * elimination without pivoting) with b x b tiles, b = sqrt(M/3): each
 * step factors a diagonal block, forms the L and U panels, and
 * applies the trailing update three tiles at a time (C, L, U resident
 * simultaneously).
 *
 * Per step with t remaining tile rows: Ccomp = Theta(N^2 b),
 * Cio = Theta(N^2), so R(M) ~ b ~ sqrt(M) and the law is
 * M_new = alpha^2 * M_old, matching matrix multiplication.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "kernels/kernel.hpp"

namespace kb {

/** Blocked LU factorization of an N x N matrix, paper Section 3.2. */
class LuKernel : public Kernel
{
  public:
    std::string name() const override { return "triangularization"; }

    std::string
    description() const override
    {
        return "blocked LU factorization (Gaussian elimination)";
    }

    ScalingLaw law() const override { return ScalingLaw::power(2.0); }

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
        m_lo = 48;
        m_hi = 4096;
    }

    /** Largest tile edge b with 3 b^2 <= m (at least 1). */
    static std::uint64_t tileSize(std::uint64_t m);
};

/**
 * Deterministic diagonally dominant input matrix (unpivoted LU is
 * stable on it); row-major N x N.
 */
std::vector<double> luInput(std::uint64_t n, std::uint64_t seed);

/**
 * Unblocked reference LU (in place, no pivoting), exposed for tests.
 */
void luReference(std::vector<double> &a, std::uint64_t n);

} // namespace kb
