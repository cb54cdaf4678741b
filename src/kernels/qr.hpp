/**
 * @file
 * Orthogonal triangularization (Section 3.2's second family): QA = U
 * with Q orthogonal — the key step for least-squares solutions and
 * the QR eigenvalue algorithm. The paper names Givens rotations; any
 * orthogonal factorization has the same blocked balance structure,
 * and this implementation uses blocked modified Gram-Schmidt:
 *
 *   * panels of b = sqrt(M/3) columns;
 *   * projection of a panel against every previous panel is two
 *     tiled matrix products (W = Q_P^T A_K; A_K -= Q_P W) with a
 *     resident b x b W tile — Ccomp = Theta(n b^2), Cio = Theta(n b)
 *     per panel pair;
 *   * in-panel orthogonalization streams column pairs (lower order).
 *
 * Totals: Ccomp = Theta(N^3), Cio = Theta(N^3 / b), so
 * R(M) = Theta(sqrt(M)) and the law is M_new = alpha^2 M_old —
 * matching Gaussian elimination, as Section 3.2 asserts.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "kernels/kernel.hpp"

namespace kb {

/** Blocked MGS QR factorization of an N x N matrix. */
class QrKernel : public Kernel
{
  public:
    std::string name() const override { return "qr"; }

    std::string
    description() const override
    {
        return "orthogonal triangularization (blocked MGS QR)";
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
        m_lo = 27;
        m_hi = 300;
    }

    /** Panel width b with 3 b^2 <= m (at least 1). */
    static std::uint64_t panelWidth(std::uint64_t m);
};

} // namespace kb
