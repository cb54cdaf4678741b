/**
 * @file
 * Matrix multiplication (Section 3.1).
 *
 * Decomposition scheme: the product C = A * B of two N x N matrices
 * is computed one b x b tile of C at a time, with b the largest tile
 * that fits (tile + one column strip of A + one row strip of B) in M
 * words. For every k the schedule streams a b-word strip of A and a
 * b-word strip of B through the PE and accumulates into the resident
 * C tile.
 *
 * Costs per tile: Ccomp = 2 N b^2, Cio = 2 N b + b^2, so
 * R(M) = Ccomp/Cio ~ b ~ sqrt(M) and the rebalancing law is
 * M_new = alpha^2 * M_old. Hong & Kung (1981) show this is
 * order-optimal over all schedules (see the pebble module).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "kernels/kernel.hpp"

namespace kb {

/** Dense N x N matrix multiplication, paper Section 3.1. */
class MatmulKernel : public Kernel
{
  public:
    std::string name() const override { return "matmul"; }

    std::string
    description() const override
    {
        return "N x N matrix multiplication, tiled for M words";
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

    /**
     * Largest tile edge b with b^2 + 2b <= m (at least 1).
     * Exposed for tests and for the E8/E9 array workloads.
     */
    static std::uint64_t tileSize(std::uint64_t m);
};

/** Reference O(N^3) triple loop, exposed for tests. */
std::vector<double> matmulReference(const std::vector<double> &a,
                                    const std::vector<double> &b,
                                    std::uint64_t n);

/** Deterministic input matrix used by measure() (row-major N x N). */
std::vector<double> matmulInput(std::uint64_t n, std::uint64_t seed);

} // namespace kb
