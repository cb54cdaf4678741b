/**
 * @file
 * Grid computation / relaxation (Section 3.3).
 *
 * The paper's multi-PE picture gives each PE a resident subgrid whose
 * halo is the only per-iteration I/O. The equivalent single-PE
 * schedule (N^d >> M) is trapezoidal time tiling: load a block with a
 * halo of width tau, run tau Jacobi sweeps locally (the valid region
 * shrinks by one cell per sweep on every side that is interior to the
 * grid), and write back the s^d core. With block edge e ~ (M/2)^(1/d)
 * and tau ~ e/4:
 *
 *   Ccomp/block ~ tau * e^d,  Cio/block ~ 2 e^d
 *   => R(M) ~ tau ~ M^(1/d)  => M_new = alpha^d * M_old.
 *
 * The update is a (2d+1)-point Jacobi stencil with zero (absorbing)
 * boundary; the blocked schedule reproduces the reference sweep
 * bit-for-bit because every cell is updated by the identical
 * expression in the identical order.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "kernels/kernel.hpp"

namespace kb {

/** d-dimensional Jacobi relaxation with trapezoidal time tiling. */
class GridKernel : public Kernel
{
  public:
    /**
     * @param dim        grid dimensionality d in [1, 4]
     * @param iterations total relaxation sweeps T performed by
     *                   measure()/emitTrace(); the asymptotic regime
     *                   needs T >= tau(M), so benches sweeping large M
     *                   should raise it
     */
    explicit GridKernel(unsigned dim, std::uint64_t iterations = 32);

    std::string name() const override;

    std::string
    description() const override
    {
        return "Jacobi relaxation on a d-dimensional grid, time-tiled";
    }

    ScalingLaw
    law() const override
    {
        return ScalingLaw::power(static_cast<double>(dim_));
    }

    double asymptoticRatio(std::uint64_t m) const override;
    WorkloadCost analyticCosts(std::uint64_t n,
                               std::uint64_t m) const override;
    MeasuredCost measure(std::uint64_t n, std::uint64_t m,
                         bool verify = true) const override;
    void emitTrace(std::uint64_t n, std::uint64_t m,
                   TraceSink &sink) const override;
    std::uint64_t minMemory(std::uint64_t n) const override;
    std::uint64_t suggestProblemSize(std::uint64_t m_max) const override;

    /**
     * Paper regime: steady-state per-iteration costs of the resident
     * subgrid, by differencing 8-sweep and 4-sweep runs (cancels the
     * one-time block load/store). Ignores @p n_hint.
     */
    RatioPoint measureRatioPoint(std::uint64_t n_hint,
                                 std::uint64_t m) const override;

    void defaultSweepRange(std::uint64_t &m_lo,
                           std::uint64_t &m_hi) const override;

    unsigned dim() const { return dim_; }
    std::uint64_t iterations() const { return iterations_; }

    /** Extended block edge e = largest with 2 e^d <= m. */
    std::uint64_t extendedEdge(std::uint64_t m) const;

    /** Temporal tile depth tau(M) = max(1, (e-1)/4). */
    std::uint64_t temporalDepth(std::uint64_t m) const;

    /** Resident subgrid edge s = largest with 2 s^d <= m. */
    std::uint64_t residentEdge(std::uint64_t m) const;

    /**
     * The paper's own Section 3.3 accounting: the PE permanently
     * stores an s^d subgrid (s = residentEdge(m)) and per iteration
     * exchanges only the halo with the outside world. Runs the real
     * arithmetic for a block of the @p n^d grid across iterations()
     * sweeps, with halo values supplied externally, and verifies the
     * block against the global reference sweep.
     *
     * R(M) is exactly Theta(s) = Theta(M^(1/d)) with no temporal
     * blocking redundancy — this is what the E4 law bench measures.
     */
    MeasuredCost measureResident(std::uint64_t n, std::uint64_t m,
                                 bool verify = true) const;

  private:
    unsigned dim_;
    std::uint64_t iterations_;
};

/**
 * Reference global Jacobi relaxation: @p t sweeps of the (2d+1)-point
 * stencil over a @p g^d grid (zero boundary), starting from @p grid.
 * Exposed for tests.
 */
std::vector<double> gridReference(std::vector<double> grid, unsigned dim,
                                  std::uint64_t g, std::uint64_t t);

/** Deterministic initial grid contents (g^d values). */
std::vector<double> gridInput(unsigned dim, std::uint64_t g,
                              std::uint64_t seed);

} // namespace kb
