/**
 * @file
 * 9-point (Moore) 2-D stencil, single-sweep blocked — a plug-in
 * kernel beyond the paper's twelve computations.
 *
 * The paper's grid computations (Section 3.3) get R(M) ~ M^(1/d)
 * from trapezoidal TIME tiling: tau sweeps amortize each block
 * transfer. This kernel deliberately runs the complementary
 * schedule: every sweep loads an (s+2)x(s+2) extended block, applies
 * ONE 9-point Moore update to the s x s core, and stores the core.
 * Per core cell that is ~2 words of traffic for a constant number of
 * operations, so
 *
 *   R(M) = 12 s^2 / ((s+2)^2 + s^2)  ->  6 - O(1/s),
 *
 * flat in M — an I/O-bounded computation in Kung's Section 3.6 sense
 * despite being "a grid computation". It exists to grow the scenario
 * zoo (the registry's plug-in path: this file registers itself via
 * KernelRegistrar with zero edits to core, engine, or bench code)
 * and to document that the balance laws come from the schedule, not
 * the operator: the same stencil time-tiled (grid2d) rebalances with
 * alpha^2, single-swept it cannot rebalance at all.
 *
 * The update is next[i][j] = (4*cur[i][j] + sum of the 8 Moore
 * neighbors) / 12 with zero (absorbing) boundary; the blocked
 * schedule computes every cell with the identical expression in the
 * identical order as the reference sweep, so verification is exact.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "kernels/kernel.hpp"

namespace kb {

/** Single-sweep blocked 9-point Moore stencil on a g x g grid. */
class Stencil9Kernel : public Kernel
{
  public:
    /** @param iterations sweeps T performed by measure()/emitTrace(). */
    explicit Stencil9Kernel(std::uint64_t iterations = 4);

    std::string name() const override { return "stencil9"; }

    std::string
    description() const override
    {
        return "9-point Moore stencil, single-sweep blocked "
               "(I/O-bounded; plug-in beyond the paper)";
    }

    ScalingLaw
    law() const override
    {
        return ScalingLaw::impossible(); // flat R(M): Section 3.6
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
    void defaultSweepRange(std::uint64_t &m_lo,
                           std::uint64_t &m_hi) const override;

    std::uint64_t iterations() const { return iterations_; }

    /** Core block edge s: largest s with (s+2)^2 + s^2 <= m. */
    std::uint64_t coreEdge(std::uint64_t m) const;

  private:
    std::uint64_t iterations_;
};

/** Reference: @p t full Moore-stencil sweeps over a g^2 grid (zero
 *  boundary), starting from @p grid. Exposed for tests. */
std::vector<double> stencil9Reference(std::vector<double> grid,
                                      std::uint64_t g, std::uint64_t t);

/** Deterministic initial grid contents (g^2 values). */
std::vector<double> stencil9Input(std::uint64_t g, std::uint64_t seed);

} // namespace kb
