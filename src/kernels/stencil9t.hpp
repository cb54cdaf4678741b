/**
 * @file
 * 9-point (Moore) 2-D stencil, TIME-TILED — the direct contrast to
 * the single-sweep stencil9 plug-in.
 *
 * stencil9 deliberately spends one extended-block transfer per single
 * Moore sweep, so its R(M) is flat (~6): an I/O-bounded computation
 * in Kung's Section 3.6 sense. This kernel runs the *same operator*
 * (identical update expression, identical reference) under the
 * complementary schedule: each extended block is loaded once and
 * advanced tau timesteps before its shrunken core is stored — the
 * trapezoidal time tiling of Section 3.3, applied to the Moore
 * neighborhood (whose halo also grows one cell per step per side).
 * Per core cell that is ~2/tau words of traffic for 12*tau
 * operations, so
 *
 *   R(M) ~ 6 tau,   tau ~ sqrt(M/2)/4   =>   R(M) ~ sqrt(M),
 *
 * and the alpha^2 rebalancing law applies — the pair documents that
 * the balance laws come from the SCHEDULE, not the operator: one
 * stencil, two schedules, one I/O-bounded and one rebalanceable.
 *
 * Like stencil9 it is a registry plug-in (KernelRegistrar, zero
 * edits to core, engine, or bench code) and it shares stencil9's
 * input and reference: T sweeps of next = (4*cur + sum of 8 Moore
 * neighbors) / 12 with zero (absorbing) boundary, so verification is
 * exact against stencil9Reference.
 */

#pragma once

#include <cstdint>

#include "kernels/kernel.hpp"

namespace kb {

/** Time-tiled blocked 9-point Moore stencil on a g x g grid. */
class Stencil9TimeTiledKernel : public Kernel
{
  public:
    /** @param iterations sweeps T performed by measure()/emitTrace();
     *  keep T >= temporalDepth(m_hi) or R(M) saturates at 6T. */
    explicit Stencil9TimeTiledKernel(std::uint64_t iterations = 12);

    std::string name() const override { return "stencil9t"; }

    std::string
    description() const override
    {
        return "9-point Moore stencil, time-tiled (R ~ sqrt(M); "
               "plug-in contrast to stencil9)";
    }

    ScalingLaw
    law() const override
    {
        return ScalingLaw::power(2.0); // R ~ sqrt(M): alpha^2
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

    /** Extended block edge e: two e^2 buffers must fit in m words. */
    std::uint64_t extendedEdge(std::uint64_t m) const;

    /** Timesteps tau advanced per block load (the tile depth). */
    std::uint64_t temporalDepth(std::uint64_t m) const;

  private:
    std::uint64_t iterations_;
};

} // namespace kb
