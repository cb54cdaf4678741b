/**
 * @file
 * The computation zoo of Section 3.
 *
 * Every kernel provides three views of the same decomposition scheme:
 *
 *  1. analytic leading-order costs (the paper's formulas);
 *  2. an executable schedule that really computes the answer inside an
 *     explicitly managed scratchpad of M words, counting every word
 *     crossing the PE boundary and every arithmetic operation;
 *  3. a word-level memory trace of that schedule, replayable through
 *     any cache model.
 *
 * The benches compare (1) against (2)/(3) to validate the paper's
 * ratio shapes and rebalancing laws.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pe.hpp"
#include "core/scaling_law.hpp"
#include "trace/sink.hpp"

namespace kb {

/** Result of executing a kernel schedule under measurement. */
struct MeasuredCost
{
    WorkloadCost cost;             ///< counted Ccomp and Cio
    std::uint64_t peak_memory = 0; ///< scratchpad high-water mark
    bool verified = false;         ///< result checked against reference
};

/** One measured point of a kernel's R(M) curve. */
struct RatioPoint
{
    std::uint64_t m = 0;   ///< local memory size in words
    double ratio = 0.0;    ///< Ccomp / Cio at this point
    double comp_ops = 0.0; ///< counted operations
    double io_words = 0.0; ///< counted words across the PE boundary
};

/**
 * One of the paper's computations, packaged with its decomposition
 * scheme for a local memory of M words.
 *
 * Thread-safety contract: instances are immutable after construction.
 * Every method is const and must not mutate shared state (no mutable
 * members, no static caches), because the experiment engine hands one
 * shared instance to all of its worker threads and calls measure(),
 * emitTrace() and measureRatioPoint() concurrently.
 */
class Kernel
{
  public:
    virtual ~Kernel() = default;

    /** Short identifier, e.g. "matmul". */
    virtual std::string name() const = 0;

    /** One-line description for reports. */
    virtual std::string description() const = 0;

    /** The paper's rebalancing law for this computation. */
    virtual ScalingLaw law() const = 0;

    /**
     * Leading-order compute-to-I/O ratio R(M) from the paper's
     * analysis (e.g. sqrt(M) for matmul). Constant factors are
     * schedule-specific; only the shape is contractual.
     */
    virtual double asymptoticRatio(std::uint64_t m) const = 0;

    /**
     * The paper's leading-order cost formulas for problem size @p n
     * and local memory @p m.
     */
    virtual WorkloadCost analyticCosts(std::uint64_t n,
                                       std::uint64_t m) const = 0;

    /**
     * Execute the real computation with problem size @p n inside a
     * scratchpad of @p m words, counting operations and I/O words.
     *
     * @param n      problem size (kernel-specific meaning; see the
     *               concrete class)
     * @param m      local memory size in words; >= minMemory(n)
     * @param verify check the numeric result against a reference
     *               implementation (skipped automatically above a
     *               size threshold where the reference would dominate
     *               the run time; `verified` reports what happened)
     */
    virtual MeasuredCost measure(std::uint64_t n, std::uint64_t m,
                                 bool verify = true) const = 0;

    /**
     * Emit the word-level access trace of the same schedule.
     * Addresses of distinct logical arrays are disjoint.
     */
    virtual void emitTrace(std::uint64_t n, std::uint64_t m,
                           TraceSink &sink) const = 0;

    /** Smallest local memory for which the schedule is defined. */
    virtual std::uint64_t minMemory(std::uint64_t n) const = 0;

    /**
     * A problem size large enough that the asymptotic regime holds
     * when sweeping m up to @p m_max (the paper assumes N >> M).
     */
    virtual std::uint64_t suggestProblemSize(std::uint64_t m_max) const = 0;

    /**
     * The problem size this kernel's *paper regime* measures at one
     * sweep point: the fixed @p n_hint by default; kernels whose
     * regime couples the problem size to M override it (FFT:
     * n = P(M)^2, sorting: n = M^2). The engine uses it both for
     * measureRatioPoint's default and for trace replay, so the
     * schedule sample and the model columns of one sweep point
     * describe the same computation.
     */
    virtual std::uint64_t
    regimeProblemSize(std::uint64_t n_hint, std::uint64_t /*m*/) const
    {
        return n_hint;
    }

    /**
     * Measure one point of the R(M) curve in this kernel's *paper
     * regime*. The default measures at regimeProblemSize(n_hint, m);
     * kernels whose regime is not a plain measure() call (grids:
     * differenced resident-subgrid steady state) override it. Sweeps
     * and the experiment engine are built on this hook, so plug-in
     * kernels control their own regime.
     *
     * @param n_hint fixed problem size from suggestProblemSize(m_max)
     * @param m      local memory size; >= minMemory of the regime
     */
    virtual RatioPoint measureRatioPoint(std::uint64_t n_hint,
                                         std::uint64_t m) const;

    /**
     * Default [m_lo, m_hi] sweep bounds that keep every point in the
     * asymptotic regime and the whole sweep fast. Generic fallback is
     * [64, 8192]; the built-ins override with their tuned ranges.
     */
    virtual void defaultSweepRange(std::uint64_t &m_lo,
                                   std::uint64_t &m_hi) const
    {
        m_lo = 64;
        m_hi = 8192;
    }
};

/**
 * Identifiers for the paper's built-in kernels.
 *
 * This enum is a convenience alias layer over the name-keyed
 * KernelRegistry (see registry.hpp): the registry is the source of
 * truth, these ids exist so the paper's twelve computations can be
 * enumerated and switch-dispatched in analysis code. New plug-in
 * kernels get registry names only, no enum value.
 */
enum class KernelId
{
    MatMul,
    Triangularization,
    QR,
    Grid1D,
    Grid2D,
    Grid3D,
    Grid4D,
    Fft,
    Sort,
    MatVec,
    TriSolve,
    SpMV,
};

/** Name of a kernel id (matches Kernel::name()). */
const char *kernelIdName(KernelId id);

/** Id of a built-in kernel name; false if @p name is not a built-in
 *  (plug-in kernels have registry names but no id). */
bool kernelIdFromName(const std::string &name, KernelId &id);

/** Instantiate a kernel by id (via the registry). */
std::unique_ptr<Kernel> makeKernel(KernelId id);

/** Instantiate a kernel by registry name; fatal on unknown names. */
std::unique_ptr<Kernel> makeKernel(const std::string &name);

/** All built-in kernel ids, in the paper's presentation order. */
std::vector<KernelId> allKernelIds();

/** Kernel ids whose computations are compute-bounded (rebalanceable). */
std::vector<KernelId> computeBoundKernelIds();

} // namespace kb
