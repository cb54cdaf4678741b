/**
 * @file
 * Fast Fourier transform (Section 3.4, Fig. 2).
 *
 * Decomposition scheme: recursive four-step external FFT. A transform
 * of n points with local memory M proceeds as
 *
 *   transpose -> n2 column FFTs (recursively) -> twiddle scale ->
 *   transpose -> n1 row FFTs (recursively) -> transpose
 *
 * with n = n1 * n2, n1 ~ sqrt(n). Blocks of at most P = 2^floor(lg M)
 * points are transformed entirely inside the PE — these are exactly
 * the "subcomputation blocks" of the paper's Fig. 2, and the external
 * transposes are its "shuffles". Every pass streams the whole array,
 * and there are Theta(log n / log M) passes, so
 *
 *   R(M) = Ccomp/Cio ~ (5 n lg n) / (c n log_M n) = Theta(log2 M)
 *
 * and rebalancing needs M_new = M_old^alpha.
 *
 * One word = one complex sample (the paper's words are abstract).
 * Twiddle factors are generated on the fly and not charged against M,
 * mirroring 1980s FFT engines with on-chip coefficient generation.
 */

#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "kernels/kernel.hpp"

namespace kb {

/** Summary of the external FFT's block structure (paper Fig. 2). */
struct FftDecomposition
{
    std::uint64_t n = 0;            ///< transform size
    std::uint64_t memory = 0;       ///< local memory M
    std::uint64_t blocks = 0;       ///< in-core subcomputation blocks
    std::uint64_t max_block = 0;    ///< largest in-core block (<= P)
    std::uint64_t shuffles = 0;     ///< external transpose passes
    std::uint64_t shuffle_words = 0;///< words moved by the shuffles
    std::uint64_t levels = 0;       ///< recursion depth reached
};

/** N-point radix-2 FFT with the four-step external decomposition. */
class FftKernel : public Kernel
{
  public:
    std::string name() const override { return "fft"; }

    std::string
    description() const override
    {
        return "N-point FFT, four-step external decomposition";
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

    /** Paper regime: n = P(M)^2, two decomposition ranks per point. */
    std::uint64_t
    regimeProblemSize(std::uint64_t /*n_hint*/,
                      std::uint64_t m) const override
    {
        const std::uint64_t p = inCorePoints(m);
        return p * p;
    }

    void
    defaultSweepRange(std::uint64_t &m_lo,
                      std::uint64_t &m_hi) const override
    {
        m_lo = 8;
        m_hi = 1024;
    }

    /**
     * Run the decomposition bookkeeping only (cheap) and report the
     * block/shuffle structure — regenerates Fig. 2 for n=16, M=4.
     */
    FftDecomposition decompose(std::uint64_t n, std::uint64_t m) const;

    /** In-core points P = largest power of two <= m. */
    static std::uint64_t inCorePoints(std::uint64_t m);
};

/** Naive O(n^2) DFT reference, exposed for tests. */
std::vector<std::complex<double>>
dftReference(const std::vector<std::complex<double>> &x);

/** Plain full-size iterative radix-2 FFT, exposed for tests. */
void fftReferenceInPlace(std::vector<std::complex<double>> &x);

/** Deterministic complex input used by measure(). */
std::vector<std::complex<double>> fftInput(std::uint64_t n,
                                           std::uint64_t seed);

} // namespace kb
