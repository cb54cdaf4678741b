#include "kernels/fft.hpp"

#include "kernels/registry.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "mem/scratchpad.hpp"
#include "util/intmath.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace kb {

namespace {

using cd = std::complex<double>;

constexpr std::uint64_t kNaiveVerifyLimit = 2048;
constexpr std::uint64_t kRefVerifyLimit = 1u << 21;

/**
 * Shared context of one external-FFT execution: the scratchpad doing
 * capacity enforcement and cost accounting, plus optional trace and
 * decomposition observers. With `numerics` off the walk bills and
 * traces the same schedule but moves no values: the data pointers it
 * passes around are null.
 */
struct FftContext
{
    Scratchpad &pad;
    std::uint64_t in_core; ///< P: max in-core transform size
    bool numerics = false; ///< compute the transform's values
    TraceSink *sink = nullptr;
    FftDecomposition *dump = nullptr;
    std::uint64_t next_addr = 0; ///< bump allocator for trace addresses

    std::uint64_t
    allocAddrs(std::uint64_t words)
    {
        const std::uint64_t base = next_addr;
        next_addr += words;
        return base;
    }

    void
    traceRange(std::uint64_t base, std::uint64_t words, AccessType type)
    {
        if (sink)
            sink->onRun(base, words, type);
    }
};

/** Pointer to @p v[off], or null when @p v is empty (no numerics). */
cd *
at(std::vector<cd> &v, std::uint64_t off)
{
    return v.empty() ? nullptr : v.data() + off;
}

/** In-place iterative radix-2 DIT FFT over a contiguous segment. */
void
inCoreFft(cd *a, std::uint64_t n)
{
    // Bit-reversal permutation.
    for (std::uint64_t i = 1, j = 0; i < n; ++i) {
        std::uint64_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            std::swap(a[i], a[j]);
    }
    for (std::uint64_t len = 2; len <= n; len <<= 1) {
        const double ang =
            -2.0 * std::numbers::pi / static_cast<double>(len);
        const cd wlen(std::cos(ang), std::sin(ang));
        for (std::uint64_t i = 0; i < n; i += len) {
            cd w(1.0, 0.0);
            for (std::uint64_t j = 0; j < len / 2; ++j) {
                const cd u = a[i + j];
                const cd v = a[i + j + len / 2] * w;
                a[i + j] = u + v;
                a[i + j + len / 2] = u - v;
                w *= wlen;
            }
        }
    }
}

/** 10 real flops per butterfly, (n/2) lg n butterflies. */
std::uint64_t
inCoreFftOps(std::uint64_t n)
{
    return n <= 1 ? 0 : 5ull * n * floorLog2(n);
}

/**
 * Blocked external transpose: dst[c * rows + r] = src[r * cols + c].
 * Streams square-ish tiles through the scratchpad; 2*rows*cols words
 * of I/O.
 */
void
extTranspose(FftContext &ctx, const cd *src, std::uint64_t src_addr,
             cd *dst, std::uint64_t dst_addr, std::uint64_t rows,
             std::uint64_t cols)
{
    const std::uint64_t t =
        std::max<std::uint64_t>(1, isqrt(ctx.pad.capacity()));
    for (std::uint64_t r0 = 0; r0 < rows; r0 += t) {
        const std::uint64_t tr = std::min(t, rows - r0);
        for (std::uint64_t c0 = 0; c0 < cols; c0 += t) {
            const std::uint64_t tc = std::min(t, cols - c0);
            ScopedBuffer tile(ctx.pad, tr * tc, "transpose tile");
            tile.load();
            for (std::uint64_t r = 0; r < tr; ++r)
                ctx.traceRange(src_addr + (r0 + r) * cols + c0, tc,
                               AccessType::Read);
            if (ctx.numerics)
                for (std::uint64_t r = 0; r < tr; ++r)
                    for (std::uint64_t c = 0; c < tc; ++c)
                        dst[(c0 + c) * rows + (r0 + r)] =
                            src[(r0 + r) * cols + (c0 + c)];
            tile.store();
            for (std::uint64_t c = 0; c < tc; ++c)
                ctx.traceRange(dst_addr + (c0 + c) * rows + r0, tr,
                               AccessType::Write);
        }
    }
    if (ctx.dump) {
        ++ctx.dump->shuffles;
        ctx.dump->shuffle_words += 2 * rows * cols;
    }
}

/**
 * Streamed twiddle pass: x[j2 * n1 + k1] *= w_n^{j2 * k1}, processed
 * in chunks of at most M words; 2*n words of I/O, 6 flops per word.
 */
void
extTwiddle(FftContext &ctx, cd *x, std::uint64_t addr, std::uint64_t n1,
           std::uint64_t n)
{
    const std::uint64_t chunk = ctx.pad.capacity();
    const double base_ang = -2.0 * std::numbers::pi / static_cast<double>(n);
    for (std::uint64_t off = 0; off < n; off += chunk) {
        const std::uint64_t len = std::min(chunk, n - off);
        ScopedBuffer buf(ctx.pad, len, "twiddle chunk");
        buf.load();
        ctx.traceRange(addr + off, len, AccessType::Read);
        if (ctx.numerics) {
            for (std::uint64_t i = 0; i < len; ++i) {
                const std::uint64_t j2 = (off + i) / n1;
                const std::uint64_t k1 = (off + i) % n1;
                const double ang =
                    base_ang * static_cast<double>(j2 * k1 % n);
                x[off + i] *= cd(std::cos(ang), std::sin(ang));
            }
        }
        ctx.pad.compute(6 * len);
        buf.store();
        ctx.traceRange(addr + off, len, AccessType::Write);
    }
}

/**
 * Recursive four-step external FFT over the contiguous segment
 * x[0, n); @p addr is the segment's base trace address.
 */
void
extFft(FftContext &ctx, cd *x, std::uint64_t addr, std::uint64_t n,
       std::uint64_t level)
{
    if (ctx.dump)
        ctx.dump->levels = std::max(ctx.dump->levels, level + 1);

    if (n <= ctx.in_core) {
        ScopedBuffer buf(ctx.pad, n, "in-core FFT block");
        buf.load();
        ctx.traceRange(addr, n, AccessType::Read);
        if (ctx.numerics)
            inCoreFft(x, n);
        ctx.pad.compute(inCoreFftOps(n));
        buf.store();
        ctx.traceRange(addr, n, AccessType::Write);
        if (ctx.dump) {
            ++ctx.dump->blocks;
            ctx.dump->max_block = std::max(ctx.dump->max_block, n);
        }
        return;
    }

    // Split off a full in-core factor: the column transforms become
    // leaf blocks of exactly P points and only the n/P-point rows
    // recurse, so the pass count is ceil(lg n / lg P) — the paper's
    // Theta(log_M N) decomposition depth.
    const std::uint64_t n1 = ctx.in_core;
    const std::uint64_t n2 = n / n1;

    // External scratch arrays (outside the PE; unbounded like the
    // host memory the external array itself lives in).
    std::vector<cd> y(ctx.numerics ? n : 0), z(ctx.numerics ? n : 0);
    const std::uint64_t y_addr = ctx.allocAddrs(n);
    const std::uint64_t z_addr = ctx.allocAddrs(n);

    // 1. y[j2][j1] = x[j1][j2]  (x viewed as n1 x n2 row-major).
    extTranspose(ctx, x, addr, at(y, 0), y_addr, n1, n2);

    // 2. Column DFTs: each y row (length n1) transformed in place.
    for (std::uint64_t j2 = 0; j2 < n2; ++j2)
        extFft(ctx, at(y, j2 * n1), y_addr + j2 * n1, n1, level + 1);

    // 3. Twiddle scale y[j2][k1] *= w_n^{j2 k1}.
    extTwiddle(ctx, at(y, 0), y_addr, n1, n);

    // 4. z[k1][j2] = y[j2][k1].
    extTranspose(ctx, at(y, 0), y_addr, at(z, 0), z_addr, n2, n1);

    // 5. Row DFTs: each z row (length n2) in place; z[k1][k2] is then
    //    X at output index k2 * n1 + k1.
    for (std::uint64_t k1 = 0; k1 < n1; ++k1)
        extFft(ctx, at(z, k1 * n2), z_addr + k1 * n2, n2, level + 1);

    // 6. Final shuffle into natural order: x[k2][k1] = z[k1][k2].
    extTranspose(ctx, at(z, 0), z_addr, x, addr, n1, n2);
}

} // namespace

std::uint64_t
FftKernel::inCorePoints(std::uint64_t m)
{
    KB_REQUIRE(m >= 4, "FFT needs m >= 4");
    return prevPow2(m);
}

std::uint64_t
FftKernel::minMemory(std::uint64_t) const
{
    return 4;
}

std::uint64_t
FftKernel::suggestProblemSize(std::uint64_t m_max) const
{
    // At least two decomposition levels above the largest memory.
    const std::uint64_t p = inCorePoints(m_max);
    return std::clamp<std::uint64_t>(nextPow2(p * p), 1u << 12,
                                     1u << 20);
}

double
FftKernel::asymptoticRatio(std::uint64_t m) const
{
    return static_cast<double>(floorLog2(inCorePoints(m)));
}

WorkloadCost
FftKernel::analyticCosts(std::uint64_t n, std::uint64_t m) const
{
    const double dn = static_cast<double>(n);
    const double lg_n = std::log2(dn);
    const double lg_p =
        static_cast<double>(floorLog2(inCorePoints(m)));
    WorkloadCost cost;
    cost.comp_ops = 5.0 * dn * lg_n;
    // ~8 words of traffic per element per decomposition level.
    cost.io_words = 8.0 * dn * std::max(1.0, lg_n / lg_p);
    return cost;
}

std::vector<cd>
fftInput(std::uint64_t n, std::uint64_t seed)
{
    Xoshiro256 rng(seed);
    std::vector<cd> x(n);
    for (auto &v : x)
        v = cd(2.0 * rng.uniform() - 1.0, 2.0 * rng.uniform() - 1.0);
    return x;
}

std::vector<cd>
dftReference(const std::vector<cd> &x)
{
    const std::uint64_t n = x.size();
    std::vector<cd> out(n);
    for (std::uint64_t k = 0; k < n; ++k) {
        cd acc(0.0, 0.0);
        for (std::uint64_t j = 0; j < n; ++j) {
            const double ang = -2.0 * std::numbers::pi *
                               static_cast<double>(j * k % n) /
                               static_cast<double>(n);
            acc += x[j] * cd(std::cos(ang), std::sin(ang));
        }
        out[k] = acc;
    }
    return out;
}

void
fftReferenceInPlace(std::vector<cd> &x)
{
    KB_REQUIRE(isPow2(x.size()), "FFT size must be a power of two");
    inCoreFft(x.data(), x.size());
}

MeasuredCost
FftKernel::measure(std::uint64_t n, std::uint64_t m, bool verify) const
{
    KB_REQUIRE(isPow2(n), "FFT size must be a power of two");
    KB_REQUIRE(m >= minMemory(n), "FFT needs m >= 4");

    // The values are computed only when they will be checked; the
    // scratchpad bills the same schedule either way.
    const bool check = verify && n <= kRefVerifyLimit;
    std::vector<cd> x, input;
    if (check) {
        x = fftInput(n, 0xF);
        input = x;
    }

    Scratchpad pad(m);
    FftContext ctx{pad, inCorePoints(m), check};
    ctx.next_addr = n;
    extFft(ctx, at(x, 0), 0, n, 0);

    MeasuredCost out;
    out.cost.comp_ops = static_cast<double>(pad.stats().comp_ops);
    out.cost.io_words = static_cast<double>(pad.stats().ioWords());
    out.peak_memory = pad.stats().peak_usage;

    if (check) {
        std::vector<cd> ref;
        if (n <= kNaiveVerifyLimit) {
            ref = dftReference(input);
        } else {
            ref = input;
            fftReferenceInPlace(ref);
        }
        double max_err = 0.0;
        for (std::uint64_t i = 0; i < n; ++i)
            max_err = std::max(max_err, std::abs(ref[i] - x[i]));
        KB_ASSERT(max_err <= 1e-9 * static_cast<double>(n),
                  "external FFT diverges from reference");
        out.verified = true;
    }
    return out;
}

void
FftKernel::emitTrace(std::uint64_t n, std::uint64_t m,
                     TraceSink &sink) const
{
    KB_REQUIRE(isPow2(n), "FFT size must be a power of two");
    KB_REQUIRE(m >= minMemory(n), "FFT needs m >= 4");

    Scratchpad pad(m);
    FftContext ctx{pad, inCorePoints(m), false, &sink};
    ctx.next_addr = n;
    extFft(ctx, nullptr, 0, n, 0);
}

FftDecomposition
FftKernel::decompose(std::uint64_t n, std::uint64_t m) const
{
    KB_REQUIRE(isPow2(n), "FFT size must be a power of two");
    KB_REQUIRE(m >= minMemory(n), "FFT needs m >= 4");

    Scratchpad pad(m);
    FftDecomposition dump;
    dump.n = n;
    dump.memory = m;
    FftContext ctx{pad, inCorePoints(m), false, nullptr, &dump};
    ctx.next_addr = n;
    extFft(ctx, nullptr, 0, n, 0);
    return dump;
}


namespace {

const KernelRegistrar kRegistrar{
    "fft", [] { return std::make_unique<FftKernel>(); }, 7,
    /*compute_bound=*/true};

} // namespace

} // namespace kb
