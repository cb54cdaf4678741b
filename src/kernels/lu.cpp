#include "kernels/lu.hpp"

#include "kernels/registry.hpp"

#include <algorithm>
#include <cmath>

#include "mem/scratchpad.hpp"
#include "trace/layout.hpp"
#include "util/intmath.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace kb {

namespace {

constexpr std::uint64_t kVerifyLimit = 320;

/** Host view of one tile of the in-place factored matrix. */
struct TileRef
{
    std::uint64_t r0, c0, rows, cols;
};

} // namespace

std::uint64_t
LuKernel::tileSize(std::uint64_t m)
{
    return std::max<std::uint64_t>(isqrt(m / 3), 1);
}

std::uint64_t
LuKernel::minMemory(std::uint64_t) const
{
    return 3; // b = 1: three one-word tiles
}

std::uint64_t
LuKernel::suggestProblemSize(std::uint64_t m_max) const
{
    const std::uint64_t b = tileSize(m_max);
    return std::clamp<std::uint64_t>(4 * b, 64, 384);
}

double
LuKernel::asymptoticRatio(std::uint64_t m) const
{
    // Trailing update dominates: 2 b^3 ops per 3 b^2 moved words.
    return (2.0 / 3.0) * static_cast<double>(tileSize(m));
}

WorkloadCost
LuKernel::analyticCosts(std::uint64_t n, std::uint64_t m) const
{
    const double b = static_cast<double>(tileSize(m));
    const double dn = static_cast<double>(n);
    WorkloadCost cost;
    cost.comp_ops = (2.0 / 3.0) * dn * dn * dn;
    cost.io_words = dn * dn * dn / b + 2.0 * dn * dn;
    return cost;
}

std::vector<double>
luInput(std::uint64_t n, std::uint64_t seed)
{
    Xoshiro256 rng(seed);
    std::vector<double> a(n * n);
    for (auto &x : a)
        x = 2.0 * rng.uniform() - 1.0;
    // Diagonal dominance keeps unpivoted elimination stable.
    for (std::uint64_t i = 0; i < n; ++i)
        a[i * n + i] += static_cast<double>(n);
    return a;
}

void
luReference(std::vector<double> &a, std::uint64_t n)
{
    for (std::uint64_t k = 0; k < n; ++k) {
        for (std::uint64_t i = k + 1; i < n; ++i) {
            a[i * n + k] /= a[k * n + k];
            const double lik = a[i * n + k];
            for (std::uint64_t j = k + 1; j < n; ++j)
                a[i * n + j] -= lik * a[k * n + j];
        }
    }
}

MeasuredCost
LuKernel::measure(std::uint64_t n, std::uint64_t m, bool verify) const
{
    KB_REQUIRE(n >= 1, "LU needs n >= 1");
    KB_REQUIRE(m >= minMemory(n), "LU needs m >= 3");

    const std::uint64_t b = tileSize(m);
    std::vector<double> a = luInput(n, 0x1u);
    const std::vector<double> original = a;

    Scratchpad pad(m);
    std::uint64_t ops = 0;

    auto tile_words = [&](const TileRef &t) { return t.rows * t.cols; };

    for (std::uint64_t k0 = 0; k0 < n; k0 += b) {
        const std::uint64_t tk = std::min(b, n - k0);

        // Factor the diagonal block in place: D = L_D * U_D. The
        // block stays resident through both panel phases (the
        // triangular solves read it), then is freed before the
        // trailing update so the three-tile working set fits.
        {
        ScopedBuffer d_buf(pad, tk * tk, "diag block");
        d_buf.load();
        for (std::uint64_t j = 0; j < tk; ++j) {
            const double piv = a[(k0 + j) * n + (k0 + j)];
            for (std::uint64_t i = j + 1; i < tk; ++i) {
                a[(k0 + i) * n + (k0 + j)] /= piv;
                ops += 1;
                const double lij = a[(k0 + i) * n + (k0 + j)];
                for (std::uint64_t jj = j + 1; jj < tk; ++jj) {
                    a[(k0 + i) * n + (k0 + jj)] -=
                        lij * a[(k0 + j) * n + (k0 + jj)];
                    ops += 2;
                }
            }
        }
        d_buf.store();

        // L panel: A[i0][k0] <- A[i0][k0] * U_D^{-1} (solve X U = A).
        for (std::uint64_t i0 = k0 + tk; i0 < n; i0 += b) {
            const TileRef t{i0, k0, std::min(b, n - i0), tk};
            ScopedBuffer x_buf(pad, tile_words(t), "L panel tile");
            x_buf.load();
            for (std::uint64_t i = 0; i < t.rows; ++i) {
                for (std::uint64_t j = 0; j < tk; ++j) {
                    double acc = a[(i0 + i) * n + (k0 + j)];
                    for (std::uint64_t l = 0; l < j; ++l) {
                        acc -= a[(i0 + i) * n + (k0 + l)] *
                               a[(k0 + l) * n + (k0 + j)];
                        ops += 2;
                    }
                    a[(i0 + i) * n + (k0 + j)] =
                        acc / a[(k0 + j) * n + (k0 + j)];
                    ops += 1;
                }
            }
            x_buf.store();
        }

        // U panel: A[k0][j0] <- L_D^{-1} * A[k0][j0].
        for (std::uint64_t j0 = k0 + tk; j0 < n; j0 += b) {
            const TileRef t{k0, j0, tk, std::min(b, n - j0)};
            ScopedBuffer x_buf(pad, tile_words(t), "U panel tile");
            x_buf.load();
            for (std::uint64_t j = 0; j < t.cols; ++j) {
                for (std::uint64_t i = 0; i < tk; ++i) {
                    double acc = a[(k0 + i) * n + (j0 + j)];
                    for (std::uint64_t l = 0; l < i; ++l) {
                        acc -= a[(k0 + i) * n + (k0 + l)] *
                               a[(k0 + l) * n + (j0 + j)];
                        ops += 2;
                    }
                    a[(k0 + i) * n + (j0 + j)] = acc;
                }
            }
            x_buf.store();
        }

        pad.compute(ops);
        ops = 0;
        }

        // Trailing update: C -= L * U, keeping each L tile resident
        // across the row of C tiles it feeds.
        for (std::uint64_t i0 = k0 + tk; i0 < n; i0 += b) {
            const std::uint64_t ti = std::min(b, n - i0);
            ScopedBuffer l_buf(pad, ti * tk, "L tile");
            l_buf.load();
            for (std::uint64_t j0 = k0 + tk; j0 < n; j0 += b) {
                const std::uint64_t tj = std::min(b, n - j0);
                ScopedBuffer u_buf(pad, tk * tj, "U tile");
                ScopedBuffer c_buf(pad, ti * tj, "C tile");
                u_buf.load();
                c_buf.load();
                for (std::uint64_t i = 0; i < ti; ++i) {
                    for (std::uint64_t l = 0; l < tk; ++l) {
                        const double lil = a[(i0 + i) * n + (k0 + l)];
                        for (std::uint64_t j = 0; j < tj; ++j)
                            a[(i0 + i) * n + (j0 + j)] -=
                                lil * a[(k0 + l) * n + (j0 + j)];
                    }
                }
                pad.compute(2 * ti * tk * tj);
                c_buf.store();
            }
        }
    }

    MeasuredCost out;
    out.cost.comp_ops = static_cast<double>(pad.stats().comp_ops);
    out.cost.io_words = static_cast<double>(pad.stats().ioWords());
    out.peak_memory = pad.stats().peak_usage;

    if (verify && n <= kVerifyLimit) {
        // Reconstruct L * U and compare against the original matrix.
        double max_err = 0.0;
        for (std::uint64_t i = 0; i < n; ++i) {
            for (std::uint64_t j = 0; j < n; ++j) {
                double acc = 0.0;
                const std::uint64_t kmax = std::min(i, j + 1);
                for (std::uint64_t k = 0; k < kmax; ++k)
                    acc += a[i * n + k] * a[k * n + j]; // L(i,k) U(k,j)
                if (i <= j)
                    acc += a[i * n + j]; // unit diagonal of L
                max_err = std::max(
                    max_err, std::fabs(acc - original[i * n + j]));
            }
        }
        KB_ASSERT(max_err <= 1e-8 * static_cast<double>(n),
                  "blocked LU diverges from A = L*U");
        out.verified = true;
    }
    return out;
}

void
LuKernel::emitTrace(std::uint64_t n, std::uint64_t m,
                    TraceSink &sink) const
{
    KB_REQUIRE(m >= minMemory(n), "LU needs m >= 3");
    const std::uint64_t b = tileSize(m);
    const MatrixLayout la(0, n, n);

    // Tile rows are contiguous in the row-major layout, so each tile
    // is emitted as one run per row.
    auto read_tile = [&](std::uint64_t r0, std::uint64_t c0,
                         std::uint64_t rows, std::uint64_t cols) {
        for (std::uint64_t i = 0; i < rows; ++i)
            sink.onRun(la.at(r0 + i, c0), cols, AccessType::Read);
    };
    auto write_tile = [&](std::uint64_t r0, std::uint64_t c0,
                          std::uint64_t rows, std::uint64_t cols) {
        for (std::uint64_t i = 0; i < rows; ++i)
            sink.onRun(la.at(r0 + i, c0), cols, AccessType::Write);
    };

    for (std::uint64_t k0 = 0; k0 < n; k0 += b) {
        const std::uint64_t tk = std::min(b, n - k0);
        read_tile(k0, k0, tk, tk);
        write_tile(k0, k0, tk, tk);
        for (std::uint64_t i0 = k0 + tk; i0 < n; i0 += b) {
            const std::uint64_t ti = std::min(b, n - i0);
            read_tile(i0, k0, ti, tk);
            write_tile(i0, k0, ti, tk);
        }
        for (std::uint64_t j0 = k0 + tk; j0 < n; j0 += b) {
            const std::uint64_t tj = std::min(b, n - j0);
            read_tile(k0, j0, tk, tj);
            write_tile(k0, j0, tk, tj);
        }
        for (std::uint64_t i0 = k0 + tk; i0 < n; i0 += b) {
            const std::uint64_t ti = std::min(b, n - i0);
            read_tile(i0, k0, ti, tk);
            for (std::uint64_t j0 = k0 + tk; j0 < n; j0 += b) {
                const std::uint64_t tj = std::min(b, n - j0);
                read_tile(k0, j0, tk, tj);
                read_tile(i0, j0, ti, tj);
                write_tile(i0, j0, ti, tj);
            }
        }
    }
}


namespace {

const KernelRegistrar kRegistrar{
    "triangularization", [] { return std::make_unique<LuKernel>(); }, 1,
    /*compute_bound=*/true};

} // namespace

} // namespace kb
