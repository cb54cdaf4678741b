#include "kernels/qr.hpp"

#include "kernels/registry.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/matmul.hpp" // matmulInput: shared deterministic data
#include "mem/scratchpad.hpp"
#include "trace/layout.hpp"
#include "util/intmath.hpp"
#include "util/logging.hpp"

namespace kb {

namespace {

constexpr std::uint64_t kVerifyLimit = 320;

} // namespace

std::uint64_t
QrKernel::panelWidth(std::uint64_t m)
{
    return std::max<std::uint64_t>(isqrt(m / 3), 1);
}

std::uint64_t
QrKernel::minMemory(std::uint64_t) const
{
    return 4; // b = 1: W word plus two one-word column tiles + slack
}

std::uint64_t
QrKernel::suggestProblemSize(std::uint64_t m_max) const
{
    // The in-panel orthogonalization streams Theta(n w^2) words per
    // panel against the projections' Theta(n^3 / w): the asymptotic
    // regime needs n >> w^2, i.e. problem sizes of at least ~4 w^2.
    const std::uint64_t b = panelWidth(m_max);
    return std::clamp<std::uint64_t>(4 * b * b, 64, 320);
}

double
QrKernel::asymptoticRatio(std::uint64_t m) const
{
    // 4 n b^2 ops per 5 n b + b^2 moved words per panel pair.
    return 0.8 * static_cast<double>(panelWidth(m));
}

WorkloadCost
QrKernel::analyticCosts(std::uint64_t n, std::uint64_t m) const
{
    const double b = static_cast<double>(panelWidth(m));
    const double dn = static_cast<double>(n);
    WorkloadCost cost;
    cost.comp_ops = 2.0 * dn * dn * dn;
    cost.io_words = 2.5 * dn * dn * dn / b + 4.0 * dn * dn;
    return cost;
}

MeasuredCost
QrKernel::measure(std::uint64_t n, std::uint64_t m, bool verify) const
{
    KB_REQUIRE(n >= 1, "QR needs n >= 1");
    KB_REQUIRE(m >= minMemory(n), "QR needs m >= 4");

    // Cap the panel width at sqrt(n): beyond that the in-panel
    // orthogonalization (Theta(n w^2) streamed words per panel)
    // would outweigh the tiled projections and the schedule would
    // leave the paper's N >> M regime.
    const std::uint64_t b =
        std::max<std::uint64_t>(1, std::min(panelWidth(m), isqrt(n)));
    const auto a_orig = matmulInput(n, 0x9E);
    std::vector<double> q = a_orig;      // columns become Q in place
    std::vector<double> r(n * n, 0.0);

    Scratchpad pad(m);

    for (std::uint64_t k0 = 0; k0 < n; k0 += b) {
        const std::uint64_t tb = std::min(b, n - k0);

        // Project the panel against every previous (orthonormal)
        // panel: W = Q_P^T A_K; R block = W; A_K -= Q_P W.
        for (std::uint64_t p0 = 0; p0 < k0; p0 += b) {
            const std::uint64_t pb = std::min(b, k0 - p0);
            ScopedBuffer w_buf(pad, pb * tb, "W block");
            std::vector<double> w(pb * tb, 0.0);

            for (std::uint64_t i0 = 0; i0 < n; i0 += b) {
                const std::uint64_t tr = std::min(b, n - i0);
                ScopedBuffer q_tile(pad, tr * pb, "Q tile");
                ScopedBuffer a_tile(pad, tr * tb, "A tile");
                q_tile.load();
                a_tile.load();
                for (std::uint64_t pj = 0; pj < pb; ++pj)
                    for (std::uint64_t kj = 0; kj < tb; ++kj)
                        for (std::uint64_t i = 0; i < tr; ++i)
                            w[pj * tb + kj] +=
                                q[(i0 + i) * n + (p0 + pj)] *
                                q[(i0 + i) * n + (k0 + kj)];
                pad.compute(2 * tr * pb * tb);
            }
            for (std::uint64_t pj = 0; pj < pb; ++pj)
                for (std::uint64_t kj = 0; kj < tb; ++kj)
                    r[(p0 + pj) * n + (k0 + kj)] = w[pj * tb + kj];
            w_buf.store();

            for (std::uint64_t i0 = 0; i0 < n; i0 += b) {
                const std::uint64_t tr = std::min(b, n - i0);
                ScopedBuffer q_tile(pad, tr * pb, "Q tile");
                ScopedBuffer a_tile(pad, tr * tb, "A tile");
                q_tile.load();
                a_tile.load();
                for (std::uint64_t i = 0; i < tr; ++i)
                    for (std::uint64_t pj = 0; pj < pb; ++pj)
                        for (std::uint64_t kj = 0; kj < tb; ++kj)
                            q[(i0 + i) * n + (k0 + kj)] -=
                                q[(i0 + i) * n + (p0 + pj)] *
                                w[pj * tb + kj];
                pad.compute(2 * tr * pb * tb);
                a_tile.store();
            }
        }

        // In-panel modified Gram-Schmidt, streaming columns through
        // two tile buffers.
        const std::uint64_t ct = std::max<std::uint64_t>(m / 2, 1);
        for (std::uint64_t j = k0; j < k0 + tb; ++j) {
            // Norm of column j (one streaming pass), then scale.
            double norm2 = 0.0;
            for (std::uint64_t i0 = 0; i0 < n; i0 += ct) {
                const std::uint64_t tr = std::min(ct, n - i0);
                ScopedBuffer col(pad, tr, "column tile");
                col.load();
                for (std::uint64_t i = 0; i < tr; ++i)
                    norm2 += q[(i0 + i) * n + j] * q[(i0 + i) * n + j];
                pad.compute(2 * tr);
            }
            const double norm = std::sqrt(norm2);
            KB_ASSERT(norm > 0.0, "rank-deficient QR input");
            r[j * n + j] = norm;
            for (std::uint64_t i0 = 0; i0 < n; i0 += ct) {
                const std::uint64_t tr = std::min(ct, n - i0);
                ScopedBuffer col(pad, tr, "column tile");
                col.load();
                for (std::uint64_t i = 0; i < tr; ++i)
                    q[(i0 + i) * n + j] /= norm;
                pad.compute(tr);
                col.store();
            }

            // Project q_j out of all remaining panel columns in two
            // streaming passes (one for the dots, one to update),
            // rather than a pair of passes per column.
            const std::uint64_t rest = k0 + tb - j - 1;
            if (rest == 0)
                continue;
            std::vector<double> dots(rest, 0.0);
            const std::uint64_t pt = std::max<std::uint64_t>(
                (m - rest) / (1 + rest), 1);
            ScopedBuffer dot_buf(pad, rest, "panel dots");
            for (std::uint64_t i0 = 0; i0 < n; i0 += pt) {
                const std::uint64_t tr = std::min(pt, n - i0);
                ScopedBuffer qa(pad, tr, "q tile");
                ScopedBuffer ca(pad, tr * rest, "panel tile");
                (void)ca; // capacity reserved; streamed column-wise
                qa.load();
                pad.load(ca.id(), tr * rest);
                for (std::uint64_t jj = 0; jj < rest; ++jj)
                    for (std::uint64_t i = 0; i < tr; ++i)
                        dots[jj] += q[(i0 + i) * n + j] *
                                    q[(i0 + i) * n + (j + 1 + jj)];
                pad.compute(2 * tr * rest);
            }
            for (std::uint64_t jj = 0; jj < rest; ++jj)
                r[j * n + (j + 1 + jj)] = dots[jj];
            dot_buf.store();
            for (std::uint64_t i0 = 0; i0 < n; i0 += pt) {
                const std::uint64_t tr = std::min(pt, n - i0);
                ScopedBuffer qa(pad, tr, "q tile");
                ScopedBuffer ca(pad, tr * rest, "panel tile");
                qa.load();
                pad.load(ca.id(), tr * rest);
                for (std::uint64_t jj = 0; jj < rest; ++jj)
                    for (std::uint64_t i = 0; i < tr; ++i)
                        q[(i0 + i) * n + (j + 1 + jj)] -=
                            dots[jj] * q[(i0 + i) * n + j];
                pad.compute(2 * tr * rest);
                pad.store(ca.id(), tr * rest);
            }
        }
    }

    MeasuredCost out;
    out.cost.comp_ops = static_cast<double>(pad.stats().comp_ops);
    out.cost.io_words = static_cast<double>(pad.stats().ioWords());
    out.peak_memory = pad.stats().peak_usage;

    if (verify && n <= kVerifyLimit) {
        // Orthogonality: max |Q^T Q - I|.
        double orth_err = 0.0;
        for (std::uint64_t c1 = 0; c1 < n; ++c1) {
            for (std::uint64_t c2 = c1; c2 < n; ++c2) {
                double dot = 0.0;
                for (std::uint64_t i = 0; i < n; ++i)
                    dot += q[i * n + c1] * q[i * n + c2];
                const double want = c1 == c2 ? 1.0 : 0.0;
                orth_err = std::max(orth_err, std::fabs(dot - want));
            }
        }
        KB_ASSERT(orth_err <= 1e-7 * static_cast<double>(n),
                  "QR lost orthogonality");
        // Reconstruction: max |Q R - A|.
        double rec_err = 0.0;
        for (std::uint64_t i = 0; i < n; ++i) {
            for (std::uint64_t jc = 0; jc < n; ++jc) {
                double acc = 0.0;
                for (std::uint64_t k = 0; k <= jc; ++k)
                    acc += q[i * n + k] * r[k * n + jc];
                rec_err = std::max(
                    rec_err, std::fabs(acc - a_orig[i * n + jc]));
            }
        }
        KB_ASSERT(rec_err <= 1e-8 * static_cast<double>(n),
                  "QR reconstruction diverges from A");
        out.verified = true;
    }
    return out;
}

void
QrKernel::emitTrace(std::uint64_t n, std::uint64_t m,
                    TraceSink &sink) const
{
    KB_REQUIRE(m >= minMemory(n), "QR needs m >= 4");
    const std::uint64_t b =
        std::max<std::uint64_t>(1, std::min(panelWidth(m), isqrt(n)));
    const MatrixLayout lq(0, n, n);
    const MatrixLayout lr(lq.end(), n, n);

    // Multi-column ranges touch contiguous row segments, so emit one
    // run per row; single columns are stride-n walks and stay
    // per-word.
    auto col_range = [&](std::uint64_t i0, std::uint64_t rows,
                         std::uint64_t c0, std::uint64_t cols,
                         AccessType type) {
        if (cols == 1) {
            for (std::uint64_t i = 0; i < rows; ++i)
                sink.onAccess(Access{lq.at(i0 + i, c0), type});
            return;
        }
        for (std::uint64_t i = 0; i < rows; ++i)
            sink.onRun(lq.at(i0 + i, c0), cols, type);
    };

    for (std::uint64_t k0 = 0; k0 < n; k0 += b) {
        const std::uint64_t tb = std::min(b, n - k0);
        for (std::uint64_t p0 = 0; p0 < k0; p0 += b) {
            const std::uint64_t pb = std::min(b, k0 - p0);
            for (int pass = 0; pass < 2; ++pass) {
                for (std::uint64_t i0 = 0; i0 < n; i0 += b) {
                    const std::uint64_t tr = std::min(b, n - i0);
                    col_range(i0, tr, p0, pb, AccessType::Read);
                    col_range(i0, tr, k0, tb,
                              pass ? AccessType::Write
                                   : AccessType::Read);
                }
            }
            for (std::uint64_t pj = 0; pj < pb; ++pj)
                sink.onRun(lr.at(p0 + pj, k0), tb, AccessType::Write);
        }
        for (std::uint64_t j = k0; j < k0 + tb; ++j) {
            col_range(0, n, j, 1, AccessType::Read);
            col_range(0, n, j, 1, AccessType::Write);
            for (std::uint64_t jj = j + 1; jj < k0 + tb; ++jj) {
                col_range(0, n, j, 1, AccessType::Read);
                col_range(0, n, jj, 1, AccessType::Read);
                col_range(0, n, jj, 1, AccessType::Write);
            }
        }
    }
}


namespace {

const KernelRegistrar kRegistrar{
    "qr", [] { return std::make_unique<QrKernel>(); }, 2,
    /*compute_bound=*/true};

} // namespace

} // namespace kb
