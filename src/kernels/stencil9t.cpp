#include "kernels/stencil9t.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/registry.hpp"
#include "kernels/stencil9.hpp"
#include "mem/scratchpad.hpp"
#include "trace/layout.hpp"
#include "util/intmath.hpp"
#include "util/logging.hpp"

namespace kb {

namespace {

constexpr std::uint64_t kVerifyLimit = 512; // grid edge

/// Same operation count as stencil9 — the two kernels bill the
/// identical operator, only the schedules differ.
constexpr double kOpsPerCell = 12.0;

/** Half-open 2-D box [lo, hi) in global grid coordinates. */
struct Box2
{
    std::int64_t ilo = 0, ihi = 0;
    std::int64_t jlo = 0, jhi = 0;

    std::int64_t rows() const { return ihi - ilo; }
    std::int64_t cols() const { return jhi - jlo; }
    std::uint64_t
    volume() const
    {
        return rows() <= 0 || cols() <= 0
                   ? 0
                   : static_cast<std::uint64_t>(rows() * cols());
    }
};

/** The in-grid part of @p b on a g x g grid. */
Box2
clipToGrid(const Box2 &b, std::int64_t g)
{
    return Box2{std::max<std::int64_t>(b.ilo, 0),
                std::min<std::int64_t>(b.ihi, g),
                std::max<std::int64_t>(b.jlo, 0),
                std::min<std::int64_t>(b.jhi, g)};
}

} // namespace

Stencil9TimeTiledKernel::Stencil9TimeTiledKernel(std::uint64_t iterations)
    : iterations_(iterations)
{
    KB_REQUIRE(iterations_ >= 1, "stencil9t needs iterations >= 1");
}

std::uint64_t
Stencil9TimeTiledKernel::extendedEdge(std::uint64_t m) const
{
    KB_REQUIRE(m >= minMemory(0), "stencil9t needs m >= ", minMemory(0));
    return isqrt(m / 2); // two e^2 buffers (cur and next) fit in m
}

std::uint64_t
Stencil9TimeTiledKernel::temporalDepth(std::uint64_t m) const
{
    const std::uint64_t e = extendedEdge(m);
    // A quarter of the edge spent on halo per side leaves half the
    // block as core — the same depth/area split the grid kernels use.
    return std::max<std::uint64_t>(1, (e - 1) / 4);
}

std::uint64_t
Stencil9TimeTiledKernel::minMemory(std::uint64_t) const
{
    return 18; // e = 3: a 3x3 extended block, one step, 1-cell core
}

std::uint64_t
Stencil9TimeTiledKernel::suggestProblemSize(std::uint64_t m_max) const
{
    // N^2 >> M with the whole sweep still laptop-fast (same policy as
    // stencil9, so the two kernels run comparable regimes).
    const auto root = static_cast<std::uint64_t>(
        std::ceil(std::sqrt(static_cast<double>(m_max))));
    return std::clamp<std::uint64_t>(4 * root, 48, 160);
}

void
Stencil9TimeTiledKernel::defaultSweepRange(std::uint64_t &m_lo,
                                           std::uint64_t &m_hi) const
{
    m_lo = 64;
    m_hi = 4096; // tau reaches 11; iterations_ = 12 keeps R growing
}

double
Stencil9TimeTiledKernel::asymptoticRatio(std::uint64_t m) const
{
    const double tau = static_cast<double>(temporalDepth(m));
    const double s = static_cast<double>(std::max<std::uint64_t>(
        1, extendedEdge(m) - 2 * temporalDepth(m)));
    const double h2 = s + 2.0 * tau;
    return kOpsPerCell * tau * s * s / (h2 * h2 + s * s);
}

WorkloadCost
Stencil9TimeTiledKernel::analyticCosts(std::uint64_t n,
                                       std::uint64_t m) const
{
    const double g = static_cast<double>(n);
    const double t = static_cast<double>(iterations_);
    const double tau = static_cast<double>(temporalDepth(m));
    const double s = static_cast<double>(std::max<std::uint64_t>(
        1, extendedEdge(m) - 2 * temporalDepth(m)));
    const double h2 = s + 2.0 * tau;
    WorkloadCost cost;
    cost.comp_ops = kOpsPerCell * t * g * g;
    // Per core cell per tau-deep chunk: ((s+2tau)^2 + s^2) / s^2
    // words; t/tau chunks cover the t sweeps.
    cost.io_words = (t / tau) * g * g * (h2 * h2 + s * s) / (s * s);
    return cost;
}

MeasuredCost
Stencil9TimeTiledKernel::measure(std::uint64_t n, std::uint64_t m,
                                 bool verify) const
{
    const std::uint64_t g = n;
    KB_REQUIRE(g >= 3, "stencil9t needs a grid edge of at least 3");
    const std::int64_t gi = static_cast<std::int64_t>(g);
    const std::uint64_t tau_full = temporalDepth(m);
    const std::uint64_t s = std::min<std::uint64_t>(
        std::max<std::uint64_t>(1, extendedEdge(m) - 2 * tau_full), g);

    auto src = stencil9Input(g, 0x95);
    const auto initial = src;
    std::vector<double> dst(g * g, 0.0);
    Scratchpad pad(m);

    std::uint64_t done = 0;
    while (done < iterations_) {
        const std::uint64_t tau =
            std::min(tau_full, iterations_ - done);
        const std::int64_t h = static_cast<std::int64_t>(tau);

        for (std::uint64_t i0 = 0; i0 < g; i0 += s) {
            const std::int64_t ci0 = static_cast<std::int64_t>(i0);
            const std::int64_t ci1 = std::min<std::int64_t>(
                ci0 + static_cast<std::int64_t>(s), gi);
            for (std::uint64_t j0 = 0; j0 < g; j0 += s) {
                const std::int64_t cj0 = static_cast<std::int64_t>(j0);
                const std::int64_t cj1 = std::min<std::int64_t>(
                    cj0 + static_cast<std::int64_t>(s), gi);
                const Box2 core{ci0, ci1, cj0, cj1};
                const Box2 ext{ci0 - h, ci1 + h, cj0 - h, cj1 + h};
                const Box2 in_grid = clipToGrid(ext, gi);
                const std::int64_t ew = ext.cols();
                const std::uint64_t evol = ext.volume();

                ScopedBuffer cur_buf(pad, evol, "stencil block (cur)");
                ScopedBuffer nxt_buf(pad, evol, "stencil block (next)");
                std::vector<double> cur(evol, 0.0), nxt(evol, 0.0);
                const auto at = [&](std::int64_t i,
                                    std::int64_t j) -> std::size_t {
                    return static_cast<std::size_t>(
                        (i - ext.ilo) * ew + (j - ext.jlo));
                };

                // Load the in-grid portion of the extended region;
                // cells beyond the grid stay zero (the boundary).
                for (std::int64_t i = in_grid.ilo; i < in_grid.ihi; ++i)
                    for (std::int64_t j = in_grid.jlo;
                         j < in_grid.jhi; ++j)
                        cur[at(i, j)] =
                            src[static_cast<std::size_t>(i * gi + j)];
                cur_buf.load(in_grid.volume());

                std::uint64_t ops = 0;
                for (std::uint64_t t = 1; t <= tau; ++t) {
                    // Valid-update region: shrink only the sides
                    // whose extended face is strictly inside the
                    // grid (a face at or beyond the boundary borders
                    // known zeros forever).
                    const std::int64_t ti =
                        static_cast<std::int64_t>(t);
                    const Box2 upd{
                        ext.ilo > 0 ? ext.ilo + ti : std::int64_t{0},
                        ext.ihi < gi ? ext.ihi - ti : gi,
                        ext.jlo > 0 ? ext.jlo + ti : std::int64_t{0},
                        ext.jhi < gi ? ext.jhi - ti : gi};
                    KB_ASSERT(upd.volume() > 0);
                    for (std::int64_t i = upd.ilo; i < upd.ihi; ++i) {
                        for (std::int64_t j = upd.jlo; j < upd.jhi;
                             ++j) {
                            // The identical expression and neighbor
                            // order as stencil9Reference, so the
                            // result matches it exactly.
                            double acc = 4.0 * cur[at(i, j)];
                            for (int di = -1; di <= 1; ++di) {
                                for (int dj = -1; dj <= 1; ++dj) {
                                    if (di == 0 && dj == 0)
                                        continue;
                                    const std::int64_t ni = i + di;
                                    const std::int64_t nj = j + dj;
                                    if (ni < 0 || nj < 0 || ni >= gi ||
                                        nj >= gi)
                                        continue; // zero boundary
                                    KB_ASSERT(ni >= ext.ilo &&
                                                  ni < ext.ihi &&
                                                  nj >= ext.jlo &&
                                                  nj < ext.jhi,
                                              "time-tiled stencil "
                                              "read outside halo "
                                              "validity");
                                    acc += cur[at(ni, nj)];
                                }
                            }
                            nxt[at(i, j)] = acc / 12.0;
                        }
                    }
                    ops += upd.volume() *
                           static_cast<std::uint64_t>(kOpsPerCell);
                    cur.swap(nxt);
                }
                pad.compute(ops);

                // Write back the core region.
                for (std::int64_t i = core.ilo; i < core.ihi; ++i)
                    for (std::int64_t j = core.jlo; j < core.jhi; ++j)
                        dst[static_cast<std::size_t>(i * gi + j)] =
                            cur[at(i, j)];
                cur_buf.store(core.volume());
            }
        }
        src.swap(dst);
        done += tau;
    }

    MeasuredCost out;
    out.cost.comp_ops = static_cast<double>(pad.stats().comp_ops);
    out.cost.io_words = static_cast<double>(pad.stats().ioWords());
    out.peak_memory = pad.stats().peak_usage;

    if (verify && g <= kVerifyLimit) {
        const auto ref = stencil9Reference(initial, g, iterations_);
        KB_ASSERT(ref == src,
                  "time-tiled stencil9t diverges from the stencil9 "
                  "reference");
        out.verified = true;
    }
    return out;
}

void
Stencil9TimeTiledKernel::emitTrace(std::uint64_t n, std::uint64_t m,
                                   TraceSink &sink) const
{
    const std::uint64_t g = n;
    const std::int64_t gi = static_cast<std::int64_t>(g);
    const std::uint64_t tau_full = temporalDepth(m);
    const std::uint64_t s = std::min<std::uint64_t>(
        std::max<std::uint64_t>(1, extendedEdge(m) - 2 * tau_full), g);
    // Two logical arrays ping-ponged across CHUNKS (each chunk
    // advances tau sweeps), like the real schedule's src/dst.
    const MatrixLayout a(0, g, g);
    const MatrixLayout b(a.end(), g, g);

    std::uint64_t done = 0;
    bool flip = false;
    while (done < iterations_) {
        const std::uint64_t tau =
            std::min(tau_full, iterations_ - done);
        const std::int64_t h = static_cast<std::int64_t>(tau);
        const MatrixLayout &src = flip ? b : a;
        const MatrixLayout &dst = flip ? a : b;

        for (std::uint64_t i0 = 0; i0 < g; i0 += s) {
            const std::int64_t ci0 = static_cast<std::int64_t>(i0);
            const std::int64_t ci1 = std::min<std::int64_t>(
                ci0 + static_cast<std::int64_t>(s), gi);
            for (std::uint64_t j0 = 0; j0 < g; j0 += s) {
                const std::int64_t cj0 = static_cast<std::int64_t>(j0);
                const std::int64_t cj1 = std::min<std::int64_t>(
                    cj0 + static_cast<std::int64_t>(s), gi);
                const Box2 in_grid = clipToGrid(
                    Box2{ci0 - h, ci1 + h, cj0 - h, cj1 + h}, gi);
                for (std::int64_t r = in_grid.ilo; r < in_grid.ihi;
                     ++r)
                    sink.onRun(
                        src.at(static_cast<std::uint64_t>(r),
                               static_cast<std::uint64_t>(in_grid.jlo)),
                        static_cast<std::uint64_t>(in_grid.cols()),
                        AccessType::Read);
                for (std::int64_t i = ci0; i < ci1; ++i)
                    sink.onRun(dst.at(static_cast<std::uint64_t>(i),
                                      static_cast<std::uint64_t>(cj0)),
                               static_cast<std::uint64_t>(cj1 - cj0),
                               AccessType::Write);
            }
        }
        flip = !flip;
        done += tau;
    }
}

namespace {

const KernelRegistrar kRegistrar{
    "stencil9t",
    [] { return std::make_unique<Stencil9TimeTiledKernel>(); }, 101,
    /*compute_bound=*/true};

} // namespace

} // namespace kb
