#include "kernels/stencil9.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/registry.hpp"
#include "mem/scratchpad.hpp"
#include "trace/layout.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace kb {

namespace {

constexpr std::uint64_t kVerifyLimit = 512; // grid edge

/// Operation count billed per updated cell: 8 neighbor adds, one
/// scale of the center, one add folding it in, one divide, one
/// store-side move — the constant is shared by every cost view so
/// the measured and analytic R(M) agree exactly.
constexpr double kOpsPerCell = 12.0;

/**
 * The one shared update expression. Both the reference sweep and the
 * blocked schedule call this with the identical neighbor order, so
 * the blocked result equals the reference bit for bit.
 */
double
mooreUpdate(const std::vector<double> &cur, std::uint64_t g,
            std::uint64_t i, std::uint64_t j)
{
    double acc = 4.0 * cur[i * g + j];
    for (int di = -1; di <= 1; ++di) {
        for (int dj = -1; dj <= 1; ++dj) {
            if (di == 0 && dj == 0)
                continue;
            const std::int64_t ni = static_cast<std::int64_t>(i) + di;
            const std::int64_t nj = static_cast<std::int64_t>(j) + dj;
            if (ni < 0 || nj < 0 ||
                ni >= static_cast<std::int64_t>(g) ||
                nj >= static_cast<std::int64_t>(g))
                continue; // zero (absorbing) boundary
            acc += cur[static_cast<std::uint64_t>(ni) * g +
                       static_cast<std::uint64_t>(nj)];
        }
    }
    return acc / 12.0;
}

} // namespace

std::vector<double>
stencil9Input(std::uint64_t g, std::uint64_t seed)
{
    Xoshiro256 rng(seed);
    std::vector<double> grid(g * g);
    for (auto &v : grid)
        v = 2.0 * rng.uniform() - 1.0;
    return grid;
}

std::vector<double>
stencil9Reference(std::vector<double> grid, std::uint64_t g,
                  std::uint64_t t)
{
    std::vector<double> next(g * g, 0.0);
    for (std::uint64_t sweep = 0; sweep < t; ++sweep) {
        for (std::uint64_t i = 0; i < g; ++i)
            for (std::uint64_t j = 0; j < g; ++j)
                next[i * g + j] = mooreUpdate(grid, g, i, j);
        grid.swap(next);
    }
    return grid;
}

Stencil9Kernel::Stencil9Kernel(std::uint64_t iterations)
    : iterations_(iterations)
{
    KB_REQUIRE(iterations_ >= 1, "stencil9 needs iterations >= 1");
}

std::uint64_t
Stencil9Kernel::coreEdge(std::uint64_t m) const
{
    KB_REQUIRE(m >= minMemory(0), "stencil9 needs m >= ", minMemory(0));
    std::uint64_t s = 1;
    while ((s + 3) * (s + 3) + (s + 1) * (s + 1) <= m)
        ++s;
    return s;
}

std::uint64_t
Stencil9Kernel::minMemory(std::uint64_t) const
{
    return 10; // s = 1: a 3x3 extended block plus its 1-cell core
}

std::uint64_t
Stencil9Kernel::suggestProblemSize(std::uint64_t m_max) const
{
    // N^2 >> M with the whole sweep still laptop-fast.
    const auto root = static_cast<std::uint64_t>(
        std::ceil(std::sqrt(static_cast<double>(m_max))));
    return std::clamp<std::uint64_t>(4 * root, 48, 160);
}

void
Stencil9Kernel::defaultSweepRange(std::uint64_t &m_lo,
                                  std::uint64_t &m_hi) const
{
    m_lo = 32;
    m_hi = 2048;
}

double
Stencil9Kernel::asymptoticRatio(std::uint64_t m) const
{
    const double s = static_cast<double>(coreEdge(m));
    return kOpsPerCell * s * s / ((s + 2.0) * (s + 2.0) + s * s);
}

WorkloadCost
Stencil9Kernel::analyticCosts(std::uint64_t n, std::uint64_t m) const
{
    const double g = static_cast<double>(n);
    const double s = static_cast<double>(coreEdge(m));
    const double t = static_cast<double>(iterations_);
    WorkloadCost cost;
    cost.comp_ops = kOpsPerCell * t * g * g;
    // Leading order: per core cell, ((s+2)^2 + s^2) / s^2 words.
    cost.io_words =
        t * g * g * ((s + 2.0) * (s + 2.0) + s * s) / (s * s);
    return cost;
}

MeasuredCost
Stencil9Kernel::measure(std::uint64_t n, std::uint64_t m,
                        bool verify) const
{
    const std::uint64_t g = n;
    KB_REQUIRE(g >= 3, "stencil9 needs a grid edge of at least 3");
    const std::uint64_t s = std::min(coreEdge(m), g);

    auto cur = stencil9Input(g, 0x95);
    std::vector<double> next(g * g, 0.0);
    Scratchpad pad(m);

    for (std::uint64_t sweep = 0; sweep < iterations_; ++sweep) {
        for (std::uint64_t i0 = 0; i0 < g; i0 += s) {
            const std::uint64_t bi = std::min(s, g - i0);
            for (std::uint64_t j0 = 0; j0 < g; j0 += s) {
                const std::uint64_t bj = std::min(s, g - j0);
                // Extended block: the core plus a 1-cell halo,
                // clipped at the grid boundary (clipped cells are
                // the zero boundary and cost nothing to fetch).
                const std::uint64_t ri = i0 == 0 ? 0 : i0 - 1;
                const std::uint64_t rj = j0 == 0 ? 0 : j0 - 1;
                const std::uint64_t re = std::min(g, i0 + bi + 1);
                const std::uint64_t ce = std::min(g, j0 + bj + 1);
                ScopedBuffer in_block(pad, (re - ri) * (ce - rj),
                                      "extended block");
                ScopedBuffer out_block(pad, bi * bj, "core block");
                in_block.load();
                for (std::uint64_t i = i0; i < i0 + bi; ++i)
                    for (std::uint64_t j = j0; j < j0 + bj; ++j)
                        next[i * g + j] = mooreUpdate(cur, g, i, j);
                pad.compute(static_cast<std::uint64_t>(kOpsPerCell) *
                            bi * bj);
                out_block.store();
            }
        }
        cur.swap(next);
    }

    MeasuredCost out;
    out.cost.comp_ops = static_cast<double>(pad.stats().comp_ops);
    out.cost.io_words = static_cast<double>(pad.stats().ioWords());
    out.peak_memory = pad.stats().peak_usage;

    if (verify && g <= kVerifyLimit) {
        const auto ref = stencil9Reference(stencil9Input(g, 0x95), g,
                                           iterations_);
        KB_ASSERT(ref == cur,
                  "blocked stencil9 diverges from reference");
        out.verified = true;
    }
    return out;
}

void
Stencil9Kernel::emitTrace(std::uint64_t n, std::uint64_t m,
                          TraceSink &sink) const
{
    const std::uint64_t g = n;
    const std::uint64_t s = std::min(coreEdge(m), g);
    // Two logical arrays ping-ponged across sweeps, like the real
    // schedule's cur/next.
    const MatrixLayout a(0, g, g);
    const MatrixLayout b(a.end(), g, g);

    for (std::uint64_t sweep = 0; sweep < iterations_; ++sweep) {
        const MatrixLayout &src = (sweep % 2 == 0) ? a : b;
        const MatrixLayout &dst = (sweep % 2 == 0) ? b : a;
        for (std::uint64_t i0 = 0; i0 < g; i0 += s) {
            const std::uint64_t bi = std::min(s, g - i0);
            for (std::uint64_t j0 = 0; j0 < g; j0 += s) {
                const std::uint64_t bj = std::min(s, g - j0);
                const std::uint64_t ri = i0 == 0 ? 0 : i0 - 1;
                const std::uint64_t rj = j0 == 0 ? 0 : j0 - 1;
                const std::uint64_t re = std::min(g, i0 + bi + 1);
                const std::uint64_t ce = std::min(g, j0 + bj + 1);
                for (std::uint64_t r = ri; r < re; ++r)
                    sink.onRun(src.at(r, rj), ce - rj,
                               AccessType::Read);
                for (std::uint64_t i = i0; i < i0 + bi; ++i)
                    sink.onRun(dst.at(i, j0), bj, AccessType::Write);
            }
        }
    }
}

namespace {

const KernelRegistrar kRegistrar{
    "stencil9", [] { return std::make_unique<Stencil9Kernel>(); },
    100, /*compute_bound=*/false};

} // namespace

} // namespace kb
