#include "kernels/grid.hpp"

#include "kernels/registry.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "mem/scratchpad.hpp"
#include "trace/layout.hpp"
#include "util/intmath.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace kb {

namespace {

constexpr unsigned kMaxDim = 4;
constexpr std::uint64_t kVerifyPointLimit = 1u << 21;

using Index = std::array<std::int64_t, kMaxDim>;

/** Axis-aligned box [lo, hi) in d dimensions. */
struct Box
{
    unsigned dim;
    Index lo{};
    Index hi{};

    std::uint64_t
    volume() const
    {
        std::uint64_t v = 1;
        for (unsigned k = 0; k < dim; ++k) {
            if (hi[k] <= lo[k])
                return 0;
            v *= static_cast<std::uint64_t>(hi[k] - lo[k]);
        }
        return v;
    }
};

/** Row-major strides of a box's extents. */
Index
strides(const Box &b)
{
    Index s{};
    std::int64_t acc = 1;
    for (unsigned k = b.dim; k-- > 0;) {
        s[k] = acc;
        acc *= b.hi[k] - b.lo[k];
    }
    return s;
}

/** Flattened offset of @p x (global coords) inside box @p b. */
std::int64_t
offsetIn(const Box &b, const Index &st, const Index &x)
{
    std::int64_t off = 0;
    for (unsigned k = 0; k < b.dim; ++k)
        off += (x[k] - b.lo[k]) * st[k];
    return off;
}

/** Call @p fn for every index vector in box @p b (odometer order). */
template <typename F>
void
forEachIn(const Box &b, F &&fn)
{
    if (b.volume() == 0)
        return;
    Index x = b.lo;
    while (true) {
        fn(x);
        unsigned k = b.dim;
        while (k-- > 0) {
            if (++x[k] < b.hi[k])
                break;
            x[k] = b.lo[k];
            if (k == 0)
                return;
        }
    }
}

/**
 * Call @p fn(rowStart, len) for every last-axis row of box @p b, in
 * the same odometer order as forEachIn: the last axis has stride 1 in
 * any enclosing row-major box, so each row is one contiguous run.
 */
template <typename F>
void
forEachRow(const Box &b, F &&fn)
{
    if (b.volume() == 0)
        return;
    const unsigned last = b.dim - 1;
    const std::uint64_t len =
        static_cast<std::uint64_t>(b.hi[last] - b.lo[last]);
    Index x = b.lo;
    while (true) {
        fn(x, len);
        if (b.dim == 1)
            return;
        unsigned k = last;
        while (k-- > 0) {
            if (++x[k] < b.hi[k])
                break;
            x[k] = b.lo[k];
            if (k == 0)
                return;
        }
    }
}

/** Stencil update of one cell given a value reader. */
template <typename Reader>
double
stencilAt(unsigned dim, const Index &x, Reader &&value)
{
    double nbr = 0.0;
    for (unsigned k = 0; k < dim; ++k) {
        Index lo = x, hi = x;
        --lo[k];
        ++hi[k];
        nbr += value(lo);
        nbr += value(hi);
    }
    return 0.5 * value(x) + (0.5 / (2.0 * dim)) * nbr;
}

/**
 * Whether every stencil read of an update over @p upd stays inside the
 * extended box @p ext or falls outside the [0, g)^d grid (the zero
 * boundary): @p upd widened by one cell, clipped to the grid, must lie
 * inside @p ext. One box-level check stands for all reads of the update.
 */
bool
haloCovers(const Box &upd, const Box &ext, std::int64_t g)
{
    for (unsigned k = 0; k < upd.dim; ++k) {
        if (std::max<std::int64_t>(upd.lo[k] - 1, 0) < ext.lo[k] ||
            std::min<std::int64_t>(upd.hi[k] + 1, g) > ext.hi[k])
            return false;
    }
    return true;
}

/// Ops counted per cell update: 2d neighbor adds + 2 muls + 1 add.
std::uint64_t
opsPerCell(unsigned dim)
{
    return 2ull * dim + 3;
}

} // namespace

GridKernel::GridKernel(unsigned dim, std::uint64_t iterations)
    : dim_(dim), iterations_(iterations)
{
    KB_REQUIRE(dim_ >= 1 && dim_ <= kMaxDim, "grid dim must be in [1,4]");
    KB_REQUIRE(iterations_ >= 1, "grid needs at least one iteration");
}

std::string
GridKernel::name() const
{
    return "grid" + std::to_string(dim_) + "d";
}

std::uint64_t
GridKernel::extendedEdge(std::uint64_t m) const
{
    return iroot(m / 2, dim_);
}

std::uint64_t
GridKernel::temporalDepth(std::uint64_t m) const
{
    const std::uint64_t e = extendedEdge(m);
    return std::max<std::uint64_t>(1, (e - 1) / 4);
}

std::uint64_t
GridKernel::minMemory(std::uint64_t) const
{
    // Extended edge of at least 3 so a block has an interior.
    return 2 * ipow(3, dim_);
}

std::uint64_t
GridKernel::suggestProblemSize(std::uint64_t m_max) const
{
    const std::uint64_t e = extendedEdge(m_max);
    const std::uint64_t s = std::max<std::uint64_t>(
        1, e - 2 * temporalDepth(m_max));
    static constexpr std::uint64_t caps[kMaxDim] = {16384, 256, 48, 20};
    return std::clamp<std::uint64_t>(4 * s, 8, caps[dim_ - 1]);
}

double
GridKernel::asymptoticRatio(std::uint64_t m) const
{
    // tau sweeps of (2d+3) ops/cell per ~2 words moved per cell.
    const double tau = static_cast<double>(temporalDepth(m));
    return tau * static_cast<double>(opsPerCell(dim_)) / 2.0;
}

WorkloadCost
GridKernel::analyticCosts(std::uint64_t n, std::uint64_t m) const
{
    const double points = std::pow(static_cast<double>(n), dim_);
    const double t = static_cast<double>(iterations_);
    const double tau = static_cast<double>(temporalDepth(m));
    WorkloadCost cost;
    cost.comp_ops = t * points * static_cast<double>(opsPerCell(dim_));
    cost.io_words = 2.0 * points * t / tau;
    return cost;
}

std::vector<double>
gridInput(unsigned dim, std::uint64_t g, std::uint64_t seed)
{
    Xoshiro256 rng(seed);
    std::vector<double> grid(ipow(g, dim));
    for (auto &x : grid)
        x = 2.0 * rng.uniform() - 1.0;
    return grid;
}

std::vector<double>
gridReference(std::vector<double> grid, unsigned dim, std::uint64_t g,
              std::uint64_t t)
{
    Box all{dim, {}, {}};
    for (unsigned k = 0; k < dim; ++k) {
        all.lo[k] = 0;
        all.hi[k] = static_cast<std::int64_t>(g);
    }
    const Index st = strides(all);
    std::vector<double> next(grid.size());
    const std::int64_t gi = static_cast<std::int64_t>(g);

    for (std::uint64_t step = 0; step < t; ++step) {
        forEachIn(all, [&](const Index &x) {
            auto value = [&](const Index &y) -> double {
                for (unsigned k = 0; k < dim; ++k)
                    if (y[k] < 0 || y[k] >= gi)
                        return 0.0;
                return grid[static_cast<std::size_t>(
                    offsetIn(all, st, y))];
            };
            next[static_cast<std::size_t>(offsetIn(all, st, x))] =
                stencilAt(dim, x, value);
        });
        grid.swap(next);
    }
    return grid;
}

MeasuredCost
GridKernel::measure(std::uint64_t n, std::uint64_t m, bool verify) const
{
    KB_REQUIRE(m >= minMemory(n), "grid memory too small for dim");
    const std::uint64_t g = n;
    const std::int64_t gi = static_cast<std::int64_t>(g);
    const std::uint64_t e = extendedEdge(m);
    const std::uint64_t tau_full = temporalDepth(m);
    const std::uint64_t s =
        std::max<std::uint64_t>(1, e - 2 * tau_full);

    Box all{dim_, {}, {}};
    for (unsigned k = 0; k < dim_; ++k)
        all.hi[k] = gi;
    const Index gst = strides(all);

    // The values are computed only when they will be checked; the
    // scratchpad bills the schedule either way.
    const bool check =
        verify && ipow(g, dim_) * iterations_ <= kVerifyPointLimit;
    std::vector<double> src, initial, dst;
    if (check) {
        src = gridInput(dim_, g, 0x6);
        initial = src;
        dst.assign(src.size(), 0.0);
    }

    Scratchpad pad(m);
    std::uint64_t ops = 0;

    std::uint64_t done = 0;
    while (done < iterations_) {
        const std::uint64_t tau =
            std::min(tau_full, iterations_ - done);
        const std::int64_t h = static_cast<std::int64_t>(tau);

        // Iterate block origins: multiples of s per dimension.
        Box origins{dim_, {}, {}};
        for (unsigned k = 0; k < dim_; ++k)
            origins.hi[k] = (gi + static_cast<std::int64_t>(s) - 1) /
                            static_cast<std::int64_t>(s);

        forEachIn(origins, [&](const Index &blk) {
            Box core{dim_, {}, {}};
            Box ext{dim_, {}, {}};
            for (unsigned k = 0; k < dim_; ++k) {
                core.lo[k] = blk[k] * static_cast<std::int64_t>(s);
                core.hi[k] = std::min<std::int64_t>(
                    core.lo[k] + static_cast<std::int64_t>(s), gi);
                ext.lo[k] = core.lo[k] - h;
                ext.hi[k] = core.hi[k] + h;
            }
            const Index est = strides(ext);
            const std::uint64_t evol = ext.volume();

            ScopedBuffer cur_buf(pad, evol, "grid block (cur)");
            ScopedBuffer nxt_buf(pad, evol, "grid block (next)");
            const std::uint64_t vals = check ? evol : 0;
            std::vector<double> cur(vals, 0.0), nxt(vals, 0.0);

            // Load the in-grid portion of the extended region; cells
            // beyond the grid stay zero (the boundary condition).
            Box in_grid = ext;
            for (unsigned k = 0; k < dim_; ++k) {
                in_grid.lo[k] = std::max<std::int64_t>(ext.lo[k], 0);
                in_grid.hi[k] = std::min<std::int64_t>(ext.hi[k], gi);
            }
            if (check) {
                forEachIn(in_grid, [&](const Index &x) {
                    cur[static_cast<std::size_t>(offsetIn(ext, est, x))] =
                        src[static_cast<std::size_t>(
                            offsetIn(all, gst, x))];
                });
            }
            cur_buf.load(in_grid.volume());

            for (std::uint64_t t = 1; t <= tau; ++t) {
                // Valid-update region: shrink only on sides whose
                // extended face is strictly inside the grid (a face at
                // or beyond the boundary borders known zeros forever).
                Box upd{dim_, {}, {}};
                const std::int64_t ti = static_cast<std::int64_t>(t);
                for (unsigned k = 0; k < dim_; ++k) {
                    upd.lo[k] =
                        ext.lo[k] > 0 ? ext.lo[k] + ti : std::int64_t{0};
                    upd.hi[k] = ext.hi[k] < gi ? ext.hi[k] - ti : gi;
                }
                KB_ASSERT(upd.volume() > 0);
                KB_ASSERT(haloCovers(upd, ext, gi),
                          "blocked stencil read outside halo validity");
                if (check) {
                    forEachIn(upd, [&](const Index &x) {
                        // Reads outside ext are off-grid (haloCovers).
                        auto value = [&](const Index &y) -> double {
                            for (unsigned k = 0; k < dim_; ++k)
                                if (y[k] < ext.lo[k] || y[k] >= ext.hi[k])
                                    return 0.0;
                            return cur[static_cast<std::size_t>(
                                offsetIn(ext, est, y))];
                        };
                        nxt[static_cast<std::size_t>(
                            offsetIn(ext, est, x))] =
                            stencilAt(dim_, x, value);
                    });
                    cur.swap(nxt);
                }
                ops += upd.volume() * opsPerCell(dim_);
            }
            pad.compute(ops);
            ops = 0;

            // Write back the core region.
            if (check) {
                forEachIn(core, [&](const Index &x) {
                    dst[static_cast<std::size_t>(offsetIn(all, gst, x))] =
                        cur[static_cast<std::size_t>(
                            offsetIn(ext, est, x))];
                });
            }
            cur_buf.store(core.volume());
        });

        src.swap(dst);
        done += tau;
    }

    MeasuredCost out;
    out.cost.comp_ops = static_cast<double>(pad.stats().comp_ops);
    out.cost.io_words = static_cast<double>(pad.stats().ioWords());
    out.peak_memory = pad.stats().peak_usage;

    if (check) {
        const auto ref =
            gridReference(initial, dim_, g, iterations_);
        double max_err = 0.0;
        for (std::size_t i = 0; i < ref.size(); ++i)
            max_err = std::max(max_err, std::fabs(ref[i] - src[i]));
        KB_ASSERT(max_err <= 1e-12,
                  "time-tiled relaxation diverges from reference");
        out.verified = true;
    }
    return out;
}

std::uint64_t
GridKernel::residentEdge(std::uint64_t m) const
{
    // Two halo-extended buffers of (s+2)^d must fit in m words.
    const std::uint64_t ext = iroot(m / 2, dim_);
    return ext > 3 ? ext - 2 : 1;
}

MeasuredCost
GridKernel::measureResident(std::uint64_t n, std::uint64_t m,
                            bool verify) const
{
    KB_REQUIRE(m >= minMemory(n), "grid memory too small for dim");
    const std::uint64_t g = n;
    const std::int64_t gi = static_cast<std::int64_t>(g);
    const std::uint64_t s = std::min<std::uint64_t>(residentEdge(m), g);

    Box all{dim_, {}, {}};
    for (unsigned k = 0; k < dim_; ++k)
        all.hi[k] = gi;
    const Index gst = strides(all);

    // The PE owns the block at the grid origin (edge clipping only
    // reduces I/O further; the origin block is representative).
    Box core{dim_, {}, {}};
    Box halo{dim_, {}, {}};
    for (unsigned k = 0; k < dim_; ++k) {
        core.hi[k] = static_cast<std::int64_t>(s);
        halo.lo[k] = -1;
        halo.hi[k] = static_cast<std::int64_t>(s) + 1;
    }
    const Index hst = strides(halo);
    const std::uint64_t hvol = halo.volume();

    // Full-grid state evolves externally (it is the rest of the
    // machine); the PE computes its own block and must agree. The
    // values exist only when they will be checked (there is no size
    // limit here); the scratchpad bills the same schedule either way.
    const bool check = verify;
    std::vector<double> src, blk_cur, blk_nxt, next;
    if (check) {
        src = gridInput(dim_, g, 0x6);
        blk_cur.assign(hvol, 0.0);
        blk_nxt.assign(hvol, 0.0);
        next.resize(src.size());
    }

    Scratchpad pad(m);
    ScopedBuffer cur_buf(pad, hvol, "resident block (cur)");
    ScopedBuffer nxt_buf(pad, hvol, "resident block (next)");

    // Words the PE receives per iteration: the in-grid part of the
    // halo ring (out-of-grid cells are the known zero boundary).
    auto halo_words = [&] {
        std::uint64_t clipped = 1;
        for (unsigned k = 0; k < dim_; ++k) {
            const std::int64_t in_lo = std::max<std::int64_t>(
                halo.lo[k], 0);
            const std::int64_t in_hi =
                std::min<std::int64_t>(halo.hi[k], gi);
            clipped *= static_cast<std::uint64_t>(in_hi - in_lo);
        }
        return clipped - core.volume();
    };

    // Every stencil read of the block update lands in the halo box.
    KB_ASSERT(haloCovers(core, halo, gi),
              "resident stencil read outside the halo");

    // Initial load of the owned block.
    if (check) {
        forEachIn(core, [&](const Index &x) {
            blk_cur[static_cast<std::size_t>(offsetIn(halo, hst, x))] =
                src[static_cast<std::size_t>(offsetIn(all, gst, x))];
        });
    }
    cur_buf.load(core.volume());

    for (std::uint64_t t = 0; t < iterations_; ++t) {
        // Receive the current halo ring from outside, then update the
        // owned block.
        cur_buf.load(halo_words());
        pad.compute(core.volume() * opsPerCell(dim_));
        if (!check)
            continue;

        forEachIn(halo, [&](const Index &x) {
            bool in_core = true, in_grid = true;
            for (unsigned k = 0; k < dim_; ++k) {
                if (x[k] < core.lo[k] || x[k] >= core.hi[k])
                    in_core = false;
                if (x[k] < 0 || x[k] >= gi)
                    in_grid = false;
            }
            if (in_core)
                return;
            blk_cur[static_cast<std::size_t>(offsetIn(halo, hst, x))] =
                in_grid ? src[static_cast<std::size_t>(
                              offsetIn(all, gst, x))]
                        : 0.0;
        });
        forEachIn(core, [&](const Index &x) {
            auto value = [&](const Index &y) -> double {
                return blk_cur[static_cast<std::size_t>(
                    offsetIn(halo, hst, y))];
            };
            blk_nxt[static_cast<std::size_t>(offsetIn(halo, hst, x))] =
                stencilAt(dim_, x, value);
        });
        blk_cur.swap(blk_nxt);

        // The rest of the machine advances the global grid.
        forEachIn(all, [&](const Index &x) {
            auto value = [&](const Index &y) -> double {
                for (unsigned k = 0; k < dim_; ++k)
                    if (y[k] < 0 || y[k] >= gi)
                        return 0.0;
                return src[static_cast<std::size_t>(
                    offsetIn(all, gst, y))];
            };
            next[static_cast<std::size_t>(offsetIn(all, gst, x))] =
                stencilAt(dim_, x, value);
        });
        src.swap(next);
    }
    cur_buf.store(core.volume());

    MeasuredCost out;
    out.cost.comp_ops = static_cast<double>(pad.stats().comp_ops);
    out.cost.io_words = static_cast<double>(pad.stats().ioWords());
    out.peak_memory = pad.stats().peak_usage;

    if (check) {
        double max_err = 0.0;
        forEachIn(core, [&](const Index &x) {
            const double mine = blk_cur[static_cast<std::size_t>(
                offsetIn(halo, hst, x))];
            const double ref = src[static_cast<std::size_t>(
                offsetIn(all, gst, x))];
            max_err = std::max(max_err, std::fabs(mine - ref));
        });
        KB_ASSERT(max_err <= 1e-12,
                  "resident-block relaxation diverges from reference");
        out.verified = true;
    }
    return out;
}

void
GridKernel::emitTrace(std::uint64_t n, std::uint64_t m,
                      TraceSink &sink) const
{
    KB_REQUIRE(m >= minMemory(n), "grid memory too small for dim");
    const std::uint64_t g = n;
    const std::int64_t gi = static_cast<std::int64_t>(g);
    const std::uint64_t e = extendedEdge(m);
    const std::uint64_t tau_full = temporalDepth(m);
    const std::uint64_t s =
        std::max<std::uint64_t>(1, e - 2 * tau_full);

    Box all{dim_, {}, {}};
    for (unsigned k = 0; k < dim_; ++k)
        all.hi[k] = gi;
    const Index gst = strides(all);
    const ArrayLayout grid_words(0, ipow(g, dim_));

    // Last-axis rows of each trapezoid block's halo read and core
    // write are contiguous, so each is one run.
    std::uint64_t done = 0;
    while (done < iterations_) {
        const std::uint64_t tau =
            std::min(tau_full, iterations_ - done);
        const std::int64_t h = static_cast<std::int64_t>(tau);

        Box origins{dim_, {}, {}};
        for (unsigned k = 0; k < dim_; ++k)
            origins.hi[k] = (gi + static_cast<std::int64_t>(s) - 1) /
                            static_cast<std::int64_t>(s);

        forEachIn(origins, [&](const Index &blk) {
            Box core{dim_, {}, {}};
            Box in_grid{dim_, {}, {}};
            for (unsigned k = 0; k < dim_; ++k) {
                core.lo[k] = blk[k] * static_cast<std::int64_t>(s);
                core.hi[k] = std::min<std::int64_t>(
                    core.lo[k] + static_cast<std::int64_t>(s), gi);
                in_grid.lo[k] =
                    std::max<std::int64_t>(core.lo[k] - h, 0);
                in_grid.hi[k] =
                    std::min<std::int64_t>(core.hi[k] + h, gi);
            }
            forEachRow(in_grid, [&](const Index &x,
                                    std::uint64_t len) {
                sink.onRun(grid_words.at(static_cast<std::uint64_t>(
                               offsetIn(all, gst, x))),
                           len, AccessType::Read);
            });
            forEachRow(core, [&](const Index &x, std::uint64_t len) {
                sink.onRun(grid_words.at(static_cast<std::uint64_t>(
                               offsetIn(all, gst, x))),
                           len, AccessType::Write);
            });
        });
        done += tau;
    }
}


RatioPoint
GridKernel::measureRatioPoint(std::uint64_t /*n_hint*/,
                              std::uint64_t m) const
{
    // Steady-state per-iteration costs by differencing two iteration
    // counts (cancels the one-time block load/store).
    GridKernel k4(dim_, 4), k8(dim_, 8);
    const std::uint64_t s = k4.residentEdge(m);
    const std::uint64_t g = 2 * (s + 2);
    const auto r4 = k4.measureResident(g, m, false);
    const auto r8 = k8.measureResident(g, m, false);
    RatioPoint p;
    p.m = m;
    p.comp_ops = r8.cost.comp_ops - r4.cost.comp_ops;
    p.io_words = r8.cost.io_words - r4.cost.io_words;
    KB_ASSERT(p.io_words > 0.0);
    p.ratio = p.comp_ops / p.io_words;
    return p;
}

void
GridKernel::defaultSweepRange(std::uint64_t &m_lo,
                              std::uint64_t &m_hi) const
{
    switch (dim_) {
      case 1:
        m_lo = 256;
        m_hi = 16384;
        break;
      case 2:
        m_lo = 512;
        m_hi = 32768;
        break;
      case 3:
        m_lo = 8192;
        m_hi = 1u << 19;
        break;
      default:
        m_lo = 32768;
        m_hi = 1u << 19;
        break;
    }
}

namespace {

KernelRegistry::Factory
gridFactory(unsigned dim)
{
    return [dim] { return std::make_unique<GridKernel>(dim); };
}

const KernelRegistrar kRegistrar1{"grid1d", gridFactory(1), 3,
                                  /*compute_bound=*/true};
const KernelRegistrar kRegistrar2{"grid2d", gridFactory(2), 4,
                                  /*compute_bound=*/true};
const KernelRegistrar kRegistrar3{"grid3d", gridFactory(3), 5,
                                  /*compute_bound=*/true};
const KernelRegistrar kRegistrar4{"grid4d", gridFactory(4), 6,
                                  /*compute_bound=*/true};

} // namespace

} // namespace kb
