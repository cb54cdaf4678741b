#include "kernels/matmul.hpp"

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

/// Verification above this N would double the bench run time for no
/// extra information; tests stay below it.
constexpr std::uint64_t kVerifyLimit = 384;

} // namespace

std::uint64_t
MatmulKernel::tileSize(std::uint64_t m)
{
    // Largest b with b^2 + 2b <= m  <=>  b <= sqrt(m + 1) - 1.
    const std::uint64_t b = isqrt(m + 1) - 1;
    return std::max<std::uint64_t>(b, 1);
}

std::uint64_t
MatmulKernel::minMemory(std::uint64_t) const
{
    return 3; // b = 1 tile plus the two strips
}

std::uint64_t
MatmulKernel::suggestProblemSize(std::uint64_t m_max) const
{
    // Several tiles per side at the largest memory keeps the schedule
    // in its asymptotic regime without exploding the O(N^3) work.
    const std::uint64_t b = tileSize(m_max);
    return std::clamp<std::uint64_t>(4 * b, 64, 448);
}

double
MatmulKernel::asymptoticRatio(std::uint64_t m) const
{
    return static_cast<double>(tileSize(m));
}

WorkloadCost
MatmulKernel::analyticCosts(std::uint64_t n, std::uint64_t m) const
{
    const double b = static_cast<double>(tileSize(m));
    const double dn = static_cast<double>(n);
    WorkloadCost cost;
    cost.comp_ops = 2.0 * dn * dn * dn;
    cost.io_words = 2.0 * dn * dn * dn / b + dn * dn;
    return cost;
}

std::vector<double>
matmulInput(std::uint64_t n, std::uint64_t seed)
{
    Xoshiro256 rng(seed);
    std::vector<double> mat(n * n);
    for (auto &x : mat)
        x = 2.0 * rng.uniform() - 1.0;
    return mat;
}

std::vector<double>
matmulReference(const std::vector<double> &a, const std::vector<double> &b,
                std::uint64_t n)
{
    KB_REQUIRE(a.size() == n * n && b.size() == n * n,
               "reference matmul size mismatch");
    std::vector<double> c(n * n, 0.0);
    for (std::uint64_t i = 0; i < n; ++i) {
        for (std::uint64_t k = 0; k < n; ++k) {
            const double aik = a[i * n + k];
            for (std::uint64_t j = 0; j < n; ++j)
                c[i * n + j] += aik * b[k * n + j];
        }
    }
    return c;
}

MeasuredCost
MatmulKernel::measure(std::uint64_t n, std::uint64_t m, bool verify) const
{
    KB_REQUIRE(n >= 1, "matmul needs n >= 1");
    KB_REQUIRE(m >= minMemory(n), "matmul needs m >= 3");

    const std::uint64_t b = tileSize(m);
    // The values are computed only when they will be checked; the
    // scratchpad bills the same schedule either way.
    const bool check = verify && n <= kVerifyLimit;
    std::vector<double> a, bm, c;
    if (check) {
        a = matmulInput(n, 0xA);
        bm = matmulInput(n, 0xB);
        c.assign(n * n, 0.0);
    }

    Scratchpad pad(m);

    for (std::uint64_t i0 = 0; i0 < n; i0 += b) {
        const std::uint64_t ti = std::min(b, n - i0);
        for (std::uint64_t j0 = 0; j0 < n; j0 += b) {
            const std::uint64_t tj = std::min(b, n - j0);

            ScopedBuffer c_tile(pad, ti * tj, "C tile");
            ScopedBuffer a_strip(pad, ti, "A strip");
            ScopedBuffer b_strip(pad, tj, "B strip");
            std::vector<double> acc(check ? ti * tj : 0, 0.0);

            for (std::uint64_t k = 0; k < n; ++k) {
                a_strip.load(ti);
                b_strip.load(tj);
                if (check) {
                    for (std::uint64_t i = 0; i < ti; ++i) {
                        const double aik = a[(i0 + i) * n + k];
                        for (std::uint64_t j = 0; j < tj; ++j)
                            acc[i * tj + j] +=
                                aik * bm[k * n + (j0 + j)];
                    }
                }
                pad.compute(2 * ti * tj);
            }

            c_tile.store(ti * tj);
            if (check)
                for (std::uint64_t i = 0; i < ti; ++i)
                    for (std::uint64_t j = 0; j < tj; ++j)
                        c[(i0 + i) * n + (j0 + j)] = acc[i * tj + j];
        }
    }

    MeasuredCost out;
    out.cost.comp_ops = static_cast<double>(pad.stats().comp_ops);
    out.cost.io_words = static_cast<double>(pad.stats().ioWords());
    out.peak_memory = pad.stats().peak_usage;

    if (check) {
        const auto ref = matmulReference(a, bm, n);
        double max_err = 0.0;
        for (std::uint64_t i = 0; i < n * n; ++i)
            max_err = std::max(max_err, std::fabs(ref[i] - c[i]));
        KB_ASSERT(max_err <= 1e-9 * static_cast<double>(n),
                  "tiled matmul result diverges from reference");
        out.verified = true;
    }
    return out;
}

void
MatmulKernel::emitTrace(std::uint64_t n, std::uint64_t m,
                        TraceSink &sink) const
{
    KB_REQUIRE(m >= minMemory(n), "matmul needs m >= 3");
    const std::uint64_t b = tileSize(m);

    const MatrixLayout la(0, n, n);
    const MatrixLayout lb(la.end(), n, n);
    const MatrixLayout lc(lb.end(), n, n);

    for (std::uint64_t i0 = 0; i0 < n; i0 += b) {
        const std::uint64_t ti = std::min(b, n - i0);
        for (std::uint64_t j0 = 0; j0 < n; j0 += b) {
            const std::uint64_t tj = std::min(b, n - j0);
            for (std::uint64_t k = 0; k < n; ++k) {
                // The A column is strided (one element per row), the
                // B row and each C tile row are contiguous — emit the
                // contiguous pieces as runs so sinks with a bulk
                // onRun path (the analyzers, counting/null sinks) see
                // whole rows per call instead of a virtual call per
                // word. The access sequence is identical either way.
                for (std::uint64_t i = 0; i < ti; ++i)
                    sink.onAccess(readOf(la.at(i0 + i, k)));
                sink.onRun(lb.at(k, j0), tj, AccessType::Read);
                // Accumulation keeps the C tile hot in any
                // recency-based memory, mirroring its residency in the
                // scratchpad schedule.
                for (std::uint64_t i = 0; i < ti; ++i)
                    sink.onRun(lc.at(i0 + i, j0), tj,
                               AccessType::Write);
            }
        }
    }
}


namespace {

const KernelRegistrar kRegistrar{
    "matmul", [] { return std::make_unique<MatmulKernel>(); }, 0,
    /*compute_bound=*/true};

} // namespace

} // namespace kb
