#include "kernels/matvec.hpp"

#include "kernels/registry.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/matmul.hpp" // matmulInput: shared deterministic data
#include "mem/scratchpad.hpp"
#include "trace/layout.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace kb {

namespace {

constexpr std::uint64_t kVerifyLimit = 4096;

} // namespace

std::uint64_t
MatvecKernel::blockRows(std::uint64_t m)
{
    KB_REQUIRE(m >= 3, "matvec needs m >= 3");
    return m - 2;
}

std::uint64_t
MatvecKernel::minMemory(std::uint64_t) const
{
    return 3;
}

std::uint64_t
MatvecKernel::suggestProblemSize(std::uint64_t m_max) const
{
    return std::clamp<std::uint64_t>(4 * m_max, 512, 2048);
}

double
MatvecKernel::asymptoticRatio(std::uint64_t m) const
{
    const double br = static_cast<double>(blockRows(m));
    return 2.0 / (1.0 + 1.0 / br); // < 2 for every finite m
}

WorkloadCost
MatvecKernel::analyticCosts(std::uint64_t n, std::uint64_t m) const
{
    const double dn = static_cast<double>(n);
    const double br = static_cast<double>(blockRows(m));
    WorkloadCost cost;
    cost.comp_ops = 2.0 * dn * dn;
    cost.io_words = dn * dn * (1.0 + 1.0 / br) + dn;
    return cost;
}

std::vector<double>
matvecReference(const std::vector<double> &a, const std::vector<double> &x,
                std::uint64_t n)
{
    std::vector<double> y(n, 0.0);
    for (std::uint64_t i = 0; i < n; ++i)
        for (std::uint64_t j = 0; j < n; ++j)
            y[i] += a[i * n + j] * x[j];
    return y;
}

MeasuredCost
MatvecKernel::measure(std::uint64_t n, std::uint64_t m, bool verify) const
{
    KB_REQUIRE(n >= 1, "matvec needs n >= 1");
    const std::uint64_t br = std::min(blockRows(m), n);

    const auto a = matmulInput(n, 0xAE);
    Xoshiro256 rng(0xEC);
    std::vector<double> x(n);
    for (auto &v : x)
        v = 2.0 * rng.uniform() - 1.0;
    std::vector<double> y(n, 0.0);

    Scratchpad pad(m);

    for (std::uint64_t i0 = 0; i0 < n; i0 += br) {
        const std::uint64_t bi = std::min(br, n - i0);
        ScopedBuffer y_block(pad, bi, "y block");
        ScopedBuffer x_word(pad, 1, "x word");
        ScopedBuffer a_word(pad, 1, "A word");
        // Column-by-column: one x word amortizes over the block rows;
        // every A word is used exactly once — the crux of Section 3.6.
        for (std::uint64_t j = 0; j < n; ++j) {
            x_word.load();
            for (std::uint64_t i = 0; i < bi; ++i) {
                a_word.load(1);
                y[i0 + i] += a[(i0 + i) * n + j] * x[j];
            }
            pad.compute(2 * bi);
        }
        y_block.store();
    }

    MeasuredCost out;
    out.cost.comp_ops = static_cast<double>(pad.stats().comp_ops);
    out.cost.io_words = static_cast<double>(pad.stats().ioWords());
    out.peak_memory = pad.stats().peak_usage;

    if (verify && n <= kVerifyLimit) {
        const auto ref = matvecReference(a, x, n);
        double max_err = 0.0;
        for (std::uint64_t i = 0; i < n; ++i)
            max_err = std::max(max_err, std::fabs(ref[i] - y[i]));
        KB_ASSERT(max_err <= 1e-9 * static_cast<double>(n),
                  "blocked matvec diverges from reference");
        out.verified = true;
    }
    return out;
}

void
MatvecKernel::emitTrace(std::uint64_t n, std::uint64_t m,
                        TraceSink &sink) const
{
    const std::uint64_t br = std::min(blockRows(m), n);
    const MatrixLayout la(0, n, n);
    const ArrayLayout lx(la.end(), n);
    const ArrayLayout ly(lx.end(), n);

    for (std::uint64_t i0 = 0; i0 < n; i0 += br) {
        const std::uint64_t bi = std::min(br, n - i0);
        for (std::uint64_t j = 0; j < n; ++j) {
            sink.onAccess(readOf(lx.at(j)));
            for (std::uint64_t i = 0; i < bi; ++i) {
                sink.onAccess(readOf(la.at(i0 + i, j)));
                sink.onAccess(writeOf(ly.at(i0 + i)));
            }
        }
    }
}


namespace {

const KernelRegistrar kRegistrar{
    "matvec", [] { return std::make_unique<MatvecKernel>(); }, 9,
    /*compute_bound=*/false};

} // namespace

} // namespace kb
