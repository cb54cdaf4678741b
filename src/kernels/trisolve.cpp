#include "kernels/trisolve.hpp"

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

constexpr std::uint64_t kVerifyLimit = 4096;

} // namespace

std::uint64_t
TrisolveKernel::blockSize(std::uint64_t m)
{
    KB_REQUIRE(m >= 3, "trisolve needs m >= 3");
    return std::max<std::uint64_t>(isqrt(m + 1) - 1, 1);
}

std::uint64_t
TrisolveKernel::minMemory(std::uint64_t) const
{
    return 3;
}

std::uint64_t
TrisolveKernel::suggestProblemSize(std::uint64_t m_max) const
{
    return std::clamp<std::uint64_t>(8 * blockSize(m_max), 512, 2048);
}

double
TrisolveKernel::asymptoticRatio(std::uint64_t m) const
{
    const double b = static_cast<double>(blockSize(m));
    return 2.0 / (1.0 + 1.0 / b); // < 2 for every finite m
}

WorkloadCost
TrisolveKernel::analyticCosts(std::uint64_t n, std::uint64_t m) const
{
    const double dn = static_cast<double>(n);
    const double b = static_cast<double>(blockSize(m));
    WorkloadCost cost;
    cost.comp_ops = dn * dn; // one multiply-subtract pair per L word
    cost.io_words = 0.5 * dn * dn * (1.0 + 1.0 / b) + 2.0 * dn;
    return cost;
}

std::vector<double>
trisolveInput(std::uint64_t n, std::uint64_t seed)
{
    Xoshiro256 rng(seed);
    std::vector<double> l(n * n, 0.0);
    for (std::uint64_t i = 0; i < n; ++i) {
        for (std::uint64_t j = 0; j < i; ++j)
            l[i * n + j] = (2.0 * rng.uniform() - 1.0) /
                           static_cast<double>(n);
        l[i * n + i] = 1.0 + rng.uniform(); // well away from zero
    }
    return l;
}

std::vector<double>
trisolveReference(const std::vector<double> &l, const std::vector<double> &b,
                  std::uint64_t n)
{
    std::vector<double> x(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        double acc = b[i];
        for (std::uint64_t j = 0; j < i; ++j)
            acc -= l[i * n + j] * x[j];
        x[i] = acc / l[i * n + i];
    }
    return x;
}

MeasuredCost
TrisolveKernel::measure(std::uint64_t n, std::uint64_t m,
                        bool verify) const
{
    KB_REQUIRE(n >= 1, "trisolve needs n >= 1");
    const std::uint64_t bs = std::min(blockSize(m), n);

    const auto l = trisolveInput(n, 0x7);
    Xoshiro256 rng(0x8);
    std::vector<double> rhs(n);
    for (auto &v : rhs)
        v = 2.0 * rng.uniform() - 1.0;
    std::vector<double> x(n, 0.0);

    Scratchpad pad(m);

    for (std::uint64_t i0 = 0; i0 < n; i0 += bs) {
        const std::uint64_t bi = std::min(bs, n - i0);
        // acc block accumulates b_i - sum_{j<i0} L x; resident
        // throughout, together with one re-streamed x block and one
        // L tile.
        ScopedBuffer acc_buf(pad, bi, "acc block");
        acc_buf.load(bi); // the b words
        std::vector<double> acc(rhs.begin() + i0,
                                rhs.begin() + i0 + bi);

        for (std::uint64_t j0 = 0; j0 < i0; j0 += bs) {
            const std::uint64_t bj = std::min(bs, i0 - j0);
            ScopedBuffer x_buf(pad, bj, "x block");
            ScopedBuffer l_buf(pad, bi * bj, "L tile");
            x_buf.load();
            l_buf.load();
            for (std::uint64_t i = 0; i < bi; ++i)
                for (std::uint64_t j = 0; j < bj; ++j)
                    acc[i] -= l[(i0 + i) * n + (j0 + j)] * x[j0 + j];
            pad.compute(2 * bi * bj);
        }

        // Diagonal block: forward substitution within the block.
        {
            ScopedBuffer l_buf(pad, bi * bi, "diag tile");
            l_buf.load(bi * (bi + 1) / 2); // triangular part only
            std::uint64_t ops = 0;
            for (std::uint64_t i = 0; i < bi; ++i) {
                double v = acc[i];
                for (std::uint64_t j = 0; j < i; ++j) {
                    v -= l[(i0 + i) * n + (i0 + j)] * x[i0 + j];
                    ops += 2;
                }
                x[i0 + i] = v / l[(i0 + i) * n + (i0 + i)];
                ops += 1;
            }
            pad.compute(ops);
        }
        acc_buf.store();
    }

    MeasuredCost out;
    out.cost.comp_ops = static_cast<double>(pad.stats().comp_ops);
    out.cost.io_words = static_cast<double>(pad.stats().ioWords());
    out.peak_memory = pad.stats().peak_usage;

    if (verify && n <= kVerifyLimit) {
        const auto ref = trisolveReference(l, rhs, n);
        double max_err = 0.0;
        for (std::uint64_t i = 0; i < n; ++i)
            max_err = std::max(max_err, std::fabs(ref[i] - x[i]));
        KB_ASSERT(max_err <= 1e-9 * static_cast<double>(n),
                  "blocked trisolve diverges from reference");
        out.verified = true;
    }
    return out;
}

void
TrisolveKernel::emitTrace(std::uint64_t n, std::uint64_t m,
                          TraceSink &sink) const
{
    const std::uint64_t bs = std::min(blockSize(m), n);
    const MatrixLayout ll(0, n, n);
    const ArrayLayout lb(ll.end(), n);
    const ArrayLayout lx(lb.end(), n);

    for (std::uint64_t i0 = 0; i0 < n; i0 += bs) {
        const std::uint64_t bi = std::min(bs, n - i0);
        sink.onRun(lb.at(i0), bi, AccessType::Read);
        for (std::uint64_t j0 = 0; j0 < i0; j0 += bs) {
            const std::uint64_t bj = std::min(bs, i0 - j0);
            sink.onRun(lx.at(j0), bj, AccessType::Read);
            for (std::uint64_t i = 0; i < bi; ++i)
                sink.onRun(ll.at(i0 + i, j0), bj, AccessType::Read);
        }
        for (std::uint64_t i = 0; i < bi; ++i)
            sink.onRun(ll.at(i0 + i, i0), i + 1, AccessType::Read);
        sink.onRun(lx.at(i0), bi, AccessType::Write);
    }
}


namespace {

const KernelRegistrar kRegistrar{
    "trisolve", [] { return std::make_unique<TrisolveKernel>(); }, 10,
    /*compute_bound=*/false};

} // namespace

} // namespace kb
