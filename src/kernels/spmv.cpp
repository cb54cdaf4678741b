#include "kernels/spmv.hpp"

#include "kernels/registry.hpp"

#include <algorithm>
#include <cmath>

#include "mem/lru_cache.hpp"
#include "mem/scratchpad.hpp"
#include "trace/layout.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace kb {

namespace {

constexpr std::uint64_t kVerifyLimit = 1u << 16;

} // namespace

CsrMatrix
makeCsr(std::uint64_t n, std::uint64_t row_nnz, std::uint64_t seed)
{
    KB_REQUIRE(row_nnz >= 1 && row_nnz <= n, "bad row nnz");
    CsrMatrix a;
    a.n = n;
    a.row_nnz = row_nnz;
    a.cols.reserve(n * row_nnz);
    a.vals.reserve(n * row_nnz);
    Xoshiro256 rng(seed);
    for (std::uint64_t i = 0; i < n; ++i) {
        for (std::uint64_t k = 0; k < row_nnz; ++k) {
            // Duplicate columns within a row are harmless for the
            // balance accounting (they just add twice).
            a.cols.push_back(static_cast<std::uint32_t>(rng.below(n)));
            a.vals.push_back(2.0 * rng.uniform() - 1.0);
        }
    }
    return a;
}

std::vector<double>
spmvReference(const CsrMatrix &a, const std::vector<double> &x)
{
    std::vector<double> y(a.n, 0.0);
    for (std::uint64_t i = 0; i < a.n; ++i)
        for (std::uint64_t k = 0; k < a.row_nnz; ++k)
            y[i] += a.vals[i * a.row_nnz + k] *
                    x[a.cols[i * a.row_nnz + k]];
    return y;
}

SpmvKernel::SpmvKernel(std::uint64_t row_nnz) : row_nnz_(row_nnz)
{
    KB_REQUIRE(row_nnz_ >= 1, "need at least one nonzero per row");
}

std::uint64_t
SpmvKernel::minMemory(std::uint64_t) const
{
    return 8; // streaming buffers + a few cached x words
}

std::uint64_t
SpmvKernel::suggestProblemSize(std::uint64_t m_max) const
{
    return std::clamp<std::uint64_t>(4 * m_max, 1u << 12, 1u << 16);
}

double
SpmvKernel::asymptoticRatio(std::uint64_t m) const
{
    // Ccomp = 2 nnz; Cio >= 2 nnz (value + index) + y writes; a
    // perfect x cache only removes the gather term.
    (void)m;
    return 1.0;
}

WorkloadCost
SpmvKernel::analyticCosts(std::uint64_t n, std::uint64_t m) const
{
    const double nnz = static_cast<double>(n * row_nnz_);
    const double dn = static_cast<double>(n);
    // Random gather: x hit probability ~ cached fraction of x.
    const double hit =
        std::min(1.0, 0.5 * static_cast<double>(m) / dn);
    WorkloadCost cost;
    cost.comp_ops = 2.0 * nnz;
    cost.io_words = 2.0 * nnz + (1.0 - hit) * nnz + dn;
    return cost;
}

MeasuredCost
SpmvKernel::measure(std::uint64_t n, std::uint64_t m, bool verify) const
{
    KB_REQUIRE(n >= row_nnz_, "spmv needs n >= row nnz");
    KB_REQUIRE(m >= minMemory(n), "spmv needs m >= 8");

    const auto a = makeCsr(n, row_nnz_, 0xC5);
    Xoshiro256 rng(0xD1);
    std::vector<double> x(n);
    for (auto &v : x)
        v = 2.0 * rng.uniform() - 1.0;
    std::vector<double> y(n, 0.0);

    // Local memory split: streaming buffers (row values + indices +
    // the y word) in the scratchpad, the rest caches x words.
    Scratchpad pad(m);
    ScopedBuffer val_buf(pad, 2, "value+index stream");
    ScopedBuffer y_word(pad, 1, "y word");
    const std::uint64_t x_cache_words = std::max<std::uint64_t>(
        1, m - pad.resident());
    LruCache x_cache(x_cache_words);

    for (std::uint64_t i = 0; i < n; ++i) {
        double acc = 0.0;
        for (std::uint64_t k = 0; k < row_nnz_; ++k) {
            val_buf.load(2); // one value word + one index word
            const std::uint32_t c = a.cols[i * row_nnz_ + k];
            x_cache.access(c, false); // gather through the x cache
            acc += a.vals[i * row_nnz_ + k] * x[c];
        }
        pad.compute(2 * row_nnz_);
        y[i] = acc;
        y_word.store(1);
    }

    MeasuredCost out;
    out.cost.comp_ops = static_cast<double>(pad.stats().comp_ops);
    out.cost.io_words =
        static_cast<double>(pad.stats().ioWords()) +
        static_cast<double>(x_cache.stats().misses);
    out.peak_memory = pad.stats().peak_usage + x_cache_words;

    if (verify && n <= kVerifyLimit) {
        const auto ref = spmvReference(a, x);
        double max_err = 0.0;
        for (std::uint64_t i = 0; i < n; ++i)
            max_err = std::max(max_err, std::fabs(ref[i] - y[i]));
        KB_ASSERT(max_err <= 1e-12 * static_cast<double>(row_nnz_),
                  "spmv diverges from reference");
        out.verified = true;
    }
    return out;
}

void
SpmvKernel::emitTrace(std::uint64_t n, std::uint64_t m,
                      TraceSink &sink) const
{
    KB_REQUIRE(m >= minMemory(n), "spmv needs m >= 8");
    const auto a = makeCsr(n, row_nnz_, 0xC5);

    const ArrayLayout vals(0, n * row_nnz_);
    const ArrayLayout cols(vals.end(), n * row_nnz_);
    const ArrayLayout lx(cols.end(), n);
    const ArrayLayout ly(lx.end(), n);

    for (std::uint64_t i = 0; i < n; ++i) {
        for (std::uint64_t k = 0; k < row_nnz_; ++k) {
            sink.onAccess(readOf(vals.at(i * row_nnz_ + k)));
            sink.onAccess(readOf(cols.at(i * row_nnz_ + k)));
            sink.onAccess(readOf(lx.at(a.cols[i * row_nnz_ + k])));
        }
        sink.onAccess(writeOf(ly.at(i)));
    }
}


namespace {

const KernelRegistrar kRegistrar{
    "spmv", [] { return std::make_unique<SpmvKernel>(); }, 11,
    /*compute_bound=*/false};

} // namespace

} // namespace kb
