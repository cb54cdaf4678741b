/**
 * @file
 * Sparse matrix-vector multiplication — the "sparse matrix operations
 * that have relatively high I/O requirements" the paper leans on in
 * Section 4 when it assumes scientific computation needs
 * M_new >= alpha^2 M_old *at best*.
 *
 * y = A x with A in CSR form (values + column indices), k nonzeros
 * per row. Every CSR word is used exactly once, so like dense matvec
 * the computation is I/O bounded: Ccomp = 2 nnz against
 * Cio >= 2 nnz (a value and an index per nonzero), plus gather
 * traffic for x that a local memory can only partially cache. R(M)
 * is bounded by 1 for every M: rebalancing by memory is impossible.
 *
 * The x gather runs through a real LRU cache of the remaining local
 * memory, so the measured curve shows the (bounded) benefit caching
 * x actually buys for a random sparsity pattern.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "kernels/kernel.hpp"

namespace kb {

/** CSR sparse matrix with a deterministic random pattern. */
struct CsrMatrix
{
    std::uint64_t n = 0;           ///< square dimension
    std::uint64_t row_nnz = 0;     ///< nonzeros per row
    std::vector<std::uint32_t> cols;
    std::vector<double> vals;
};

/** Build an n x n CSR matrix with @p row_nnz random nonzeros/row. */
CsrMatrix makeCsr(std::uint64_t n, std::uint64_t row_nnz,
                  std::uint64_t seed);

/** Reference dense-style SpMV, exposed for tests. */
std::vector<double> spmvReference(const CsrMatrix &a,
                                  const std::vector<double> &x);

/** Sparse matrix-vector product (I/O bounded), paper Section 4. */
class SpmvKernel : public Kernel
{
  public:
    /** @param row_nnz nonzeros per row of the generated matrices. */
    explicit SpmvKernel(std::uint64_t row_nnz = 8);

    std::string name() const override { return "spmv"; }

    std::string
    description() const override
    {
        return "CSR sparse matrix-vector product (I/O bounded)";
    }

    ScalingLaw law() const override { return ScalingLaw::impossible(); }

    double asymptoticRatio(std::uint64_t m) const override;
    WorkloadCost analyticCosts(std::uint64_t n,
                               std::uint64_t m) const override;
    MeasuredCost measure(std::uint64_t n, std::uint64_t m,
                         bool verify = true) const override;
    void emitTrace(std::uint64_t n, std::uint64_t m,
                   TraceSink &sink) const override;
    std::uint64_t minMemory(std::uint64_t n) const override;
    std::uint64_t suggestProblemSize(std::uint64_t m_max) const override;

    void
    defaultSweepRange(std::uint64_t &m_lo,
                      std::uint64_t &m_hi) const override
    {
        m_lo = 8;
        m_hi = 8192;
    }

    std::uint64_t rowNnz() const { return row_nnz_; }

  private:
    std::uint64_t row_nnz_;
};

} // namespace kb
