#include "parallel/workloads.hpp"

#include <algorithm>

#include "util/intmath.hpp"
#include "util/logging.hpp"

namespace kb {

namespace {

/** Largest B such that cost(B) <= budget, by binary search. */
template <typename CostFn>
std::uint64_t
largestEdge(std::uint64_t budget, std::uint64_t cap, CostFn &&cost)
{
    std::uint64_t lo = 1, hi = cap;
    if (cost(1) > budget)
        return 0;
    while (lo + 1 < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (cost(mid) <= budget)
            lo = mid;
        else
            hi = mid;
    }
    return cost(hi) <= budget ? hi : lo;
}

} // namespace

ArrayWorkload
matmulLinearWorkload(std::uint64_t n, std::uint64_t p,
                     std::uint64_t m_pe, double ops_rate,
                     double host_rate)
{
    KB_REQUIRE(n >= 1 && p >= 1 && m_pe >= 4, "bad workload params");

    // Per-PE footprint for a distributed B x B tile of C: a column
    // slab of ceil(B/p) columns (B * ceil(B/p) words), a full A strip
    // (B words, broadcast along the chain), and its B-strip segment
    // (ceil(B/p) words), double buffered strips.
    auto per_pe_cost = [&](std::uint64_t b) {
        const std::uint64_t cols = ceilDiv(b, p);
        return b * cols + 2 * (b + cols);
    };
    const std::uint64_t b =
        largestEdge(m_pe, std::max<std::uint64_t>(n, 2), per_pe_cost);
    KB_REQUIRE(b >= 1, "per-PE memory too small for any tile");

    ArrayWorkload wl;
    wl.block_edge = b;
    wl.machine = ArrayMachine{p, ops_rate, host_rate, 1.0, p};

    const std::uint64_t tiles = ceilDiv(n, b) * ceilDiv(n, b);
    const std::uint64_t cols = ceilDiv(b, p);
    for (std::uint64_t tile = 0; tile < tiles; ++tile) {
        // n k-steps: a-strip (B) + b-strip (B) enter; each PE does a
        // rank-1 update of its slab.
        wl.steps.push_back(StepWorkload{
            static_cast<double>(2 * b), 0.0,
            static_cast<double>(2 * b * cols), n});
        // Drain the finished tile.
        wl.steps.push_back(
            StepWorkload{0.0, static_cast<double>(b * b), 0.0});
    }
    return wl;
}

ArrayWorkload
matmulMeshWorkload(std::uint64_t n, std::uint64_t p, std::uint64_t m_pe,
                   double ops_rate, double host_rate)
{
    KB_REQUIRE(n >= 1 && p >= 1 && m_pe >= 4, "bad workload params");

    // Each PE holds a (B/p)^2 sub-tile of C plus strip segments.
    auto per_pe_cost = [&](std::uint64_t b) {
        const std::uint64_t seg = ceilDiv(b, p);
        return seg * seg + 4 * seg;
    };
    const std::uint64_t b =
        largestEdge(m_pe, std::max<std::uint64_t>(n, 2), per_pe_cost);
    KB_REQUIRE(b >= 1, "per-PE memory too small for any tile");

    ArrayWorkload wl;
    wl.block_edge = b;
    // p boundary ports share the host traffic; pipeline depth p hops.
    wl.machine =
        ArrayMachine{p * p, ops_rate, host_rate * static_cast<double>(p),
                     1.0, p};

    const std::uint64_t tiles = ceilDiv(n, b) * ceilDiv(n, b);
    const std::uint64_t seg = ceilDiv(b, p);
    for (std::uint64_t tile = 0; tile < tiles; ++tile) {
        wl.steps.push_back(StepWorkload{
            static_cast<double>(2 * b), 0.0,
            static_cast<double>(2 * seg * seg), n});
        wl.steps.push_back(
            StepWorkload{0.0, static_cast<double>(b * b), 0.0});
    }
    return wl;
}

ArrayWorkload
grid3dMeshWorkload(std::uint64_t g, std::uint64_t t, std::uint64_t p,
                   std::uint64_t m_pe, double ops_rate, double host_rate)
{
    KB_REQUIRE(g >= 4 && t >= 1 && p >= 1 && m_pe >= 16,
               "bad workload params");

    // The array's aggregate memory holds a halo-extended cube of edge
    // E (double buffered): 2 E^3 <= p^2 m_pe. tau = E/4 sweeps per
    // load, writing back the S = E/2 core.
    const std::uint64_t e_max = iroot(p * p * m_pe / 2, 3);
    KB_REQUIRE(e_max >= 3, "per-PE memory too small for a 3-D block");
    const std::uint64_t e = std::min<std::uint64_t>(e_max, g);
    const std::uint64_t tau =
        std::max<std::uint64_t>(1, std::min((e - 1) / 4, t));
    const std::uint64_t s = std::max<std::uint64_t>(e - 2 * tau, 1);

    ArrayWorkload wl;
    wl.block_edge = e;
    wl.machine =
        ArrayMachine{p * p, ops_rate, host_rate * static_cast<double>(p),
                     1.0, p};

    const std::uint64_t blocks_per_dim = ceilDiv(g, s);
    const std::uint64_t blocks =
        blocks_per_dim * blocks_per_dim * blocks_per_dim;
    const std::uint64_t rounds = ceilDiv(t, tau);

    // All macro-steps are identical, so steady-state utilization does
    // not depend on how many we play; cap the count so undersized
    // memories (thousands of tiny blocks) stay quick to simulate.
    constexpr std::uint64_t kMaxSteps = 20000;
    const std::uint64_t total = rounds * blocks;
    const std::uint64_t emit = std::min(total, kMaxSteps);

    // Ops per block: tau shrinking sweeps at 9 ops/cell, spread over
    // p^2 PEs.
    double block_ops = 0.0;
    for (std::uint64_t step = 1; step <= tau; ++step) {
        const double edge = static_cast<double>(e) -
                            2.0 * static_cast<double>(step);
        const double eff = std::max(edge, 1.0);
        block_ops += 9.0 * eff * eff * eff;
    }

    wl.steps.push_back(StepWorkload{
        static_cast<double>(e * e * e), static_cast<double>(s * s * s),
        block_ops / static_cast<double>(p * p), emit});
    return wl;
}

} // namespace kb
