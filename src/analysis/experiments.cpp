#include "analysis/experiments.hpp"

#include <cstdio>

#include "kernels/registry.hpp"
#include "util/logging.hpp"

namespace kb {

namespace {

/** Default-range schedule-only sweep of one kernel. */
SweepJob
sweepOf(const std::string &kernel, unsigned points = 6)
{
    SweepJob job;
    job.kernel = kernel;
    job.points = points;
    return job;
}

/**
 * One default sweep per paper kernel, in paper order. E1 regenerates
 * the *paper's* Section 3 table, so this deliberately enumerates the
 * twelve built-ins rather than the whole registry: plug-in kernels
 * (stencil9, toy test kernels) have no paper row to match.
 */
std::vector<SweepJob>
allKernelSweeps(unsigned points)
{
    std::vector<SweepJob> jobs;
    for (const auto id : allKernelIds())
        jobs.push_back(sweepOf(kernelIdName(id), points));
    return jobs;
}

/**
 * E12's ablation grid, declaratively. Four headline jobs over the
 * same matmul regime (N = 160, M in {64..2048}):
 *
 *  * the schedule-follows-capacity disciplines: the scratchpad
 *    sample plus fully associative LRU and Belady OPT columns, each
 *    point replaying the schedule tiled for its own M;
 *  * three tile-headroom jobs (tile = M/2, M/4 and 3M/4 via
 *    schedule_headroom[_num]): the set-associative LRU/FIFO and
 *    random-replacement columns, each point replaying the schedule
 *    tiled for a fixed fraction of its capacity. Together the rows
 *    map where conflict thrashing sets in versus associativity
 *    headroom — 3M/4 leaves the least slack, M/4 the most.
 *
 * Plus the knee-localization block: the coarse rows showed the 8-way
 * LRU collapse somewhere between tile = M/2 (healthy) and tile =
 * 3M/4 (collapsed), so eleven finer jobs sweep the tile fraction
 * from 10/20 to 20/20 of M in 1/20 steps, 8-way LRU column only
 * (the bench reads each row's fraction off the resolved job's
 * schedule_headroom[_num] fields).
 */
std::vector<SweepJob>
e12AblationJobs()
{
    SweepJob tight;
    tight.kernel = "matmul";
    tight.m_lo = 64;
    tight.m_hi = 2048;
    tight.points = 6;
    tight.n_hint = 160;
    tight.models = {MemoryModelKind::Lru, MemoryModelKind::Opt};

    SweepJob headroom = tight;
    headroom.models = {MemoryModelKind::SetAssocLru,
                       MemoryModelKind::SetAssocFifo,
                       MemoryModelKind::RandomRepl};
    headroom.schedule_headroom = 2;
    headroom.models_only = true;

    SweepJob quarter = headroom; // tile = M/4
    quarter.schedule_headroom = 4;

    SweepJob three_quarter = headroom; // tile = 3M/4
    three_quarter.schedule_headroom = 4;
    three_quarter.schedule_headroom_num = 3;

    std::vector<SweepJob> jobs = {tight, headroom, quarter,
                                  three_quarter};
    for (std::uint64_t num = 10; num <= 20; ++num) {
        SweepJob knee = headroom; // tile = num/20 of M
        knee.models = {MemoryModelKind::SetAssocLru};
        knee.schedule_headroom = 20;
        knee.schedule_headroom_num = num;
        jobs.push_back(knee);
    }
    return jobs;
}

} // namespace

const std::vector<ExperimentInfo> &
allExperiments()
{
    static const std::vector<ExperimentInfo> table = [] {
        std::vector<ExperimentInfo> t = {
            {"E1", "Section 3 summary table",
             "all eight rebalancing laws recovered from measured curves",
             "bench_e1_summary_table", allKernelSweeps(6)},
            {"E2", "Section 3.1 (Eqs. 2-3), matrix multiplication",
             "R(M) ~ sqrt(M); M_new/M_old = alpha^2",
             "bench_e2_matmul", {sweepOf("matmul", 9)}},
            {"E3", "Section 3.2, matrix triangularization",
             "R(M) ~ sqrt(M) for blocked LU; law alpha^2",
             "bench_e3_triangularization", {sweepOf("triangularization", 8)}},
            {"E4", "Section 3.3, d-dimensional grid computation",
             "R(M) ~ M^(1/d); law alpha^d for d = 1..4",
             "bench_e4_grid",
             {sweepOf("grid1d", 5), sweepOf("grid2d", 5),
              sweepOf("grid3d", 5), sweepOf("grid4d", 5)}},
            {"E5", "Section 3.4 and Fig. 2, FFT",
             "Fig. 2 block structure at N=16, M=4; R(M) ~ log2 M; law "
             "M_old^alpha",
             "bench_e5_fft", {sweepOf("fft", 8)}},
            {"E6", "Section 3.5, sorting",
             "R(M) ~ log2 M for two-phase merge sort; law M_old^alpha",
             "bench_e6_sorting", {sweepOf("sorting", 6)}},
            {"E7", "Section 3.6, I/O-bounded computations",
             "flat R(M) for matvec and trisolve; rebalancing impossible",
             "bench_e7_io_bounded",
             {sweepOf("matvec", 7), sweepOf("trisolve", 7),
              sweepOf("spmv", 7)}},
            {"E8", "Section 4.1 and Fig. 3, linear processor array",
             "per-PE memory for >=95% utilization grows linearly in p",
             "bench_e8_linear_array", {}},
            {"E9", "Section 4.2 and Fig. 4, square processor array",
             "per-PE memory flat in p for matmul; grows for the 3-D grid",
             "bench_e9_mesh", {}},
            {"E10", "Hong-Kung optimality claims (3.1, 3.4, 3.5)",
             "pebble-game achieved I/O within a constant of the lower "
             "bounds",
             "bench_e10_pebble", {}},
            {"E11", "Section 5, CMU Warp remark",
             "Warp cell (10 MFLOPS, 20 Mwords/s, 64K words) balance "
             "across kernels",
             "bench_e11_warp", {}},
            // E12's set-associative rows tile the schedule for M/2
            // while the cache holds M (headroom against conflict
            // thrashing) — the per-point ratio schedule_headroom
            // expresses.
            {"E12", "design ablation (DESIGN.md, decision 2)",
             "balance exponents survive LRU / OPT / set-assoc memories",
             "bench_e12_memory_ablation", e12AblationJobs()},
        };
        return t;
    }();
    return table;
}

const ExperimentInfo &
experimentById(const std::string &id)
{
    for (const auto &e : allExperiments())
        if (e.id == id)
            return e;
    fatal("unknown experiment id " + id);
}

void
printExperimentBanner(const std::string &id)
{
    const auto &e = experimentById(id);
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", e.id.c_str(), e.paper_artifact.c_str());
    std::printf("claim: %s\n", e.claim.c_str());
    std::printf("==============================================================\n");
}

} // namespace kb
