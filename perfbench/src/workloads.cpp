#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <exception>

#include <malloc.h>
#include <sys/resource.h>

#include "analysis/experiments.hpp"
#include "engine/shard.hpp"
#include "kernels/registry.hpp"
#include "perfbench.hpp"
#include "util/binio.hpp"
#include "util/rng.hpp"

namespace perfbench {

using kb::MemoryModelKind;
using kb::SweepJob;

namespace {

/** Independent random stream per (seed, purpose). */
kb::SplitMix64
streamFor(std::uint64_t seed, std::uint64_t salt)
{
    return kb::SplitMix64(seed * 0x9e3779b97f4a7c15ULL ^ salt);
}

constexpr std::uint64_t kAblationSalt = 0xab1a;
constexpr std::uint64_t kOrderSalt = 0x0dde;
constexpr std::uint64_t kCheckSalt = 0xc4ec;

/**
 * Shift a fixed-schedule job's capacity grid by one factor in
 * [0.98, 1.02]: the curves are read at slightly different capacities
 * while the traced computation (schedule and problem size) stays put.
 * Jobs whose grid sets the computation (per-point schedules, E1's
 * regimes) are not shifted: there a 2% shift doubles the buffered OPT
 * trace's vector capacity in some E12 cells (a pass's peak RSS moved
 * from 150 MB to 250 MB between seeds) or quarters E1's fft problem.
 */
void
shiftGrid(SweepJob &job, kb::SplitMix64 &rng)
{
    const double f =
        1.0 + (static_cast<double>(rng.next() % 5) - 2.0) / 100.0;
    const auto lo = std::max<std::uint64_t>(
        2, static_cast<std::uint64_t>(std::llround(job.m_lo * f)));
    const auto hi = std::max<std::uint64_t>(
        lo + 1, static_cast<std::uint64_t>(std::llround(job.m_hi * f)));
    job.m_lo = lo;
    job.m_hi = hi;
}

/**
 * Permute @p items locally: after the first item, each neighbouring
 * pair is swapped with probability 1/2, no item moving more than one
 * place. The order differs from seed to seed while the mix of work at
 * the head and the tail of the pool's queue stays put:
 *  - the head job starts on every worker at once, so it sets how much
 *    memory is in flight (E12's buffered-OPT `tight` job leading puts
 *    four trace buffers up together: 250 MB against 150-180 MB);
 *  - a full shuffle moved e1_sweep's pass time by up to 40% between
 *    seeds by queueing the heaviest kernels last.
 */
template <typename T>
void
permuteLocally(std::vector<T> &items, kb::SplitMix64 &rng)
{
    for (std::size_t i = 1; i + 1 < items.size(); ++i)
        if (rng.next() & 1)
            std::swap(items[i], items[i + 1]), ++i;
}

/**
 * cold_ablation's jobs: the fixed-schedule all-models Cio(M) job of
 * matmul at its default range with schedule_m = m_hi (the 16.5M-word
 * trace), and of fft as a strided second access pattern. fft's range
 * stops at m = 512 (a 3.1M-word trace, problem size 2^18) so one pass
 * fits the run budget; at its default 1024 the job alone costs more
 * than the matmul job. The schedule and problem size stay fixed for
 * every seed, so only the capacities the curves are read at move.
 */
std::vector<SeededJob>
ablationJobs(std::uint64_t seed)
{
    auto rng = streamFor(seed, kAblationSalt);
    std::vector<SeededJob> out;
    for (const auto &[name, m_hi] :
         {std::pair<const char *, std::uint64_t>{"matmul", 0},
          std::pair<const char *, std::uint64_t>{"fft", 512}}) {
        const auto kernel = kb::KernelRegistry::instance().shared(name);
        std::uint64_t lo = 0, hi = 0;
        kernel->defaultSweepRange(lo, hi);
        SweepJob job;
        job.kernel = name;
        job.points = 8;
        job.m_lo = lo;
        job.m_hi = m_hi ? m_hi : hi;
        job.schedule_m = job.m_hi;
        job.n_hint = kernel->suggestProblemSize(job.m_hi);
        job.models = {MemoryModelKind::Lru, MemoryModelKind::SetAssocLru,
                      MemoryModelKind::Opt};
        job.models_only = true;
        shiftGrid(job, rng);
        out.push_back(SeededJob{job, out.size()});
    }
    return out;
}

/// E12's matrix order, scaled from the bench's 160 so a pass costs
/// about 5 s on four cores instead of 17 s (cost grows as N^3).
constexpr std::uint64_t kE12MatrixOrder = 112;

/** E12's ablation grid at kE12MatrixOrder. */
std::vector<SeededJob>
e12Jobs(std::size_t first_canonical)
{
    std::vector<SeededJob> out;
    for (SweepJob job : kb::experimentById("E12").sweep_jobs) {
        job.n_hint = kE12MatrixOrder;
        out.push_back(SeededJob{job, first_canonical + out.size()});
    }
    return out;
}

/** E1's twelve paper computations. */
std::vector<SeededJob>
e1Jobs()
{
    std::vector<SeededJob> out;
    for (const SweepJob &job : kb::experimentById("E1").sweep_jobs)
        out.push_back(SeededJob{job, out.size()});
    return out;
}

std::vector<SweepJob>
flatJobs(const Workload &w)
{
    std::vector<SeededJob> all;
    for (const auto &batch : w.batches)
        all.insert(all.end(), batch.begin(), batch.end());
    std::sort(all.begin(), all.end(),
              [](const SeededJob &a, const SeededJob &b) {
                  return a.canonical < b.canonical;
              });
    std::vector<SweepJob> jobs;
    for (const auto &s : all)
        jobs.push_back(s.job);
    return jobs;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "cold_ablation", "e12_replay", "e1_sweep", "warm_store"};
    return names;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &out)
{
    out = Workload{};
    out.name = name;
    out.seed = seed;
    if (name == "cold_ablation") {
        for (auto &job : ablationJobs(seed))
            out.batches.push_back({job});
        out.pooled = false;
    } else if (name == "e12_replay") {
        out.batches.push_back(e12Jobs(0));
    } else if (name == "e1_sweep") {
        out.batches.push_back(e1Jobs());
    } else if (name == "warm_store") {
        const auto ablation = ablationJobs(seed);
        for (const auto &job : ablation)
            out.batches.push_back({job});
        out.batches.push_back(e12Jobs(ablation.size()));
        out.warm = true;
    } else {
        return false;
    }
    // Jobs are permuted within each batch. Batches (separate engine.run
    // calls) keep their order: running cold_ablation's fft job before
    // its matmul job raises the process's peak memory by ~60 MB, as the
    // first job's freed memory stays in a worker's allocator arena.
    auto order = streamFor(seed, kOrderSalt);
    for (auto &batch : out.batches)
        permuteLocally(batch, order);
    return true;
}

std::vector<SweepJob>
forcedJobs(const Workload &w)
{
    auto jobs = flatJobs(w);
    for (auto &job : jobs)
        job.force_replay = true;
    return jobs;
}

std::size_t
cellCount(const kb::ExperimentEngine &engine, const Workload &w)
{
    const auto skeleton = engine.run(
        flatJobs(w), [](std::size_t, std::size_t) { return false; });
    return kb::gridCellCount(skeleton);
}

std::uint64_t
digestOf(const PassResults &results)
{
    kb::ByteWriter out;
    for (const auto &r : results) {
        out.u64(r.job_index);
        out.u64(r.points.size());
        for (const auto &p : r.points) {
            out.u64(p.sample.m);
            out.u64(std::bit_cast<std::uint64_t>(p.sample.ratio));
            out.u64(std::bit_cast<std::uint64_t>(p.sample.comp_ops));
            out.u64(std::bit_cast<std::uint64_t>(p.sample.io_words));
            out.vecU64(p.model_io);
        }
    }
    return kb::fnv1a64(out.bytes());
}

bool
sameCell(const kb::SweepPointResult &a, const kb::SweepPointResult &b)
{
    return a.sample.m == b.sample.m &&
           std::bit_cast<std::uint64_t>(a.sample.ratio) ==
               std::bit_cast<std::uint64_t>(b.sample.ratio) &&
           std::bit_cast<std::uint64_t>(a.sample.comp_ops) ==
               std::bit_cast<std::uint64_t>(b.sample.comp_ops) &&
           std::bit_cast<std::uint64_t>(a.sample.io_words) ==
               std::bit_cast<std::uint64_t>(b.sample.io_words) &&
           a.model_io == b.model_io;
}

void
prepareStore(const Workload &w, const std::string &dir)
{
    auto &store = kb::CurveStore::instance();
    store.setDiskDirectory(dir);
    if (!w.warm)
        store.clearDisk();
    store.clear();
}

void
populateStore(const Workload &w, const std::string &dir, unsigned threads)
{
    auto &store = kb::CurveStore::instance();
    store.setDiskDirectory(dir);
    store.clearDisk();
    store.clear();
    const kb::ExperimentEngine engine(threads);
    for (const auto &batch : w.batches) {
        std::vector<SweepJob> jobs;
        for (const auto &s : batch)
            jobs.push_back(s.job);
        (void)engine.run(jobs);
    }
}

namespace {

/**
 * Return free heap memory to the system and restart the kernel's RSS
 * high-water mark (VmHWM), so the next peakRssMb() is one pass's own
 * peak: otherwise it also holds whatever the allocator's per-thread
 * arenas retained from earlier passes, which depends on which worker
 * happened to run which task. Each pass then starts from what a fresh
 * process would hold, like the cleared tier 1.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** VmHWM of this process in MB (ru_maxrss when /proc is unreadable). */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.starts_with("VmHWM:"))
            return std::stod(line.substr(6)) / 1024.0; // kB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace

PassOutcome
runPass(const kb::ExperimentEngine &engine, const Workload &w,
        const std::string &store_dir)
{
    PassOutcome out;
    prepareStore(w, store_dir);
    std::size_t total = 0;
    for (const auto &batch : w.batches)
        total += batch.size();
    out.results.resize(total);
    resetPeakRss();
    const std::uint64_t emissions0 = kb::engineEmissionCount();
    const double cpu0 = processCpuSeconds();
    const double t0 = nowSeconds();
    try {
        for (const auto &batch : w.batches) {
            std::vector<SweepJob> jobs;
            for (const auto &s : batch)
                jobs.push_back(s.job);
            auto results = engine.run(jobs);
            for (std::size_t i = 0; i < batch.size(); ++i) {
                results[i].job_index = batch[i].canonical;
                out.results[batch[i].canonical] = std::move(results[i]);
            }
        }
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    out.wall_s = nowSeconds() - t0;
    out.cpu_s = processCpuSeconds() - cpu0;
    out.emissions = kb::engineEmissionCount() - emissions0;
    out.peak_rss_mb = peakRssMb();
    out.store = kb::CurveStore::instance().stats();
    return out;
}

std::string
checkPass(const Workload &w, const PassOutcome &pass,
          const Expectation &expect)
{
    if (!pass.error.empty())
        return "pass threw: " + pass.error;
    if (w.warm && pass.emissions != 0)
        return "warm pass emitted " + std::to_string(pass.emissions) +
               " traces";
    if (expect.digest && digestOf(pass.results) != *expect.digest)
        return "digest " + kb::toHex16(digestOf(pass.results)) +
               " != committed " + kb::toHex16(*expect.digest);
    for (const auto &[cell, want] : expect.oracle_cells) {
        const auto &[job, point] = cell;
        if (job >= pass.results.size() ||
            point >= pass.results[job].points.size() ||
            !sameCell(pass.results[job].points[point], want))
            return "cell (" + std::to_string(job) + ", " +
                   std::to_string(point) + ") differs from direct replay";
    }
    return "";
}

Expectation
crossCheckCells(const kb::ExperimentEngine &engine, const Workload &w,
                std::size_t cells)
{
    const auto jobs = forcedJobs(w);
    const auto skeleton = engine.run(
        jobs, [](std::size_t, std::size_t) { return false; });
    const std::size_t total = kb::gridCellCount(skeleton);
    auto rng = streamFor(w.seed, kCheckSalt);
    std::set<std::pair<std::size_t, std::size_t>> chosen;
    while (chosen.size() < std::min(cells, total)) {
        std::size_t job = 0, point = 0;
        kb::cellCoordinates(skeleton, rng.next() % total, job, point);
        chosen.emplace(job, point);
    }
    const auto oracle = engine.run(
        jobs, [&chosen](std::size_t job, std::size_t point) {
            return chosen.count({job, point}) != 0;
        });
    Expectation expect;
    for (const auto &cell : chosen)
        expect.oracle_cells[cell] = oracle[cell.first].points[cell.second];
    return expect;
}

std::optional<std::uint64_t>
committedDigest(const std::string &path, const std::string &workload,
                std::uint64_t seed)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name, hex;
        std::uint64_t s = 0, digest = 0;
        if (fields >> name >> s >> hex && name == workload && s == seed &&
            kb::fromHex16(hex, digest))
            return digest;
    }
    return std::nullopt;
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace perfbench
