#include "kernels/sort.hpp"

#include "kernels/registry.hpp"

#include <algorithm>
#include <cmath>

#include "mem/scratchpad.hpp"
#include "util/intmath.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace kb {

namespace {

constexpr std::uint64_t kVerifyLimit = 1u << 22;

/** Min-heap of (key, source run) pairs with comparison counting. */
class MergeHeap
{
  public:
    void
    push(std::uint64_t key, std::uint32_t run, std::uint64_t &comps)
    {
        heap_.push_back({key, run});
        std::size_t i = heap_.size() - 1;
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            ++comps;
            if (heap_[parent].key <= heap_[i].key)
                break;
            std::swap(heap_[parent], heap_[i]);
            i = parent;
        }
    }

    std::pair<std::uint64_t, std::uint32_t>
    pop(std::uint64_t &comps)
    {
        KB_ASSERT(!heap_.empty());
        const auto top = heap_.front();
        heap_.front() = heap_.back();
        heap_.pop_back();
        std::size_t i = 0;
        while (true) {
            const std::size_t l = 2 * i + 1, r = 2 * i + 2;
            std::size_t best = i;
            if (l < heap_.size()) {
                ++comps;
                if (heap_[l].key < heap_[best].key)
                    best = l;
            }
            if (r < heap_.size()) {
                ++comps;
                if (heap_[r].key < heap_[best].key)
                    best = r;
            }
            if (best == i)
                break;
            std::swap(heap_[i], heap_[best]);
            i = best;
        }
        return {top.key, top.run};
    }

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

  private:
    struct Entry
    {
        std::uint64_t key;
        std::uint32_t run;
    };
    std::vector<Entry> heap_;
};

} // namespace

std::uint64_t
countingMergeSort(std::vector<std::uint64_t> &keys)
{
    const std::size_t n = keys.size();
    std::vector<std::uint64_t> tmp(n);
    std::uint64_t comps = 0;
    for (std::size_t width = 1; width < n; width *= 2) {
        for (std::size_t lo = 0; lo < n; lo += 2 * width) {
            const std::size_t mid = std::min(lo + width, n);
            const std::size_t hi = std::min(lo + 2 * width, n);
            std::size_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi) {
                ++comps;
                tmp[k++] = keys[j] < keys[i] ? keys[j++] : keys[i++];
            }
            while (i < mid)
                tmp[k++] = keys[i++];
            while (j < hi)
                tmp[k++] = keys[j++];
        }
        keys.swap(tmp);
    }
    return comps;
}

std::vector<std::uint64_t>
sortInput(std::uint64_t n, std::uint64_t seed)
{
    Xoshiro256 rng(seed);
    std::vector<std::uint64_t> keys(n);
    for (auto &k : keys)
        k = rng.next();
    return keys;
}

std::uint64_t
SortKernel::minMemory(std::uint64_t) const
{
    return 8; // a few heap entries plus staging
}

std::uint64_t
SortKernel::suggestProblemSize(std::uint64_t m_max) const
{
    // Enough runs at the largest memory that phase 2 dominates the
    // leading order.
    return std::clamp<std::uint64_t>(64 * m_max, 1u << 16, 1u << 22);
}

double
SortKernel::asymptoticRatio(std::uint64_t m) const
{
    return std::log2(static_cast<double>(m));
}

WorkloadCost
SortKernel::analyticCosts(std::uint64_t n, std::uint64_t m) const
{
    const double dn = static_cast<double>(n);
    const double dm = static_cast<double>(m);
    const double passes =
        std::max(1.0, std::ceil(std::log(dn / dm) / std::log(dm - 1)));
    WorkloadCost cost;
    cost.comp_ops = dn * std::log2(dn); // total comparisons
    cost.io_words = 2.0 * dn * (1.0 + passes);
    return cost;
}

MeasuredCost
SortKernel::measure(std::uint64_t n, std::uint64_t m, bool verify) const
{
    KB_REQUIRE(n >= 1, "sort needs n >= 1");
    KB_REQUIRE(m >= minMemory(n), "sort needs m >= 8");

    const auto input = sortInput(n, 0x5);
    Scratchpad pad(m);

    // Phase 1: in-core runs of M keys.
    std::vector<std::vector<std::uint64_t>> runs;
    for (std::uint64_t off = 0; off < n; off += m) {
        const std::uint64_t len = std::min(m, n - off);
        ScopedBuffer buf(pad, len, "phase-1 run");
        buf.load();
        std::vector<std::uint64_t> run(input.begin() + off,
                                       input.begin() + off + len);
        pad.compute(countingMergeSort(run));
        buf.store();
        runs.push_back(std::move(run));
    }

    // Phase 2: (M-1)-way merges until one run remains. One heap entry
    // plus one staging word must fit in M.
    const std::uint64_t fan = m - 1;
    while (runs.size() > 1) {
        std::vector<std::vector<std::uint64_t>> next_runs;
        for (std::size_t g0 = 0; g0 < runs.size(); g0 += fan) {
            const std::size_t g1 = std::min(g0 + fan, runs.size());
            const std::size_t ways = g1 - g0;
            if (ways == 1) {
                next_runs.push_back(std::move(runs[g0]));
                continue;
            }

            ScopedBuffer heap_buf(pad, ways, "merge heap");
            ScopedBuffer stage(pad, 1, "output word");
            MergeHeap heap;
            std::vector<std::size_t> cursor(ways, 0);
            std::uint64_t comps = 0;
            std::vector<std::uint64_t> merged;

            for (std::size_t r = 0; r < ways; ++r) {
                heap_buf.load(1); // first key of each run
                heap.push(runs[g0 + r][0], static_cast<std::uint32_t>(r),
                          comps);
                cursor[r] = 1;
            }
            while (!heap.empty()) {
                const auto [key, r] = heap.pop(comps);
                merged.push_back(key);
                stage.store(1);
                if (cursor[r] < runs[g0 + r].size()) {
                    heap_buf.load(1);
                    heap.push(runs[g0 + r][cursor[r]++], r, comps);
                }
            }
            pad.compute(comps);
            next_runs.push_back(std::move(merged));
        }
        runs.swap(next_runs);
    }

    MeasuredCost out;
    out.cost.comp_ops = static_cast<double>(pad.stats().comp_ops);
    out.cost.io_words = static_cast<double>(pad.stats().ioWords());
    out.peak_memory = pad.stats().peak_usage;

    if (verify && n <= kVerifyLimit) {
        auto ref = input;
        std::sort(ref.begin(), ref.end());
        KB_ASSERT(runs.size() == 1 && runs[0] == ref,
                  "external sort produced a wrong ordering");
        out.verified = true;
    }
    return out;
}

void
SortKernel::emitTrace(std::uint64_t n, std::uint64_t m,
                      TraceSink &sink) const
{
    KB_REQUIRE(m >= minMemory(n), "sort needs m >= 8");

    // Address map: input at [0, n); each phase writes fresh ranges.
    std::uint64_t next_base = n;

    // Phase 1: read each run from the input range, write it to a new
    // run range.
    struct RunRange
    {
        std::uint64_t base;
        std::uint64_t len;
    };
    std::vector<RunRange> runs;
    for (std::uint64_t off = 0; off < n; off += m) {
        const std::uint64_t len = std::min(m, n - off);
        sink.onRun(off, len, AccessType::Read);
        sink.onRun(next_base, len, AccessType::Write);
        runs.push_back({next_base, len});
        next_base += len;
    }

    const std::uint64_t fan = m - 1;
    while (runs.size() > 1) {
        std::vector<RunRange> next_runs;
        for (std::size_t g0 = 0; g0 < runs.size(); g0 += fan) {
            const std::size_t g1 = std::min(g0 + fan, runs.size());
            if (g1 - g0 == 1) {
                next_runs.push_back(runs[g0]);
                continue;
            }
            std::uint64_t total = 0;
            // Deterministic interleave approximating the data-driven
            // merge order: round-robin over the input runs.
            std::vector<std::uint64_t> pos(g1 - g0, 0);
            const std::uint64_t out_base = next_base;
            bool any = true;
            while (any) {
                any = false;
                for (std::size_t r = 0; r < g1 - g0; ++r) {
                    if (pos[r] < runs[g0 + r].len) {
                        sink.onAccess(
                            readOf(runs[g0 + r].base + pos[r]++));
                        sink.onAccess(writeOf(out_base + total++));
                        any = true;
                    }
                }
            }
            next_runs.push_back({out_base, total});
            next_base += total;
        }
        runs.swap(next_runs);
    }
}


namespace {

const KernelRegistrar kRegistrar{
    "sorting", [] { return std::make_unique<SortKernel>(); }, 8,
    /*compute_bound=*/true};

} // namespace

} // namespace kb
