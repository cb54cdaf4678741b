#include "bench/driver.hpp"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "analysis/experiments.hpp"
#include "engine/curve_store.hpp"
#include "engine/orchestrator.hpp"
#include "engine/shard.hpp"
#include "kernels/registry.hpp"
#include "trace/reuse.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace kb {
namespace bench {

namespace {

/**
 * Thrown by runJobs() after a --cells or --shard run has written its
 * fragment: the bench body's report would be meaningless on a partial
 * grid, so the driver unwinds out of it and exits 0. Internal to the
 * driver — bench bodies just run runJobs() and never see it.
 */
struct ShardFragmentWritten
{
    std::string path;
};

void
printUsage(const char *prog, const char *experiment,
           const BenchCaps &caps)
{
    std::fprintf(stderr,
                 "usage: %s [options]\n"
                 "\n"
                 "%s%s"
                 "options:\n",
                 prog, experiment ? experiment : "",
                 experiment ? ": see analysis/experiments.hpp\n\n" : "");
    if (caps.kernels)
        std::fprintf(
            stderr,
            "  --kernel NAME[,NAME...]  restrict sweeps to these "
            "kernels\n"
            "                           (repeatable; see "
            "--list-kernels)\n");
    if (caps.points)
        std::fprintf(
            stderr,
            "  --points N               sweep samples per curve "
            "(>= 3)\n");
    if (caps.threads)
        std::fprintf(
            stderr,
            "  --threads N              engine worker threads (0 = "
            "all\n"
            "                           hardware threads; output is\n"
            "                           identical for every N)\n");
    std::fprintf(
        stderr,
        "  --analyzer PATH          set-associative row-scan path:\n"
        "                           scalar or simd (default: the\n"
        "                           KB_ANALYZER env var, else simd).\n"
        "                           Curves are bit-identical for\n"
        "                           every path\n");
    if (caps.perf_json)
        std::fprintf(
            stderr,
            "  --perf-json PATH         measure and write the perf "
            "report\n"
            "                           (JSON) instead of the normal "
            "tables\n");
    if (caps.shard)
        std::fprintf(
            stderr,
            "  --shard I/N              run the I-th of N contiguous "
            "cell\n"
            "                           ranges and write a fragment\n"
            "                           (see --shard-out)\n"
            "  --cells LO-HI            run linearized grid cells "
            "[LO, HI)\n"
            "                           and stream a fragment (the\n"
            "                           orchestrator's worker flag)\n"
            "  --shard-out PATH         fragment path for "
            "--shard/--cells\n"
            "  --merge F0,F1,...        reassemble fragments and "
            "print the\n"
            "                           report (byte-identical to an\n"
            "                           unsharded run; repeatable)\n"
            "  --jobs N                 run the grid through the "
            "work-queue\n"
            "                           coordinator with N worker\n"
            "                           subprocesses of this binary "
            "(retries,\n"
            "                           progress deadlines; report\n"
            "                           byte-identical to the "
            "unsharded run)\n");
    std::fprintf(
        stderr,
        "  --curve-store DIR        persist single-pass curves in DIR\n"
        "                           (two-tier store; same as\n"
        "                           KB_CURVE_CACHE_DIR)\n"
        "  --store-fsck             integrity-scan the store "
        "directory,\n"
        "                           remove corrupt entries and stale\n"
        "                           temps, and exit\n"
        "  --csv PATH               write the bench's CSV series here\n"
        "  --no-csv                 suppress CSV side outputs\n"
        "  --list-kernels           print registered kernels and exit\n"
        "  --list-analyzers         print analyzer paths (with the\n"
        "                           resolved SIMD ISA) and exit\n"
        "  --help                   this text\n");
}

void
listKernels()
{
    const auto &registry = KernelRegistry::instance();
    for (const auto &name : registry.names()) {
        const auto kernel = registry.shared(name);
        std::printf("%-18s %s\n", name.c_str(),
                    kernel->description().c_str());
    }
}

void
listAnalyzers()
{
    std::printf("%-18s %s\n", analyzerPathName(AnalyzerPath::Scalar),
                "original per-word loops (the bit-exactness oracle)");
    std::printf("%-18s %s (resolved ISA: %s)\n",
                analyzerPathName(AnalyzerPath::Simd),
                "vectorized row scans, MarkRank block scans and the "
                "run-block shortcut",
                analyzerSimdIsa());
}

bool
splitCommaList(const std::string &arg, std::vector<std::string> &out)
{
    std::stringstream ss(arg);
    std::string item;
    bool any = false;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        out.push_back(item);
        any = true;
    }
    return any;
}

} // namespace

BenchContext::BenchContext(DriverOptions opts, std::string experiment)
    : opts_(std::move(opts)), experiment_(std::move(experiment)),
      engine_(opts_.threads)
{
}

unsigned
BenchContext::points(unsigned fallback) const
{
    return opts_.points != 0 ? opts_.points : fallback;
}

std::vector<std::string>
BenchContext::kernels(std::vector<std::string> fallback) const
{
    if (!opts_.kernels.empty())
        return opts_.kernels;
    if (!fallback.empty())
        return fallback;
    return KernelRegistry::instance().names();
}

RatioCurve
BenchContext::curve(const std::string &kernel,
                    unsigned fallback_points) const
{
    SweepJob job;
    job.kernel = kernel;
    job.points = points(fallback_points);
    return toRatioCurve(engine_.runOne(job));
}

std::vector<SweepResult>
BenchContext::runJobs(const std::vector<SweepJob> &jobs) const
{
    if (!opts_.merge_paths.empty()) {
        // Resolve the grid without measuring anything (a filter that
        // owns no cell), then fill it from the fragments.
        auto skeleton =
            engine_.run(jobs, [](std::size_t, std::size_t) {
                return false;
            });
        mergeShardFragments(skeleton, opts_.merge_paths);
        return skeleton;
    }
    if (opts_.jobs >= 2) {
        // One-command orchestration: re-exec this very invocation as
        // --cells workers under the work-queue coordinator (minus
        // --jobs), then merge their fragments exactly like --merge
        // would. Progress and failures go to stderr; stdout stays
        // byte-identical to an unsharded run.
        auto skeleton =
            engine_.run(jobs, [](std::size_t, std::size_t) {
                return false;
            });
        const std::size_t total = gridCellCount(skeleton);
        if (total == 0)
            return skeleton;
        // A corrupt entry in a shared store costs every worker a
        // reject-and-recompute; scrub the directory once up front.
        const std::string store_dir =
            CurveStore::instance().diskDirectory();
        if (!store_dir.empty()) {
            const CurveStoreFsck scrub = CurveStore::fsck(store_dir,
                                                          true);
            if (scrub.corrupt_removed != 0 || scrub.tmp_removed != 0)
                std::fprintf(stderr,
                             "curve store fsck: removed %zu corrupt "
                             "entries and %zu temp files from %s\n",
                             scrub.corrupt_removed, scrub.tmp_removed,
                             store_dir.c_str());
        }
        OrchestratorSpec spec;
        spec.program = opts_.self_program;
        spec.args = opts_.self_args;
        spec.jobs = opts_.jobs;
        spec.total_cells = total;
        spec.expect_signature = toHex16(sweepSignature(skeleton));
        std::fprintf(stderr,
                     "orchestrating %zu cells across %u workers of "
                     "%s\n",
                     total, opts_.jobs, spec.program.c_str());
        const auto run = orchestrateSweep(spec);
        KB_REQUIRE(run.ok, "orchestrated sweep failed: ", run.error);
        mergeShardFragments(skeleton, run.fragments);
        const auto &st = run.stats;
        std::fprintf(stderr,
                     "orchestrator: %zu slices, %zu dispatched "
                     "(%zu retried, %zu speculative), %zu deadline "
                     "kills, %zu fragments rejected, wall %.2fs, "
                     "busy %.2fs\n",
                     st.slices, st.dispatched, st.retried,
                     st.speculative, st.workers_killed,
                     st.fragments_rejected, st.wall_s, st.busy_s);
        removeOrchestratorScratch(run.scratch_dir);
        return skeleton;
    }
    if (!opts_.cells.empty() || !opts_.shard.empty()) {
        const auto skeleton =
            engine_.run(jobs, [](std::size_t, std::size_t) {
                return false;
            });
        const std::size_t total = gridCellCount(skeleton);
        // --shard i/N is shorthand for the i-th of N near-equal
        // contiguous cell ranges.
        CellRange range;
        std::string path = opts_.shard_out;
        if (!opts_.shard.empty()) {
            ShardSpec spec;
            KB_REQUIRE(parseShardSpec(opts_.shard, spec),
                       "bad --shard value '", opts_.shard,
                       "' (expected I/N with I < N)");
            range = shardCellRange(spec, total);
            if (path.empty())
                path = "shard_" + std::to_string(spec.index) + "_of_" +
                       std::to_string(spec.count) + ".kbshard";
        } else {
            KB_REQUIRE(parseCellRange(opts_.cells, range),
                       "bad --cells value '", opts_.cells,
                       "' (expected LO-HI with LO < HI)");
            KB_REQUIRE(range.hi <= total, "--cells ", opts_.cells,
                       " is outside the ", total, "-cell grid");
            if (path.empty())
                path = "cells_" + std::to_string(range.lo) + "_" +
                       std::to_string(range.hi) + ".kbshard";
        }
        writeCellRangeFragment(engine_, jobs, skeleton, range, path);
        throw ShardFragmentWritten{path};
    }
    return engine_.run(jobs);
}

std::vector<SweepResult>
BenchContext::experimentSweeps() const
{
    auto jobs = experimentById(experiment_).sweep_jobs;
    if (!opts_.kernels.empty()) {
        std::vector<SweepJob> filtered;
        for (const auto &job : jobs)
            for (const auto &want : opts_.kernels)
                if (job.kernel == want)
                    filtered.push_back(job);
        if (filtered.empty())
            warn("--kernel selected none of " + experiment_ +
                 "'s declared sweeps; its tables will be empty");
        jobs = std::move(filtered);
    }
    if (opts_.points != 0)
        for (auto &job : jobs)
            job.points = opts_.points;
    return runJobs(jobs);
}

std::unique_ptr<CsvWriter>
BenchContext::csv(const std::string &default_path,
                  std::vector<std::string> headers) const
{
    if (opts_.no_csv)
        return nullptr;
    const std::string &path =
        opts_.csv_path.empty() ? default_path : opts_.csv_path;
    return std::make_unique<CsvWriter>(path, std::move(headers));
}

std::string
BenchContext::csvNote(const std::string &default_path) const
{
    if (opts_.no_csv)
        return "";
    const std::string &path =
        opts_.csv_path.empty() ? default_path : opts_.csv_path;
    return "(series written to " + path + ")";
}

void
printCurveTable(std::ostream &os, const RatioCurve &curve,
                const char *shape_header,
                const std::function<double(const RatioSample &)> &shape)
{
    std::vector<std::string> headers = {"M (words)", "Ccomp", "Cio",
                                        "R(M)"};
    if (shape_header != nullptr)
        headers.push_back(shape_header);
    TextTable table(headers);
    for (const auto &s : curve.samples) {
        auto &row = table.row();
        row.cell(s.m).cell(s.comp_ops, 4).cell(s.io_words, 4).cell(
            s.ratio, 4);
        if (shape_header != nullptr)
            row.cell(shape ? shape(s) : 0.0, 3);
    }
    table.print(os);
}

int
runBench(int argc, char **argv, const char *experiment,
         const std::function<int(BenchContext &)> &body,
         const BenchCaps &caps)
{
    DriverOptions opts;
    const char *prog = argc > 0 ? argv[0] : "bench";
    auto unsupported = [&](const char *flag) {
        std::fprintf(stderr, "%s: this bench does not take %s\n", prog,
                     flag);
        return 2;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n", prog,
                             flag);
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            printUsage(prog, experiment, caps);
            return 0;
        } else if (arg == "--list-kernels") {
            listKernels();
            return 0;
        } else if (arg == "--list-analyzers") {
            listAnalyzers();
            return 0;
        } else if (arg == "--analyzer") {
            const char *v = value("--analyzer");
            if (v == nullptr)
                return 2;
            opts.analyzer = v;
        } else if (arg == "--kernel") {
            if (!caps.kernels)
                return unsupported("--kernel");
            const char *v = value("--kernel");
            if (v == nullptr || !splitCommaList(v, opts.kernels)) {
                printUsage(prog, experiment, caps);
                return 2;
            }
        } else if (arg == "--points") {
            if (!caps.points)
                return unsupported("--points");
            const char *v = value("--points");
            if (v == nullptr)
                return 2;
            opts.points = static_cast<unsigned>(std::atoi(v));
            if (opts.points < 3) {
                std::fprintf(stderr, "%s: --points must be >= 3\n",
                             prog);
                return 2;
            }
        } else if (arg == "--threads") {
            if (!caps.threads)
                return unsupported("--threads");
            const char *v = value("--threads");
            if (v == nullptr)
                return 2;
            const int n = std::atoi(v);
            if (n < 0) {
                std::fprintf(stderr, "%s: --threads must be >= 0\n",
                             prog);
                return 2;
            }
            opts.threads = static_cast<unsigned>(n);
        } else if (arg == "--perf-json") {
            if (!caps.perf_json)
                return unsupported("--perf-json");
            const char *v = value("--perf-json");
            if (v == nullptr)
                return 2;
            opts.perf_json = v;
        } else if (arg == "--shard") {
            if (!caps.shard)
                return unsupported("--shard");
            const char *v = value("--shard");
            if (v == nullptr)
                return 2;
            opts.shard = v;
            ShardSpec spec;
            if (!parseShardSpec(opts.shard, spec)) {
                std::fprintf(stderr,
                             "%s: --shard wants I/N with I < N, got "
                             "'%s'\n",
                             prog, v);
                return 2;
            }
        } else if (arg == "--cells") {
            if (!caps.shard)
                return unsupported("--cells");
            const char *v = value("--cells");
            if (v == nullptr)
                return 2;
            opts.cells = v;
            CellRange range;
            if (!parseCellRange(opts.cells, range)) {
                std::fprintf(stderr,
                             "%s: --cells wants LO-HI with LO < HI, "
                             "got '%s'\n",
                             prog, v);
                return 2;
            }
        } else if (arg == "--shard-out") {
            if (!caps.shard)
                return unsupported("--shard-out");
            const char *v = value("--shard-out");
            if (v == nullptr)
                return 2;
            opts.shard_out = v;
        } else if (arg == "--merge") {
            if (!caps.shard)
                return unsupported("--merge");
            const char *v = value("--merge");
            if (v == nullptr || !splitCommaList(v, opts.merge_paths)) {
                printUsage(prog, experiment, caps);
                return 2;
            }
        } else if (arg == "--jobs") {
            if (!caps.shard)
                return unsupported("--jobs");
            const char *v = value("--jobs");
            if (v == nullptr)
                return 2;
            const int n = std::atoi(v);
            if (n < 1) {
                std::fprintf(stderr, "%s: --jobs must be >= 1\n",
                             prog);
                return 2;
            }
            opts.jobs = static_cast<unsigned>(n);
        } else if (arg == "--curve-store") {
            const char *v = value("--curve-store");
            if (v == nullptr)
                return 2;
            opts.curve_store_dir = v;
        } else if (arg == "--store-fsck") {
            opts.store_fsck = true;
        } else if (arg == "--csv") {
            const char *v = value("--csv");
            if (v == nullptr)
                return 2;
            opts.csv_path = v;
        } else if (arg == "--no-csv") {
            opts.no_csv = true;
        } else {
            std::fprintf(stderr, "%s: unknown option %s\n", prog,
                         arg.c_str());
            printUsage(prog, experiment, caps);
            return 2;
        }
    }

    // Validate --kernel names up front, against the registry.
    for (const auto &name : opts.kernels) {
        if (!KernelRegistry::instance().contains(name)) {
            std::fprintf(stderr,
                         "%s: unknown kernel '%s' (try --list-kernels)\n",
                         prog, name.c_str());
            return 2;
        }
    }
    // Validate and apply --analyzer: the process-wide default covers
    // every analyzer this run constructs, and --jobs workers inherit
    // the flag via self_args.
    if (!opts.analyzer.empty()) {
        AnalyzerPath path;
        if (!parseAnalyzerPath(opts.analyzer, path)) {
            std::fprintf(stderr,
                         "%s: unknown analyzer path '%s' (valid: "
                         "scalar, simd; try --list-analyzers)\n",
                         prog, opts.analyzer.c_str());
            return 2;
        }
        setActiveAnalyzerPath(path);
    }
    {
        const int partitions = (!opts.shard.empty() ? 1 : 0) +
                               (!opts.cells.empty() ? 1 : 0) +
                               (!opts.merge_paths.empty() ? 1 : 0);
        if (partitions > 1) {
            std::fprintf(stderr,
                         "%s: --shard, --cells and --merge are "
                         "mutually exclusive\n",
                         prog);
            return 2;
        }
        if (opts.jobs != 0 && partitions != 0) {
            std::fprintf(stderr,
                         "%s: --jobs already shards and merges; it is "
                         "mutually exclusive with "
                         "--shard/--cells/--merge\n",
                         prog);
            return 2;
        }
        // The perf report times a fixed grid of its own; running it
        // instead would leave a caller waiting for a fragment or a
        // merged report that never appears.
        if (!opts.perf_json.empty() && (partitions != 0 || opts.jobs != 0)) {
            std::fprintf(stderr,
                         "%s: --perf-json does not take "
                         "--shard/--cells/--merge/--jobs\n",
                         prog);
            return 2;
        }
    }
    // Record the invocation for --jobs re-execs: everything except
    // --jobs itself (children must not recurse into orchestration).
    opts.self_program = prog;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--jobs") {
            ++i; // skip its value too
            continue;
        }
        opts.self_args.push_back(argv[i]);
    }
    if (!opts.curve_store_dir.empty())
        CurveStore::instance().setDiskDirectory(opts.curve_store_dir);

    if (opts.store_fsck) {
        std::string dir = opts.curve_store_dir;
        if (dir.empty())
            if (const char *env = std::getenv("KB_CURVE_CACHE_DIR");
                env != nullptr)
                dir = env;
        if (dir.empty()) {
            std::fprintf(stderr,
                         "%s: --store-fsck needs --curve-store DIR "
                         "(or KB_CURVE_CACHE_DIR)\n",
                         prog);
            return 2;
        }
        const CurveStoreFsck report = CurveStore::fsck(dir, true);
        std::printf("curve store fsck of %s: %zu entries scanned, "
                    "%zu valid, %zu corrupt removed, %zu temp files "
                    "removed\n",
                    dir.c_str(), report.scanned, report.valid,
                    report.corrupt_removed, report.tmp_removed);
        return report.corrupt_found == report.corrupt_removed ? 0 : 1;
    }

    if (experiment != nullptr)
        printExperimentBanner(experiment);
    BenchContext ctx(std::move(opts),
                     experiment ? experiment : std::string());
    try {
        return body(ctx);
    } catch (const ShardFragmentWritten &done) {
        // Not an error: the body's report is replaced by the
        // fragment; the merge invocation prints the real report.
        std::fprintf(stderr, "shard fragment written to %s\n",
                     done.path.c_str());
        return 0;
    }
}

} // namespace bench
} // namespace kb
