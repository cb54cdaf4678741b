/**
 * @file
 * kb_perfbench: one named workload in one process.
 *
 *   kb_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                --out-dir DIR --digests FILE
 *
 * Untraced (--trace 0): set up (repeated, median reported), run one
 * discarded warm-up pass, then timed passes until S seconds have
 * elapsed; report setup_s, wall_s (median pass), cells_per_s and
 * peak_rss_mb (median of each pass's own peak). Traced (--trace 1): the
 * per-layer metrics of perLayerMetricNames(), and a Chrome trace-event
 * span file in DIR.
 *
 * Every pass goes through the correctness gate (checkPass): against
 * the committed digest for the default seed, against force_replay
 * cells chosen by the seed otherwise (computed after the timed passes
 * and the RSS reading). Human-readable lines go to stdout first; the
 * last stdout line is the JSON result. A failed pass makes the exit
 * status 1.
 *
 * Other modes: --set-up DIR (one set-up in a fresh process; the timed
 * unit of setup_s), --write-digests FILE (digests of the default
 * seed from the force_replay oracle), --self-test DIR.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "perfbench.hpp"
#include "trace/backend.hpp"
#include "trace/reuse.hpp"
#include "util/binio.hpp"

extern char **environ;

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 11;
/// Fewest timed passes an untraced run reports a median over.
constexpr int kMinTimedPasses = 3;
/// Oracle cells recomputed with force_replay on a non-default seed.
constexpr std::size_t kCrossCheckCells = 3;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    int trace = 0;
    std::string out_dir = ".";
    std::string digests;
    std::string set_up;
    std::string write_digests;
    std::string self_test;
};

int
usage(const std::string &why)
{
    std::cerr << "kb_perfbench: " << why
              << "\nusage: kb_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --out-dir DIR --digests FILE\n"
                 "       kb_perfbench --set-up DIR --workload NAME "
                 "--seed N\n"
                 "       kb_perfbench --write-digests FILE\n"
                 "       kb_perfbench --self-test DIR\n";
    return 2;
}

bool
parseArgs(int argc, char **argv, Args &a, std::string &error)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            error = "missing value for " + flag;
            return false;
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = value;
            else if (flag == "--seed")
                a.seed = std::stoull(value);
            else if (flag == "--seconds")
                a.seconds = std::stod(value);
            else if (flag == "--trace")
                a.trace = std::stoi(value);
            else if (flag == "--out-dir")
                a.out_dir = value;
            else if (flag == "--digests")
                a.digests = value;
            else if (flag == "--set-up")
                a.set_up = value;
            else if (flag == "--write-digests")
                a.write_digests = value;
            else if (flag == "--self-test")
                a.self_test = value;
            else {
                error = "unknown flag " + flag;
                return false;
            }
        } catch (const std::exception &) {
            error = "bad value for " + flag + ": " + value;
            return false;
        }
    }
    if (a.trace != 0 && a.trace != 1) {
        error = "--trace takes 0 or 1";
        return false;
    }
    if (!(a.seconds > 0.0)) {
        error = "--seconds must be positive";
        return false;
    }
    return true;
}

/** min(nproc, 4): the engine's worker count for every workload. */
unsigned
engineThreads()
{
    return std::min(kb::ExperimentEngine::hardwareThreads(), 4u);
}

/**
 * Refuse an environment that would change what is measured: the
 * analyzer and emission selectors pin non-default code paths and
 * KB_FAULT injects failures. An ambient KB_CURVE_CACHE_DIR is
 * detached: every pass points the store at its own directory.
 */
bool
checkEnvironment(std::string &detached)
{
    for (const char *name :
         {"KB_SIMD", "KB_ANALYZER", "KB_TRACE_BACKEND", "KB_FAULT",
          "KB_FAULT_WORKER"}) {
        if (const char *v = std::getenv(name); v != nullptr && *v) {
            std::cerr << "kb_perfbench: refusing to run with " << name
                      << "=" << v << " set; unset it\n";
            return false;
        }
    }
    if (const char *v = std::getenv("KB_CURVE_CACHE_DIR"); v != nullptr) {
        detached = v;
        ::unsetenv("KB_CURVE_CACHE_DIR");
    }
    return true;
}

std::string
hostBlock(const Args &a, int passes, const std::string &detached)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    const int affinity =
        sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
    std::ostringstream o;
    o << "{\"nproc\": " << affinity
      << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ", \"engine_threads\": " << engineThreads()
      << ", \"simd_isa\": \"" << kb::analyzerSimdIsa() << "\""
      << ", \"analyzer_path\": \""
      << kb::analyzerPathName(kb::activeAnalyzerPath()) << "\""
      << ", \"trace_backend\": \"" << kb::activeTraceBackendName() << "\""
      << ", \"KB_SIMD\": \"unset\", \"KB_ANALYZER\": \"unset\""
      << ", \"KB_CURVE_CACHE_DIR\": \""
      << (detached.empty() ? "unset" : "detached") << "\""
      << ", \"compiler\": \"" << KB_PERFBENCH_COMPILER << "\""
      << ", \"build_type\": \"" << KB_PERFBENCH_BUILD_TYPE << "\""
      << ", \"workload\": \"" << a.workload << "\""
      << ", \"seed\": " << a.seed << ", \"passes\": " << passes << "}";
    return o.str();
}

/** Run this executable as a child with @p args and wait for it. */
bool
runSelf(const std::vector<std::string> &args)
{
    std::vector<char *> argv;
    std::string self = "/proc/self/exe";
    argv.push_back(self.data());
    std::vector<std::string> copy = args;
    for (auto &s : copy)
        argv.push_back(s.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0)
        return false;
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            return false;
    }
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/**
 * The set-up a fresh process performs before its first pass: load the
 * program, build the seeded job list, resolve the grid and prepare the
 * pass's store directory — for warm_store, populate its disk tier.
 * Run in a child process (--set-up), so setup_s covers program start
 * and static initialization, and the parent starts with nothing in
 * memory but what a fresh invocation would have.
 */
int
setUpOnly(const Args &a)
{
    Workload w;
    if (!makeWorkload(a.workload, a.seed, w))
        return usage("unknown workload '" + a.workload + "'");
    const kb::ExperimentEngine engine(engineThreads());
    (void)cellCount(engine, w);
    fs::create_directories(a.set_up);
    if (w.warm)
        populateStore(w, a.set_up, engineThreads());
    else
        prepareStore(w, a.set_up);
    return 0;
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

void
printResult(bool correct, int attempted, int failed,
            const std::vector<std::pair<std::string, std::pair<double,
                                                              std::string>>>
                &metrics)
{
    std::ostringstream o;
    o << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        o << (i ? ", " : "") << "\"" << metrics[i].first
          << "\": {\"value\": " << fmt(metrics[i].second.first)
          << ", \"unit\": \"" << metrics[i].second.second << "\"}";
    }
    o << "}}";
    std::cout << o.str() << std::endl;
}

int
writeDigests(const std::string &path)
{
    const kb::ExperimentEngine engine(std::min(engineThreads(), 2u));
    std::ofstream out(path);
    if (!out) {
        std::cerr << "kb_perfbench: cannot write " << path << "\n";
        return 1;
    }
    kb::CurveStore::instance().setDiskDirectory("");
    out << "# workload seed fnv1a64-of-force_replay-results\n";
    for (const auto &name : workloadNames()) {
        Workload w;
        makeWorkload(name, kDefaultSeed, w);
        auto results = engine.run(forcedJobs(w));
        for (std::size_t i = 0; i < results.size(); ++i)
            results[i].job_index = i;
        out << name << " " << kDefaultSeed << " "
            << kb::toHex16(digestOf(results)) << "\n";
        std::cerr << "digest " << name << " done\n";
    }
    return out ? 0 : 1;
}

int
runWorkload(const Args &a, const std::string &detached)
{
    Workload w;
    if (!makeWorkload(a.workload, a.seed, w))
        return usage("unknown workload '" + a.workload + "'");
    const kb::ExperimentEngine engine(engineThreads());
    const std::string store_dir = a.out_dir + "/store-" + a.workload;

    // --- set-up in a child process, repeated so setup_s is a median;
    // warm_store's set-up is a multi-second population, run once ---
    std::vector<double> setup_s;
    const int repeats = a.trace || w.warm ? 1 : kSetupRepeats;
    for (int r = 0; r < repeats; ++r) {
        const double t0 = nowSeconds();
        if (!runSelf({"--set-up", store_dir, "--workload", a.workload,
                      "--seed", std::to_string(a.seed)})) {
            std::cerr << "kb_perfbench: set-up failed\n";
            return 1;
        }
        setup_s.push_back(nowSeconds() - t0);
    }
    const std::size_t cells = cellCount(engine, w);
    prepareStore(w, store_dir);
    Expectation expect;
    const bool default_seed = a.seed == kDefaultSeed;
    if (default_seed) {
        expect.digest = committedDigest(a.digests, a.workload, a.seed);
        if (!expect.digest) {
            std::cerr << "kb_perfbench: no committed digest for "
                      << a.workload << " in '" << a.digests << "'\n";
            return 1;
        }
    }

    int attempted = 0, failed = 0;
    std::vector<PassOutcome> passes;
    /// Per timed pass: whether it already failed the gate.
    std::vector<bool> pass_failed;
    const auto gate = [&](const PassOutcome &pass, const char *kind) {
        ++attempted;
        const std::string why = checkPass(w, pass, expect);
        if (!why.empty()) {
            ++failed;
            std::cout << "FAILED " << kind << " pass: " << why << "\n";
        }
        return why.empty();
    };

    if (a.trace) {
        if (!default_seed)
            expect = crossCheckCells(engine, w, kCrossCheckCells);
        const std::string span_path = a.out_dir + "/spans-" + a.workload +
                                      "-" + std::to_string(a.seed) + ".json";
        const LayerMetrics layers = tracedRun(
            engine, w, store_dir, a.seconds, span_path, expect, attempted,
            failed);
        std::cout << "host: " << hostBlock(a, attempted, detached) << "\n";
        std::cout << "spans: " << span_path << "\n";
        std::vector<std::pair<std::string, std::pair<double, std::string>>>
            metrics;
        for (const auto &name : perLayerMetricNames()) {
            const auto it = layers.find(name);
            if (it == layers.end()) {
                std::cerr << "kb_perfbench: metric " << name
                          << " was not measured\n";
                return 1;
            }
            metrics.push_back({name, {it->second, perLayerUnit(name)}});
            std::cout << "  " << name << " = " << fmt(it->second) << " "
                      << perLayerUnit(name) << "\n";
        }
        printResult(failed == 0, attempted, failed, metrics);
        return failed == 0 ? 0 : 1;
    }

    // --- warm-up (discarded), then timed passes for the budget ---
    gate(runPass(engine, w, store_dir), "warm-up");
    const double t_timed = nowSeconds();
    while (passes.size() < static_cast<std::size_t>(kMinTimedPasses) ||
           nowSeconds() - t_timed < a.seconds) {
        passes.push_back(runPass(engine, w, store_dir));
        pass_failed.push_back(!gate(passes.back(), "timed"));
    }

    // --- non-default seed: force_replay oracle cells, after timing ---
    if (!default_seed) {
        const Expectation oracle =
            crossCheckCells(engine, w, kCrossCheckCells);
        for (std::size_t i = 0; i < passes.size(); ++i) {
            const std::string why = checkPass(w, passes[i], oracle);
            if (!why.empty() && !pass_failed[i]) {
                ++failed;
                std::cout << "FAILED oracle cross-check: " << why << "\n";
            }
        }
    }

    std::vector<double> walls, rss;
    for (const auto &pass : passes) {
        walls.push_back(pass.wall_s);
        rss.push_back(pass.peak_rss_mb);
    }
    const double wall_s = median(walls);
    const double setup_med = median(setup_s);
    const double failed_frac =
        static_cast<double>(failed) / static_cast<double>(attempted);

    std::cout << "host: " << hostBlock(a, static_cast<int>(passes.size()),
                                       detached)
              << "\n";
    std::cout << "workload " << a.workload << ": " << w.batches.size()
              << " batches, " << cells << " cells, "
              << passes.size() << " timed passes (+1 warm-up); no tail "
                 "percentile is reported over so few passes\n";
    std::cout << "  pass wall_s:";
    if (walls.size() <= 12) {
        for (const double v : walls)
            std::cout << " " << fmt(v);
    } else {
        std::cout << " min " << fmt(*std::min_element(walls.begin(), walls.end()))
                  << " median " << fmt(median(walls)) << " max "
                  << fmt(*std::max_element(walls.begin(), walls.end()));
    }
    std::cout << "\n  pass peak_rss_mb:";
    if (rss.size() <= 12) {
        for (const double v : rss)
            std::cout << " " << fmt(v);
    } else {
        std::cout << " median " << fmt(median(rss));
    }
    std::cout << "\n  setup_s runs:";
    for (const double v : setup_s)
        std::cout << " " << fmt(v);
    std::cout << "\n  emissions/pass " << passes.back().emissions
              << ", store disk_hits " << passes.back().store.disk_hits
              << ", failed_frac " << fmt(failed_frac) << "\n";
    printResult(failed == 0, attempted, failed,
                {{"setup_s", {setup_med, "s"}},
                 {"wall_s", {wall_s, "s"}},
                 {"cells_per_s",
                  {static_cast<double>(cells) / wall_s, "cells/s"}},
                 {"peak_rss_mb", {median(rss), "MB"}}});
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    std::string error;
    if (!parseArgs(argc, argv, a, error))
        return usage(error);
    std::string detached;
    if (!checkEnvironment(detached))
        return 2;
    if (!a.self_test.empty())
        return selfTest(a.self_test);
    if (!a.write_digests.empty())
        return writeDigests(a.write_digests);
    if (!a.set_up.empty())
        return setUpOnly(a);
    if (a.workload.empty())
        return usage("--workload is required");
    return runWorkload(a, detached);
}
