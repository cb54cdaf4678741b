/**
 * @file
 * Tests for the work-queue orchestrator's lifecycle and failure
 * handling: success and retry paths (driven by /bin/sh stand-in
 * workers), killed / failing / fragment-less slices reported loudly
 * with the culprit named, truncated fragments rejected and re-queued,
 * hung workers progress-deadline-killed, stragglers speculatively
 * re-dispatched, corrupt fragments rejected at merge, partial merges
 * refused, and — when the real bench binary is present in the test's
 * working directory (ctest runs in the build tree) — the end-to-end
 * property: `--jobs 2` stdout is byte-identical to the unsharded
 * run.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "engine/orchestrator.hpp"
#include "engine/shard.hpp"

namespace fs = std::filesystem;

namespace kb {
namespace {

std::string
scratchDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / ("kb_orch_" + name);
    fs::remove_all(dir);
    return dir.string();
}

/**
 * A /bin/sh stand-in worker. The orchestrator appends
 * `--cells lo-hi --shard-out PATH`, which sh binds as $0="--cells",
 * $1="lo-hi", $2="--shard-out", $3=PATH — so @p script can reach its
 * fragment path as "$3" and its cell range as "$1". With no
 * expect_signature, fragment validation relaxes to "non-empty and
 * ends with an `end` line", so a convincing stand-in fragment is
 * `printf 'x\nend\n' > "$3"`. Policy knobs are tightened to
 * millisecond scale so the retry tests run fast.
 */
OrchestratorSpec
shellSpec(const std::string &script, std::size_t jobs,
          const std::string &scratch)
{
    OrchestratorSpec spec;
    spec.program = "/bin/sh";
    spec.args = {"-c", script};
    spec.jobs = jobs;
    spec.total_cells = jobs; // one single-cell slice per slot
    spec.slices_per_worker = 1;
    spec.scratch_dir = scratch;
    spec.backoff_base_ms = 5;
    spec.backoff_cap_ms = 20;
    spec.poll_ms = 5;
    // Shell startup jitter between stand-in workers easily exceeds
    // any multiple of their ~ms "slice times"; effectively disable
    // speculation so only the test that wants it (and re-enables a
    // sane factor) sees twins.
    spec.speculative_factor = 1e9;
    return spec;
}

TEST(Orchestrator, SpawnsAllSlicesAndCollectsFragments)
{
    const auto spec = shellSpec("printf 'x\\nend\\n' > \"$3\"", 3,
                                scratchDir("success"));
    const auto run = orchestrateSweep(spec);
    ASSERT_TRUE(run.ok) << run.error;
    ASSERT_EQ(run.fragments.size(), 3u);
    for (const auto &frag : run.fragments)
        EXPECT_TRUE(fs::exists(frag)) << frag;
    EXPECT_EQ(run.stats.slices, 3u);
    EXPECT_EQ(run.stats.dispatched, 3u);
    EXPECT_EQ(run.stats.retried, 0u);
    removeOrchestratorScratch(run.scratch_dir);
    EXPECT_FALSE(fs::exists(run.scratch_dir));
}

TEST(Orchestrator, RetriesADeadSliceOnce)
{
    const std::string scratch = scratchDir("retry");
    // First attempt of each slice leaves a marker and dies; the
    // retry finds the marker and succeeds.
    const auto spec = shellSpec(
        "if [ -e \"" + scratch +
            "/m$1\" ]; then printf 'x\\nend\\n' > \"$3\"; else : > \"" +
            scratch + "/m$1\"; exit 7; fi",
        2, scratch);
    const auto run = orchestrateSweep(spec);
    ASSERT_TRUE(run.ok) << run.error;
    EXPECT_EQ(run.stats.retried, 2u);
    EXPECT_EQ(run.stats.dispatched, 4u);
    removeOrchestratorScratch(run.scratch_dir);
}

TEST(Orchestrator, FailingSliceIsNamedWithItsExitStatus)
{
    auto spec = shellSpec("echo boom >&2; exit 3", 1,
                          scratchDir("exitfail"));
    spec.attempts = 2;
    const auto run = orchestrateSweep(spec);
    ASSERT_FALSE(run.ok);
    EXPECT_NE(run.error.find("slice 0 (cells 0-1)"),
              std::string::npos)
        << run.error;
    EXPECT_NE(run.error.find("exited with status 3"),
              std::string::npos)
        << run.error;
    EXPECT_NE(run.error.find("2 attempt"), std::string::npos)
        << run.error;
    // The worker's log tail is quoted so the operator sees the
    // stderr of the dying attempt without hunting for the file.
    EXPECT_NE(run.error.find("boom"), std::string::npos) << run.error;
    // Failure leaves the scratch dir (and logs) for inspection.
    EXPECT_TRUE(fs::exists(run.scratch_dir));
    removeOrchestratorScratch(run.scratch_dir);
}

TEST(Orchestrator, KilledSliceIsReportedAsSignaled)
{
    auto spec = shellSpec("kill -KILL $$", 1, scratchDir("killed"));
    spec.attempts = 1;
    const auto run = orchestrateSweep(spec);
    ASSERT_FALSE(run.ok);
    EXPECT_NE(run.error.find("killed by signal 9"), std::string::npos)
        << run.error;
    removeOrchestratorScratch(run.scratch_dir);
}

TEST(Orchestrator, CleanExitWithoutFragmentIsRejected)
{
    auto spec = shellSpec("exit 0", 1, scratchDir("nofrag"));
    spec.attempts = 1;
    const auto run = orchestrateSweep(spec);
    ASSERT_FALSE(run.ok);
    EXPECT_NE(run.error.find(
                  "was rejected (fragment missing or unreadable)"),
              std::string::npos)
        << run.error;
    EXPECT_GE(run.stats.fragments_rejected, 1u);
    removeOrchestratorScratch(run.scratch_dir);
}

TEST(Orchestrator, TruncatedFragmentIsRejectedAndRetried)
{
    const std::string scratch = scratchDir("truncated");
    // First attempt writes a fragment with no `end` sentinel — the
    // shape a worker dying mid-write leaves behind; the retry writes
    // a complete one.
    const auto spec = shellSpec(
        "if [ -e \"" + scratch +
            "/m$1\" ]; then printf 'x\\nend\\n' > \"$3\"; "
            "else : > \"" + scratch +
            "/m$1\"; printf 'x\\n' > \"$3\"; fi",
        1, scratch);
    const auto run = orchestrateSweep(spec);
    ASSERT_TRUE(run.ok) << run.error;
    EXPECT_EQ(run.stats.fragments_rejected, 1u);
    EXPECT_EQ(run.stats.retried, 1u);
    removeOrchestratorScratch(run.scratch_dir);
}

TEST(Orchestrator, HungWorkerIsDeadlineKilledAndRetried)
{
    const std::string scratch = scratchDir("hung");
    // First attempt wedges without ever growing its fragment; the
    // progress deadline kills it and the retry succeeds.
    auto spec = shellSpec(
        "if [ -e \"" + scratch +
            "/m$1\" ]; then printf 'x\\nend\\n' > \"$3\"; "
            "else : > \"" + scratch + "/m$1\"; sleep 30; fi",
        1, scratch);
    spec.initial_deadline_ms = 200;
    const auto run = orchestrateSweep(spec);
    ASSERT_TRUE(run.ok) << run.error;
    EXPECT_EQ(run.stats.workers_killed, 1u);
    EXPECT_EQ(run.stats.retried, 1u);
    removeOrchestratorScratch(run.scratch_dir);
}

TEST(Orchestrator, StragglerIsSpeculativelyRedispatched)
{
    const std::string scratch = scratchDir("straggler");
    // Slice 0 dawdles; slice 1 finishes instantly. Once the queue is
    // drained and a slot frees up, the coordinator should launch a
    // twin of the straggler; whichever finishes first wins and the
    // loser is killed without burning retry budget.
    auto spec = shellSpec(
        "if [ \"$1\" = 0-1 ]; then sleep 1; fi; "
        "printf 'x\\nend\\n' > \"$3\"",
        2, scratch);
    spec.speculative_factor = 2.0;
    const auto run = orchestrateSweep(spec);
    ASSERT_TRUE(run.ok) << run.error;
    EXPECT_EQ(run.stats.speculative, 1u);
    EXPECT_EQ(run.stats.dispatched, 3u);
    EXPECT_EQ(run.stats.retried, 0u);
    removeOrchestratorScratch(run.scratch_dir);
}

/** The merge layer backs the orchestrator up: a corrupt fragment is
 *  rejected loudly instead of silently merged. */
TEST(OrchestratorMergeGuards, CorruptFragmentIsRejected)
{
    SweepJob job;
    job.kernel = "matmul";
    job.m_lo = 48;
    job.m_hi = 256;
    job.points = 3;

    const ExperimentEngine engine(1);
    auto skeleton = engine.run(
        {job}, [](std::size_t, std::size_t) { return false; });

    const std::string dir = scratchDir("corrupt");
    fs::create_directories(dir);
    const std::string bad = dir + "/bad.kbshard";
    {
        std::ofstream out(bad);
        out << "this is not a fragment\n";
    }
    EXPECT_EXIT({ mergeShardFragments(skeleton, {bad}); },
                ::testing::ExitedWithCode(1), "not a version");
}

/** ...and a partial merge (one fragment of two) is refused. */
TEST(OrchestratorMergeGuards, PartialMergeIsRefused)
{
    SweepJob job;
    job.kernel = "matmul";
    job.m_lo = 48;
    job.m_hi = 256;
    job.points = 4;

    const ExperimentEngine engine(1);
    auto skeleton = engine.run(
        {job}, [](std::size_t, std::size_t) { return false; });
    const CellRange half{0, 2};
    const auto partial =
        engine.run({job}, cellRangeFilter(skeleton, half));
    const std::string dir = scratchDir("partial");
    fs::create_directories(dir);
    const std::string frag = dir + "/frag0.kbshard";
    CellFragmentWriter writer(frag, sweepSignature(skeleton), 1);
    for (std::size_t p = half.lo; p < half.hi; ++p)
        writer.appendCell(0, p, partial[0].points[p]);
    writer.finish();
    EXPECT_EXIT({ mergeShardFragments(skeleton, {frag}); },
                ::testing::ExitedWithCode(1), "missing cell");
}

/**
 * End-to-end, against the real bench binary when it is reachable
 * (ctest runs in the build tree): `--jobs 2` stdout must be
 * byte-identical to the unsharded run — the acceptance property the
 * CI diff also checks.
 */
TEST(OrchestratorEndToEnd, JobsFlagIsByteIdenticalToUnsharded)
{
    const char *bench = "./bench_engine_sweep";
    if (!fs::exists(bench))
        GTEST_SKIP() << "bench_engine_sweep not in the working "
                        "directory; CI's diff covers this";

    const auto capture = [&](const std::string &extra) {
        const std::string cmd = std::string(bench) +
                                " --points 3 --kernel matmul,fft " +
                                extra + " 2>/dev/null";
        std::string out;
        FILE *pipe = ::popen(cmd.c_str(), "r");
        if (pipe == nullptr)
            return out;
        char buf[4096];
        std::size_t n = 0;
        while ((n = ::fread(buf, 1, sizeof(buf), pipe)) > 0)
            out.append(buf, n);
        ::pclose(pipe);
        return out;
    };

    const std::string unsharded = capture("");
    const std::string orchestrated = capture("--jobs 2");
    ASSERT_FALSE(unsharded.empty());
    EXPECT_EQ(unsharded, orchestrated)
        << "--jobs 2 stdout must be byte-identical to the unsharded "
           "run";
}

/** --perf-json times a grid of its own, so the driver refuses it
 *  with any partition flag before doing any work. */
TEST(OrchestratorEndToEnd, PerfJsonWithCellsExitsTwo)
{
    const char *bench = "./bench_engine_sweep";
    if (!fs::exists(bench))
        GTEST_SKIP() << "bench_engine_sweep not in the working "
                        "directory";
    const std::string dir = scratchDir("perfjson");
    fs::create_directories(dir);
    const std::string report = dir + "/x.json";
    const std::string cmd = std::string(bench) + " --perf-json " +
                            report + " --cells 0-1 2>/dev/null";
    FILE *pipe = ::popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    const int status = ::pclose(pipe);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 2);
    EXPECT_FALSE(fs::exists(report));
    fs::remove_all(dir);
}

} // namespace
} // namespace kb
