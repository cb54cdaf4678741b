/**
 * @file
 * Fault-tolerant work-queue orchestration of sweep grids.
 *
 * The coordinator runs a work queue over fine-grained *cell slices*
 * (engine/shard.hpp): the grid's linearized cells are carved into
 * several slices per worker slot, workers are re-execed bench
 * invocations (`--cells lo-hi --shard-out FRAG`), and the coordinator
 * deals the next slice to whichever slot frees up first — a fast
 * worker simply takes more slices, and one slow or dead worker costs
 * a slice, not the run. A static split (`--shard i/N`, one range per
 * process) cannot rebalance; this is the balanced route.
 *
 * Failure policy, all unit-testable because nothing here aborts:
 *
 *  * A worker's growing fragment *is* its heartbeat: appendCell()
 *    flushes every row, a job's rows land as soon as the job is
 *    measured, the coordinator stats the file each poll, and a
 *    worker whose fragment stops growing past the progress deadline
 *    is killed and its slice re-queued. The deadline is
 *    initial_deadline_ms, EXTENDED to eight times the observed mean
 *    slice time when that is larger — observed completions can only
 *    relax the deadline, never tighten it, because grids are
 *    heterogeneous: the first row of a slice holding one heavy job
 *    can trail the fleet's mean by orders of magnitude, and an
 *    adaptive kill there would burn the retry budget on work that
 *    was merely slow. Operators with homogeneous
 *    grids (and tests) tighten via KB_ORCH_DEADLINE_MS, which pins
 *    the deadline exactly.
 *  * A failed slice (nonzero exit, signal, deadline kill, or a
 *    fragment that fails checkFragmentFile()) re-queues under capped
 *    exponential backoff with deterministic jitter (SplitMix64 over
 *    the slice and its failure count); after spec.attempts failures
 *    the run fails loudly, naming the culprit slice, its fragment,
 *    and the tail of its log.
 *  * When the queue drains and a slot is free, the longest-running
 *    straggler is speculatively re-dispatched (once per slice, and
 *    only if the slice has never failed — a failing slice needs its
 *    retry budget, not a twin); the first fragment to validate wins
 *    and the loser is killed. Every failed attempt counts against the
 *    slice's budget whether or not a duplicate is still in flight, so
 *    the run can never spin on a slice indefinitely.
 *  * SIGINT/SIGTERM are forwarded to every live worker, the scratch
 *    directory is removed, and the signal is re-raised with its
 *    default disposition — an interrupted run leaves no temps behind.
 *
 * Results are tagged by grid cell, never by worker or slice index, so
 * however slices were split, retried, or stolen, the merge
 * (mergeShardFragments) is byte-identical to an unsharded run.
 * Worker processes are stamped with KB_FAULT_WORKER=<spawn ordinal>
 * so util/faultpoint.hpp clauses like `kill-after-cells=1@worker=0`
 * hit exactly one spawn and the retry runs clean.
 *
 * KB_ORCH_DEADLINE_MS overrides initial_deadline_ms from the
 * environment and pins it (the chaos test and CI's hung-worker step
 * need a fixed deadline on a real bench run); tests set the other
 * policy fields on the spec directly.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace kb {

/** What to launch and the failure policy to run it under. */
struct OrchestratorSpec
{
    std::string program; ///< binary to exec (the bench itself)
    /// Flags every worker shares; `--cells lo-hi --shard-out PATH` is
    /// appended per dispatch. Must not already contain --cells,
    /// --shard, --merge or --jobs.
    std::vector<std::string> args;
    std::size_t jobs = 2;        ///< concurrent worker slots (>= 1)
    std::size_t total_cells = 0; ///< linearized grid size (>= 1)
    /// Target slices per worker slot; more = finer rebalancing and
    /// cheaper retries, fewer = less spawn overhead.
    std::size_t slices_per_worker = 4;
    /// toHex16(sweepSignature(...)) of the grid; workers' fragments
    /// must carry it. Empty relaxes validation to "non-empty, ends
    /// with `end`" (shell-script stand-ins in unit tests).
    std::string expect_signature;
    /// Directory for fragments and logs; "" = a fresh mkdtemp under
    /// the system temp directory.
    std::string scratch_dir;
    /// Failure budget per slice (>= 1); 3 = two retries.
    unsigned attempts = 3;

    // Progress-deadline policy (see file comment): the deadline is
    // initial_deadline_ms, extended (never tightened) to eight times
    // the observed mean slice time.
    std::uint64_t initial_deadline_ms = 300000;

    // Capped exponential backoff between a slice's attempts.
    std::uint64_t backoff_base_ms = 50;
    std::uint64_t backoff_cap_ms = 2000;

    /// Speculate on a straggler once its runtime exceeds this many
    /// observed mean slice times (and the queue is drained).
    double speculative_factor = 4.0;

    std::uint64_t poll_ms = 15; ///< coordinator poll period
};

/** Counters for the `orchestrator` perf-json section and stderr
 *  summary; recovery cost is visible, not guessed at. */
struct OrchestratorStats
{
    std::size_t slices = 0;     ///< slices the grid was carved into
    std::size_t dispatched = 0; ///< worker spawns (incl. retries/spec)
    std::size_t retried = 0;    ///< slices re-queued after a failure
    std::size_t speculative = 0;
    std::size_t workers_killed = 0; ///< progress-deadline kills
    std::size_t fragments_rejected = 0;
    double wall_s = 0.0; ///< coordinator wall time
    double busy_s = 0.0; ///< summed worker lifetimes
};

/** Outcome of the whole orchestrated run. */
struct OrchestratorResult
{
    bool ok = false;
    /// Empty when ok; otherwise names the culprit slice, how it kept
    /// dying, its fragment and log paths, and quotes the log tail.
    std::string error;
    /// Accepted fragment paths in slice order, complete only when ok.
    std::vector<std::string> fragments;
    OrchestratorStats stats;
    std::string scratch_dir; ///< where fragments and logs live
};

/**
 * Run @p spec's grid through the work queue and wait for completion.
 * Never throws and never exits (short of a forwarded SIGINT/SIGTERM):
 * inspect result.ok. On failure the scratch directory is left in
 * place so fragments and logs can be examined.
 */
OrchestratorResult orchestrateSweep(const OrchestratorSpec &spec);

/** Remove an orchestrated run's scratch directory (fragments, logs). */
void removeOrchestratorScratch(const std::string &scratch_dir);

} // namespace kb
