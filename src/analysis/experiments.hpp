/**
 * @file
 * Registry of the reproduction experiments E1..E12 (see DESIGN.md's
 * per-experiment index), so benches, docs and tests agree on what
 * each id means.
 *
 * Each experiment now also declares the engine sweeps it is built
 * from (SweepJob lists), so bench binaries submit the same grids the
 * docs describe instead of hand-rolling loops.
 */

#pragma once

#include <string>
#include <vector>

#include "engine/engine.hpp"

namespace kb {

/** One experiment in the reproduction plan. */
struct ExperimentInfo
{
    std::string id;             ///< "E1".."E12"
    std::string paper_artifact; ///< table/figure/section reproduced
    std::string claim;          ///< what must hold for success
    std::string bench_target;   ///< binary that regenerates it
    /// Declarative sweeps the experiment measures (empty for the
    /// experiments that are not R(M) sweeps: arrays, Warp, pebbles).
    std::vector<SweepJob> sweep_jobs;
};

/** All experiments, in order. */
const std::vector<ExperimentInfo> &allExperiments();

/** Lookup by id; fatal on unknown id. */
const ExperimentInfo &experimentById(const std::string &id);

/**
 * Standard bench banner: prints the experiment header (id, artifact,
 * claim) to stdout.
 */
void printExperimentBanner(const std::string &id);

} // namespace kb
