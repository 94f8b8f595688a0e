// Sharded parallel sweep runner.
//
// A sweep expands a ScenarioDef's axis grid × seed list into run points and
// executes every point, either serially in-process (`jobs == 1`) or sharded
// round-robin across `jobs` forked worker processes, each streaming its
// finished rows back over a pipe. The parent reassembles rows in grid order,
// so the merged output is byte-identical to the serial run — a worker's
// identity never reaches a row, and each point's RNG stream is keyed on its
// grid position (sim::Rng::deriveStream), never on the worker that ran it.
//
// Determinism contract (pinned by tests/test_scenario_sweep.cpp):
//   jsonLines(runSweep(def, {jobs: N})) == jsonLines(runSweep(def, {jobs: 1}))
// for every N, byte for byte.
#pragma once

#include "tcplp/scenario/registry.hpp"
#include "tcplp/scenario/shard.hpp"

namespace tcplp::scenario {

struct SweepOptions {
    int jobs = 1;  // <=1: serial in-process
    /// Non-empty: replaces the def's seed list (the CLI's --seeds).
    std::vector<std::uint64_t> seedOverride{};
};

struct SweepResult {
    const ScenarioDef* def = nullptr;
    std::vector<RunRecord> records;  // grid order
    bool ok = false;
    std::string error;
    /// Every worker death, attributed to the run point it was executing
    /// (scenario name + grid point + stderr tail); error holds the first
    /// failure's rendered message.
    std::vector<ShardFailure> failures;

    /// Records whose point matches every (axis, value) pair.
    std::vector<const RunRecord*> select(
        std::initializer_list<std::pair<const char*, double>> match) const;
    const RunRecord* first(
        std::initializer_list<std::pair<const char*, double>> match) const;
    /// Mean of a numeric metric over the matching records (e.g. seed-mean
    /// at one axis point).
    double mean(const char* key,
                std::initializer_list<std::pair<const char*, double>> match) const;
    /// One JSON object per record, grid order, trailing newline each.
    std::string jsonLines() const;
};

/// Expands the def's grid (axes outermost in declaration order, seeds
/// innermost — the loop nesting of the pre-refactor drivers).
std::vector<Point> expandPoints(const ScenarioDef& def,
                                const std::vector<std::uint64_t>& seeds);

/// Executes one expanded run point: bind -> measure (or runScenario) ->
/// standard row prefix (scenario/index/seed/axes) + the measured fields.
/// Shared by runSweep and the cross-scenario Campaign.
MetricRow runPointRow(const ScenarioDef& def, const Point& point);

/// "scenario 'name' point 3/8 (hops=2, seed=1)" — used in diagnostics.
std::string describePoint(const ScenarioDef& def, const Point& point,
                          std::size_t totalPoints);

/// Binds every expanded grid point of `def` and validates the result; one
/// "<describePoint>: <validate error>" line per rejected point.
std::vector<std::string> invalidPoints(const ScenarioDef& def,
                                       const std::vector<std::uint64_t>& seeds);

SweepResult runSweep(const ScenarioDef& def, const SweepOptions& options = {});

}  // namespace tcplp::scenario
