// Campaign orchestrator + golden-run regression corpus.
//
// A campaign expands every selected scenario's axis grid x seed list into
// one flat run-point list and executes it, serially in-process (`jobs ==
// 1`) or sharded across a single pool of forked workers (runShardedTasks),
// each streaming its finished rows back over a pipe. A worker executes
// points from different scenarios back-to-back, so a registry full of small
// grids keeps all cores busy. The merge is deterministic (selection order
// across scenarios, grid order within) and each point's RNG stream is keyed
// on its grid position (sim::Rng::deriveStream), never on the worker that
// ran it, so the output is byte-identical for any --jobs N. A one-scenario
// campaign is the sweep of that scenario.
//
// Canonical output: campaign artifacts render rows through
// toCanonicalJsonLine — the timing fields (wall_ms, backend, *_per_sec,
// ...; see metrics.hpp) are stripped, leaving exactly the fields that are
// deterministic functions of (spec, seed). This is what makes the output a
// cross-refactor determinism oracle:
//
//  * --golden DIR writes one canonical JSON-lines artifact per scenario
//    (every MetricRow, including each point's rng_digest).
//  * --check re-runs the campaign and diffs against the corpus; any
//    non-timing drift — a changed goodput, a shifted RNG stream, a
//    reordered merge — fails loudly with the first diverging line.
//  * The checked-in golden/ corpus pins a curated fast subset
//    (goldenSubset()), which CI re-checks on every push.
//
// Resumability: with an output directory configured, every completed point
// is appended to MANIFEST (the exact row-frame encoding) as it lands.
// Resuming skips completed points and merges their recorded rows — the
// final output is byte-identical to an uninterrupted run.
#pragma once

#include "tcplp/scenario/registry.hpp"
#include "tcplp/scenario/shard.hpp"

namespace tcplp::scenario {

struct CampaignOptions {
    int jobs = 1;
    /// Directory for artifacts + the resume manifest ("" = keep in memory).
    std::string outDir{};
    bool resume = false;
    /// Non-empty: replaces every scenario's seed list.
    std::vector<std::uint64_t> seedOverride{};
    /// Per-scenario progress lines on stderr.
    bool progress = false;
};

/// One scenario's merged run, and the view its presenter renders.
struct ScenarioResult {
    ScenarioDef def;                 // the def the campaign ran (incl. trims)
    std::vector<RunRecord> records;  // grid order

    /// Records whose point matches every (axis, value) pair.
    std::vector<const RunRecord*> select(
        std::initializer_list<std::pair<const char*, double>> match) const;
    const RunRecord* first(
        std::initializer_list<std::pair<const char*, double>> match) const;
    /// Mean of a numeric metric over the matching records (e.g. seed-mean
    /// at one axis point).
    double mean(const char* key,
                std::initializer_list<std::pair<const char*, double>> match) const;
    /// One JSON object per record, timing fields kept, trailing newline each.
    std::string jsonLines() const;
    /// One canonical JSON object per record, timing fields stripped,
    /// trailing newline each — the artifact/golden rendering.
    std::string canonicalLines() const;
};

struct CampaignResult {
    bool ok = false;
    std::string error;
    std::vector<ShardFailure> failures;     // dead workers, attributed to points
    std::vector<ScenarioResult> scenarios;  // selection order
    std::size_t pointsRun = 0;
    std::size_t pointsResumed = 0;  // skipped via the manifest

    /// All scenarios' canonicalLines() concatenated in selection order —
    /// the campaign's stdout rendering.
    std::string canonicalLines() const;
};

/// Expands the def's grid (axes outermost in declaration order, seeds
/// innermost).
std::vector<Point> expandPoints(const ScenarioDef& def,
                                const std::vector<std::uint64_t>& seeds);

/// Executes one expanded run point: bind -> measure (or runScenario) ->
/// standard row prefix (scenario/index/seed/axes) + the measured fields.
MetricRow runPointRow(const ScenarioDef& def, const Point& point);

/// "scenario 'name' point 3/8 (hops=2, seed=1)" — used in diagnostics.
std::string describePoint(const ScenarioDef& def, const Point& point,
                          std::size_t totalPoints);

/// Binds every expanded grid point of `def` and validates the result; one
/// "<describePoint>: <validate error>" line per rejected point.
std::vector<std::string> invalidPoints(const ScenarioDef& def,
                                       const std::vector<std::uint64_t>& seeds);

/// Runs every def's full grid through one shared worker pool. Defs are
/// copied in (the golden subset trims registered defs); selection order is
/// preserved in the result.
CampaignResult runCampaign(const std::vector<ScenarioDef>& defs,
                           const CampaignOptions& options = {});

/// Registered defs whose name contains `filter` (all, when empty), in
/// registry order.
std::vector<ScenarioDef> registryDefs(const std::string& filter = {});

/// The curated golden-corpus subset: sweep_smoke, sec72_hops,
/// office_multiflow, grid200_dense, fig10_table8_day trimmed from 24 to
/// 1 simulated hour, city_scale trimmed to a 120-node grid, the
/// self-healing scenarios, and the three chaos scenarios (line_blackout,
/// office_reboot_storm, border_router_restart) — fast enough for CI, wide
/// enough to cover the bulk line path, the office tree, the dense grid, the
/// sweep machinery, the anemometer application study, and the
/// fault-injection layer. Regenerate golden/ with this exact subset
/// (see docs/SCENARIOS.md). Curated names missing from the registry are
/// skipped here (a test binary links no drivers); the campaign CLI compares
/// against goldenSubsetNames() and fails loudly, so a dropped driver cannot
/// silently shrink the corpus check.
std::vector<ScenarioDef> goldenSubset();

/// Every curated scenario name, whether or not it is linked/registered.
std::vector<std::string> goldenSubsetNames();

// --- Golden corpus ----------------------------------------------------------

/// DIR/<scenario>.jsonl
std::string goldenArtifactPath(const std::string& dir, const std::string& scenario);

/// Writes one canonical artifact per scenario into `dir` (created if
/// needed). Returns false with `error` set on I/O failure.
bool writeGoldenCorpus(const CampaignResult& result, const std::string& dir,
                       std::string& error);

struct GoldenDiff {
    std::string scenario;
    std::string detail;  // first diverging line (expected vs got), or a
                         // missing/short-artifact explanation
};

/// Diffs the result against the corpus in `dir`; empty = clean.
std::vector<GoldenDiff> checkGoldenCorpus(const CampaignResult& result,
                                          const std::string& dir);

}  // namespace tcplp::scenario
