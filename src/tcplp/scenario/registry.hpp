// Named scenario registry.
//
// Every paper figure/table is registered here as a ScenarioDef: a base
// ScenarioSpec, the axis grid the figure sweeps, the seed list, a `bind`
// hook mapping one grid point onto the spec, and an optional presenter that
// renders the paper-style table from the collected rows. The bench drivers
// are thin translation units that construct one static Registration each;
// tcplp_campaign links all of them (see campaign.hpp).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "tcplp/scenario/metrics.hpp"
#include "tcplp/scenario/spec.hpp"

namespace tcplp::scenario {

/// One knob the scenario sweeps; values are doubles (integral knobs store
/// exactly up to 2^53).
struct Axis {
    std::string name;
    std::vector<double> values;
};

/// One expanded run point: the axis values (parallel to ScenarioDef::axes),
/// the seed, and the point's position in the expanded grid.
struct Point {
    std::size_t index = 0;
    std::uint64_t seed = 1;
    std::vector<std::pair<std::string, double>> values;

    double value(const std::string& axis) const {
        for (const auto& [name, v] : values)
            if (name == axis) return v;
        return 0.0;
    }
};

struct RunRecord {
    Point point;
    MetricRow row;
};

struct ScenarioResult;

struct ScenarioDef {
    std::string name;   // registry key, e.g. "fig4_mss"
    std::string title;  // human header, e.g. "Figure 4: goodput vs MSS"
    ScenarioSpec base{};
    std::vector<Axis> axes{};
    std::vector<std::uint64_t> seeds{1};
    /// When true, the seed list is interpreted as stream ids and each
    /// point's effective seed is Rng::deriveStream(baseSeed, point.index) —
    /// used by scenarios that want independent streams per grid point.
    bool deriveSeeds = false;
    std::uint64_t baseSeed = 1;

    /// Applies one grid point's axis values onto a copy of `base`.
    std::function<void(ScenarioSpec&, const Point&)> bind;
    /// Custom runner; defaults to runScenario(spec, point.seed).
    std::function<MetricRow(const ScenarioSpec&, const Point&)> measure;
    /// Renders the human-readable paper table from the merged records.
    std::function<void(const ScenarioResult&)> present;
};

class Registry {
public:
    static Registry& instance();

    /// Registers `def`; throws std::invalid_argument (scenario named) if
    /// validate() rejects its base spec.
    void add(ScenarioDef def);
    const ScenarioDef* find(const std::string& name) const;
    const std::vector<ScenarioDef>& all() const { return defs_; }

private:
    std::vector<ScenarioDef> defs_;
};

/// Static registrar: `static Registration r{def};` in a driver TU.
struct Registration {
    explicit Registration(ScenarioDef def);
};

}  // namespace tcplp::scenario
