#include "tcplp/scenario/campaign.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "tcplp/common/assert.hpp"
#include "tcplp/scenario/workloads.hpp"
#include "tcplp/sim/rng.hpp"

namespace tcplp::scenario {

namespace {

/// One expanded cross-scenario run point: which def, which grid point, and
/// its position in the campaign's flat task list.
struct FlatPoint {
    std::size_t defIndex = 0;
    Point point;
};

struct FlatPlan {
    std::vector<FlatPoint> points;            // global task order
    std::vector<std::size_t> defOffsets;      // first global index per def
    std::vector<std::size_t> defPointCounts;  // points per def
};

FlatPlan expandPlan(const std::vector<ScenarioDef>& defs,
                    const std::vector<std::uint64_t>& seedOverride) {
    FlatPlan plan;
    for (std::size_t d = 0; d < defs.size(); ++d) {
        const std::vector<std::uint64_t>& seeds =
            seedOverride.empty() ? defs[d].seeds : seedOverride;
        std::vector<Point> points = expandPoints(defs[d], seeds);
        plan.defOffsets.push_back(plan.points.size());
        plan.defPointCounts.push_back(points.size());
        for (Point& p : points) plan.points.push_back({d, std::move(p)});
    }
    return plan;
}

constexpr const char* kManifestName = "MANIFEST";

std::string manifestHeader(const std::vector<ScenarioDef>& defs, const FlatPlan& plan) {
    std::string out = "CAMPAIGN v1 " + std::to_string(plan.points.size()) + "\n";
    for (std::size_t d = 0; d < defs.size(); ++d)
        out += "SCEN " + defs[d].name + ' ' + std::to_string(plan.defPointCounts[d]) + "\n";
    out += "PLAN-END\n";
    return out;
}

/// Completed rows recorded by an interrupted run whose plan header matches
/// the current one; an unreadable or mismatching manifest yields an empty
/// result (the campaign then starts fresh). The file tail may hold a
/// partial or malformed frame (the recording process died mid-write) —
/// every complete frame before it is salvaged; the campaign rewrites the
/// manifest from the salvage on resume, so corruption never compounds.
std::vector<std::pair<std::size_t, MetricRow>> loadManifestRows(
    const std::string& path, const std::string& expectedHeader) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return {};
    std::stringstream ss;
    ss << in.rdbuf();
    std::string content = ss.str();
    if (content.rfind(expectedHeader, 0) != 0) return {};
    content.erase(0, expectedHeader.size());
    std::vector<std::pair<std::size_t, MetricRow>> rows;
    drainRowFrames(content, rows);  // malformed tail: keep the salvage
    return rows;
}

}  // namespace

std::vector<const RunRecord*> ScenarioResult::select(
    std::initializer_list<std::pair<const char*, double>> match) const {
    std::vector<const RunRecord*> out;
    for (const RunRecord& r : records) {
        bool ok = true;
        for (const auto& [axis, value] : match) {
            if (r.point.value(axis) != value) {
                ok = false;
                break;
            }
        }
        if (ok) out.push_back(&r);
    }
    return out;
}

const RunRecord* ScenarioResult::first(
    std::initializer_list<std::pair<const char*, double>> match) const {
    const auto matches = select(match);
    return matches.empty() ? nullptr : matches.front();
}

double ScenarioResult::mean(
    const char* key,
    std::initializer_list<std::pair<const char*, double>> match) const {
    const auto matches = select(match);
    if (matches.empty()) return 0.0;
    double sum = 0.0;
    for (const RunRecord* r : matches) sum += r->row.number(key);
    return sum / double(matches.size());
}

std::string ScenarioResult::jsonLines() const {
    std::string out;
    for (const RunRecord& r : records) {
        out += toJsonLine(r.row);
        out += '\n';
    }
    return out;
}

std::vector<Point> expandPoints(const ScenarioDef& def,
                                const std::vector<std::uint64_t>& seeds) {
    TCPLP_ASSERT(!seeds.empty());
    std::size_t total = seeds.size();
    for (const Axis& a : def.axes) {
        TCPLP_ASSERT(!a.values.empty());
        total *= a.values.size();
    }
    // Stride of axis k = product of all sizes to its right (seeds innermost).
    std::vector<std::size_t> strides(def.axes.size());
    std::size_t stride = seeds.size();
    for (std::size_t k = def.axes.size(); k-- > 0;) {
        strides[k] = stride;
        stride *= def.axes[k].values.size();
    }
    std::vector<Point> points;
    points.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
        Point p;
        p.index = i;
        for (std::size_t k = 0; k < def.axes.size(); ++k) {
            const std::size_t vi = (i / strides[k]) % def.axes[k].values.size();
            p.values.emplace_back(def.axes[k].name, def.axes[k].values[vi]);
        }
        p.seed = def.deriveSeeds ? sim::Rng::deriveStream(def.baseSeed, i)
                                 : seeds[i % seeds.size()];
        points.push_back(std::move(p));
    }
    return points;
}

MetricRow runPointRow(const ScenarioDef& def, const Point& point) {
    ScenarioSpec spec = def.base;
    if (def.bind) def.bind(spec, point);
    const MetricRow metrics =
        def.measure ? def.measure(spec, point) : runScenario(spec, point.seed);
    MetricRow row;
    row.set("scenario", def.name)
        .set("index", std::uint64_t(point.index))
        .set("seed", point.seed);
    for (const auto& [axis, value] : point.values) row.set(axis, value);
    for (const auto& [key, value] : metrics.fields()) row.set(key, value);
    return row;
}

std::string describePoint(const ScenarioDef& def, const Point& point,
                          std::size_t totalPoints) {
    std::string out = "scenario '" + def.name + "' point " +
                      std::to_string(point.index) + "/" + std::to_string(totalPoints) +
                      " (";
    for (const auto& [axis, value] : point.values)
        out += axis + "=" + formatDouble(value) + ", ";
    out += "seed=" + std::to_string(point.seed) + ")";
    return out;
}

std::vector<std::string> invalidPoints(const ScenarioDef& def,
                                       const std::vector<std::uint64_t>& seeds) {
    std::vector<std::string> out;
    const std::vector<Point> points = expandPoints(def, seeds);
    for (const Point& point : points) {
        ScenarioSpec spec = def.base;
        if (def.bind) def.bind(spec, point);
        try {
            validate(spec);
        } catch (const std::invalid_argument& e) {
            out.push_back(describePoint(def, point, points.size()) + ": " + e.what());
        }
    }
    return out;
}

std::string ScenarioResult::canonicalLines() const {
    std::string out;
    for (const RunRecord& r : records) {
        out += toCanonicalJsonLine(r.row);
        out += '\n';
    }
    return out;
}

std::string CampaignResult::canonicalLines() const {
    std::string out;
    for (const ScenarioResult& s : scenarios) out += s.canonicalLines();
    return out;
}

CampaignResult runCampaign(const std::vector<ScenarioDef>& defs,
                           const CampaignOptions& options) {
    CampaignResult result;
    const FlatPlan plan = expandPlan(defs, options.seedOverride);

    // --- Resume manifest -------------------------------------------------
    ShardOptions shardOptions;
    shardOptions.jobs = options.jobs;
    FILE* manifest = nullptr;
    std::vector<std::pair<std::size_t, MetricRow>> resumedRows;
    if (!options.outDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(options.outDir, ec);
        if (ec) {
            result.error = "cannot create output directory '" + options.outDir +
                           "': " + ec.message();
            return result;
        }
        const std::string path = options.outDir + "/" + kManifestName;
        const std::string header = manifestHeader(defs, plan);
        if (options.resume) {
            resumedRows = loadManifestRows(path, header);
            shardOptions.skip.assign(plan.points.size(), false);
            for (const auto& [index, row] : resumedRows) {
                if (index < plan.points.size()) shardOptions.skip[index] = true;
            }
        }
        // Always rewrite header + salvaged rows from scratch: this
        // normalizes a manifest whose tail holds a partial frame (the
        // recorder died mid-write), so a later resume never trips over it.
        manifest = std::fopen(path.c_str(), "wb");
        if (manifest == nullptr) {
            result.error = "cannot open campaign manifest '" + path + "'";
            return result;
        }
        std::fwrite(header.data(), 1, header.size(), manifest);
        for (const auto& [index, row] : resumedRows) {
            const std::string frame = encodeRowFrame(index, row);
            std::fwrite(frame.data(), 1, frame.size(), manifest);
        }
        std::fflush(manifest);
    }

    // --- Per-scenario progress -------------------------------------------
    std::vector<std::size_t> done(defs.size(), 0);
    for (const auto& [index, row] : resumedRows) {
        if (index < plan.points.size()) ++done[plan.points[index].defIndex];
    }
    result.pointsResumed = resumedRows.size();

    shardOptions.onRow = [&](std::size_t index, const MetricRow& row) {
        if (manifest != nullptr) {
            const std::string frame = encodeRowFrame(index, row);
            std::fwrite(frame.data(), 1, frame.size(), manifest);
            std::fflush(manifest);  // crash-durable: resume picks it up
        }
        const std::size_t d = plan.points[index].defIndex;
        ++done[d];
        ++result.pointsRun;
        if (options.progress && done[d] == plan.defPointCounts[d]) {
            std::fprintf(stderr, "[campaign] %-24s done (%zu points)\n",
                         defs[d].name.c_str(), plan.defPointCounts[d]);
        }
    };

    ShardOutcome outcome = runShardedTasks(
        plan.points.size(),
        [&](std::size_t i) {
            return runPointRow(defs[plan.points[i].defIndex], plan.points[i].point);
        },
        [&](std::size_t i) {
            const FlatPoint& fp = plan.points[i];
            return describePoint(defs[fp.defIndex], fp.point,
                                 plan.defPointCounts[fp.defIndex]);
        },
        shardOptions);
    if (manifest != nullptr) std::fclose(manifest);
    result.failures = std::move(outcome.failures);
    if (!outcome.ok) {
        result.error = outcome.error;
        if (options.progress)
            std::fprintf(stderr, "[campaign] FAILED: %s\n", result.error.c_str());
        return result;
    }

    // Merge resumed rows into the gaps the shard pool skipped.
    for (auto& [index, row] : resumedRows) {
        if (index < plan.points.size() && !outcome.produced[index])
            outcome.rows[index] = std::move(row);
    }

    // --- Registry-order scenario assembly --------------------------------
    for (std::size_t d = 0; d < defs.size(); ++d) {
        ScenarioResult scenario;
        scenario.def = defs[d];
        scenario.records.reserve(plan.defPointCounts[d]);
        for (std::size_t k = 0; k < plan.defPointCounts[d]; ++k) {
            const std::size_t global = plan.defOffsets[d] + k;
            scenario.records.push_back(
                RunRecord{plan.points[global].point, std::move(outcome.rows[global])});
        }
        result.scenarios.push_back(std::move(scenario));
    }

    // Per-scenario artifacts next to the manifest (same rendering as the
    // golden corpus, on purpose: an --out tree can serve as a corpus).
    if (!options.outDir.empty() &&
        !writeGoldenCorpus(result, options.outDir, result.error)) {
        return result;
    }

    result.ok = true;
    return result;
}

std::vector<ScenarioDef> registryDefs(const std::string& filter) {
    std::vector<ScenarioDef> defs;
    for (const ScenarioDef& def : Registry::instance().all()) {
        if (filter.empty() || def.name.find(filter) != std::string::npos)
            defs.push_back(def);
    }
    return defs;
}

namespace {

struct GoldenEntry {
    const char* name;
    void (*trim)(ScenarioDef&);
};

constexpr GoldenEntry kGoldenEntries[] = {
    {"sweep_smoke", nullptr},
    {"sec72_hops", nullptr},
    {"office_multiflow", nullptr},
    {"grid200_dense", nullptr},
    {"fig10_table8_day",
     +[](ScenarioDef& d) {
         // The full figure simulates 24 hours (~50 s wall); one diurnal
         // hour exercises the identical code paths and keeps the CI
         // check fast. The corpus pins this trimmed variant.
         d.base.workload.anemometer.duration = 1 * sim::kHour;
     }},
    // Chaos scenarios: pinning these proves fault expansion, reboot/blackout
    // scheduling, reconnect backoff and the recovery metrics are all
    // deterministic functions of (spec, seed).
    {"line_blackout", nullptr},
    {"office_reboot_storm", nullptr},
    {"border_router_restart", nullptr},
    // Self-healing routing scenarios: pin liveness detection, alternate
    // failover/failback and permanent-failure injection end to end.
    {"relay_failover", nullptr},
    {"partition_heal", nullptr},
    // Congestion-control shootout scenarios: pin the pluggable-CC strategy
    // rows (per-cc goodput, loss_cuts / cuts_skipped, cwnd dynamics) so a
    // behavior change in any strategy — or in the cc row keys — is a
    // deliberate golden update.
    {"fairness_cc_shootout", nullptr},
    {"lossy_line_cc_shootout", nullptr},
    {"city_scale",
     +[](ScenarioDef& d) {
         // The full scenario is a 1,024-node grid plus a grid200_dense
         // point; the corpus pins a 120-node, 15-second city run only —
         // same code paths (slab pool, batched delivery, datapath counter
         // rows), CI-sized wall cost.
         d.base = cityScaleSpec(15 * sim::kSecond, 120);
         d.axes = {{"config", {0}}};
     }},
    // High-BDP frontier scenarios: pin RFC 7323 negotiation, shift-aware
    // window codec, receive-buffer autotuning, the ESP32-class link preset
    // and MAC frame aggregation end to end — a byte change in any of them
    // is a deliberate golden update.
    {"bdp_pipe",
     +[](ScenarioDef& d) {
         // The full ceiling curve runs 15 s per point; the corpus pins a
         // 5-second slice of the same grid — identical code paths
         // (negotiation, autotune growth, scaled adverts), CI-sized cost.
         d.base.workload.timeLimit = 5 * sim::kSecond;
     }},
    {"bdp_line",
     +[](ScenarioDef& d) { d.base.workload.timeLimit = 8 * sim::kSecond; }},
    // The embedded (uIP/BLIP) runner and the sleepy runner, fixed and
    // adaptive polling with the idle tail: pin the runners no other entry
    // reaches. Each runs in a few tens of milliseconds.
    {"table7_stacks", nullptr},
    {"fig13_fixedsleep", nullptr},
    {"fig14_adaptive", nullptr},
};

}  // namespace

std::vector<ScenarioDef> goldenSubset() {
    std::vector<ScenarioDef> defs;
    for (const GoldenEntry& entry : kGoldenEntries) {
        const ScenarioDef* def = Registry::instance().find(entry.name);
        if (def == nullptr) continue;  // binary without that driver linked
        defs.push_back(*def);
        if (entry.trim != nullptr) entry.trim(defs.back());
    }
    return defs;
}

std::vector<std::string> goldenSubsetNames() {
    std::vector<std::string> names;
    for (const GoldenEntry& entry : kGoldenEntries) names.emplace_back(entry.name);
    return names;
}

// --- Golden corpus ----------------------------------------------------------

std::string goldenArtifactPath(const std::string& dir, const std::string& scenario) {
    return dir + "/" + scenario + ".jsonl";
}

bool writeGoldenCorpus(const CampaignResult& result, const std::string& dir,
                       std::string& error) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        error = "cannot create golden directory '" + dir + "': " + ec.message();
        return false;
    }
    for (const ScenarioResult& s : result.scenarios) {
        const std::string path = goldenArtifactPath(dir, s.def.name);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        if (!out) {
            error = "cannot write golden artifact '" + path + "'";
            return false;
        }
        out << s.canonicalLines();
    }
    return true;
}

std::vector<GoldenDiff> checkGoldenCorpus(const CampaignResult& result,
                                          const std::string& dir) {
    std::vector<GoldenDiff> diffs;
    const auto splitLines = [](const std::string& text) {
        std::vector<std::string> lines;
        std::size_t pos = 0;
        while (pos < text.size()) {
            std::size_t end = text.find('\n', pos);
            if (end == std::string::npos) end = text.size();
            lines.push_back(text.substr(pos, end - pos));
            pos = end + 1;
        }
        return lines;
    };
    for (const ScenarioResult& s : result.scenarios) {
        const std::string path = goldenArtifactPath(dir, s.def.name);
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            diffs.push_back({s.def.name, "missing golden artifact " + path});
            continue;
        }
        std::stringstream ss;
        ss << in.rdbuf();
        const std::vector<std::string> expected = splitLines(ss.str());
        const std::vector<std::string> actual = splitLines(s.canonicalLines());
        if (expected.size() != actual.size()) {
            diffs.push_back({s.def.name,
                             "point count changed: golden has " +
                                 std::to_string(expected.size()) + " rows, run produced " +
                                 std::to_string(actual.size())});
            continue;
        }
        for (std::size_t i = 0; i < expected.size(); ++i) {
            if (expected[i] == actual[i]) continue;
            diffs.push_back({s.def.name, "row " + std::to_string(i) +
                                             " diverged\n  golden: " + expected[i] +
                                             "\n  run:    " + actual[i]});
            break;  // first diverging row per scenario is enough
        }
    }
    return diffs;
}

}  // namespace tcplp::scenario
