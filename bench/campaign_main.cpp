// tcplp_campaign: the one CLI for every registered scenario.
//
// Expands every selected scenario's axis grid x seeds into one flat
// run-point list, shards it across a single pool of forked workers, and
// emits one canonical JSON object per point (timing fields stripped —
// byte-identical for any --jobs N), or with --tables each scenario's
// paper-style table. Usage:
//
//   tcplp_campaign [--list] [--filter SUBSTR] [--subset golden] [--jobs N]
//                  [--out DIR] [--resume] [--golden DIR] [--check]
//                  [--present-golden DIR] [--seeds a,b,c] [--tables]
//                  [--quiet] [--wall-out FILE] [--wall-check FILE]
//                  [--wall-tolerance T]
//
//   --list      print the selected scenarios; binds and validates every
//               grid point and exits 1 if any sets a knob its runner
//               ignores (see scenario::validate)
//   --filter    run only scenarios whose name contains SUBSTR
//   --subset    'golden': the curated fast corpus subset (scenario::goldenSubset)
//   --jobs N    worker processes across the whole campaign (default 1, or
//               $TCPLP_BENCH_JOBS); output is byte-identical to N=1
//   --out DIR   write per-scenario artifacts + a resume manifest to DIR
//   --resume    skip points already recorded in DIR's manifest
//   --golden D  write the golden corpus to D — or, with --check, diff
//               against it instead (exit 1 on any non-timing drift)
//   --check     verify mode: diff against --golden / --present-golden DIR
//   --present-golden D
//               snapshot each scenario's presenter table (rendered over
//               timing-stripped rows, so the text is deterministic) to
//               D/<name>.txt — or diff against the snapshots with --check
//   --seeds     override every scenario's seed list
//   --tables    instead of the canonical rows, print each scenario's
//               "=== title ===" header and presenter table (or its rows as
//               JSON, timing fields kept, when it has no presenter)
//   --quiet     suppress per-scenario progress on stderr
//   --wall-out F      record the campaign's total wall time to F (JSON)
//   --wall-check F    fail (exit 1) if this run's wall time drifts more than
//                     the tolerance from the recording in F
//   --wall-tolerance T  relative drift budget for --wall-check (default 0.2)
//
// CI runs `tcplp_campaign --subset golden --golden golden --check` as the
// cross-refactor determinism oracle, and a same-settings --wall-out /
// --wall-check pair as a coarse perf tripwire; see docs/SCENARIOS.md.
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench/driver.hpp"

namespace {

/// A positive integer job count; anything else (a suffix, zero, a
/// negative or out-of-range value) is rejected rather than truncated.
bool parseJobs(const char* text, int& out) {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno != 0 || v < 1 ||
        v > std::numeric_limits<int>::max())
        return false;
    out = int(v);
    return true;
}

bool parseSeedList(const char* text, std::vector<std::uint64_t>& out) {
    const char* p = text;
    while (*p) {
        char* end = nullptr;
        const unsigned long long v = std::strtoull(p, &end, 10);
        if (end == p) return false;
        out.push_back(v);
        p = *end == ',' ? end + 1 : end;
        if (*end != '\0' && *end != ',') return false;
    }
    return !out.empty();
}

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--list] [--filter SUBSTR] [--subset golden] [--jobs N]\n"
                 "          [--out DIR] [--resume] [--golden DIR] [--check]\n"
                 "          [--present-golden DIR] [--seeds a,b,c] [--tables]\n"
                 "          [--quiet] [--wall-out FILE] [--wall-check FILE]\n"
                 "          [--wall-tolerance T]\n",
                 argv0);
    return 2;
}

/// The scenario's presenter output, captured from stdout. The presenter
/// renders TIMING-STRIPPED copies of the rows: any presenter that reads a
/// wall-clock field sees 0, so the snapshot text is a deterministic function
/// of (spec, seed) and can be golden-pinned like the JSONL artifacts.
std::string capturePresentation(const tcplp::scenario::ScenarioResult& s) {
    using namespace tcplp::scenario;
    ScenarioResult stripped{s.def, {}};
    stripped.records.reserve(s.records.size());
    for (const RunRecord& rec : s.records)
        stripped.records.push_back(RunRecord{rec.point, stripTimingFields(rec.row)});

    std::fflush(stdout);
    FILE* sink = std::tmpfile();
    if (sink == nullptr) return {};
    const int saved = dup(fileno(stdout));
    dup2(fileno(sink), fileno(stdout));
    s.def.present(stripped);
    std::fflush(stdout);
    dup2(saved, fileno(stdout));
    close(saved);

    std::fseek(sink, 0, SEEK_END);
    const long size = std::ftell(sink);
    std::fseek(sink, 0, SEEK_SET);
    std::string text(size > 0 ? std::size_t(size) : 0, '\0');
    if (!text.empty() && std::fread(text.data(), 1, text.size(), sink) != text.size())
        text.clear();
    std::fclose(sink);
    return text;
}

std::string presentArtifactPath(const std::string& dir, const std::string& scenario) {
    return dir + "/" + scenario + ".txt";
}

/// "" on success, else a description of the first mismatch.
std::string diffPresentation(const std::string& path, const std::string& actual) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return "missing presenter snapshot " + path;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string expected = ss.str();
    if (expected == actual) return {};
    // Name the first diverging line for the failure message.
    std::size_t line = 1, pos = 0;
    const std::size_t n = std::min(expected.size(), actual.size());
    while (pos < n && expected[pos] == actual[pos]) {
        if (expected[pos] == '\n') ++line;
        ++pos;
    }
    return "presenter output diverged at line " + std::to_string(line);
}

/// {"campaign_wall_ms": N} — the recorded total campaign wall time.
bool readWallRecord(const std::string& path, double& wallMs) {
    std::ifstream in(path);
    if (!in) return false;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    const std::size_t key = text.find("\"campaign_wall_ms\"");
    if (key == std::string::npos) return false;
    const std::size_t colon = text.find(':', key);
    if (colon == std::string::npos) return false;
    wallMs = std::strtod(text.c_str() + colon + 1, nullptr);
    return wallMs > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace tcplp::scenario;

    bool list = false, check = false, quiet = false, tables = false;
    std::string filter, subset, goldenDir, presentDir;
    std::string wallOut, wallCheck;
    double wallTolerance = 0.2;
    CampaignOptions options;
    options.progress = true;
    if (const char* env = std::getenv("TCPLP_BENCH_JOBS")) {
        if (!parseJobs(env, options.jobs)) {
            std::fprintf(stderr, "bad TCPLP_BENCH_JOBS: %s\n", env);
            return 2;
        }
    }

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto valueOf = [&](const char* name) -> const char* {
            const std::string prefix = std::string(name) + "=";
            if (arg.rfind(prefix, 0) == 0) return argv[i] + prefix.size();
            if (arg == name && i + 1 < argc) return argv[++i];
            return nullptr;
        };
        if (arg == "--list") {
            list = true;
        } else if (arg == "--resume") {
            options.resume = true;
        } else if (arg == "--check") {
            check = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--tables") {
            tables = true;
        } else if (const char* v = valueOf("--filter")) {
            filter = v;
        } else if (const char* v = valueOf("--subset")) {
            subset = v;
        } else if (const char* v = valueOf("--jobs")) {
            if (!parseJobs(v, options.jobs)) {
                std::fprintf(stderr, "bad --jobs: %s\n", v);
                return 2;
            }
        } else if (const char* v = valueOf("--out")) {
            options.outDir = v;
        } else if (const char* v = valueOf("--golden")) {
            goldenDir = v;
        } else if (const char* v = valueOf("--present-golden")) {
            presentDir = v;
        } else if (const char* v = valueOf("--wall-out")) {
            wallOut = v;
        } else if (const char* v = valueOf("--wall-check")) {
            wallCheck = v;
        } else if (const char* v = valueOf("--wall-tolerance")) {
            wallTolerance = std::strtod(v, nullptr);
            if (wallTolerance <= 0.0) {
                std::fprintf(stderr, "bad --wall-tolerance: %s\n", v);
                return 2;
            }
        } else if (const char* v = valueOf("--seeds")) {
            options.seedOverride.clear();
            if (!parseSeedList(v, options.seedOverride)) {
                std::fprintf(stderr, "bad --seeds list: %s\n", v);
                return 2;
            }
        } else {
            return usage(argv[0]);
        }
    }
    options.progress = !quiet;
    if (check && goldenDir.empty() && presentDir.empty()) {
        std::fprintf(stderr,
                     "--check requires --golden DIR and/or --present-golden DIR "
                     "(the corpus to diff)\n");
        return 2;
    }
    if (options.resume && options.outDir.empty()) {
        std::fprintf(stderr, "--resume requires --out DIR (where the manifest lives)\n");
        return 2;
    }
    if (!subset.empty() && subset != "golden") {
        std::fprintf(stderr, "unknown --subset '%s' (only 'golden')\n", subset.c_str());
        return 2;
    }

    std::vector<ScenarioDef> defs =
        subset == "golden" ? goldenSubset() : registryDefs(filter);
    if (subset == "golden") {
        // A curated scenario whose driver stopped being linked must fail
        // loudly — otherwise the corpus check silently shrinks and the
        // "oracle" goes green while checking less than it claims.
        for (const std::string& name : goldenSubsetNames()) {
            bool found = false;
            for (const ScenarioDef& def : defs) found |= (def.name == name);
            if (!found) {
                std::fprintf(stderr,
                             "golden subset scenario '%s' is not registered in this "
                             "binary — corpus check would be incomplete\n",
                             name.c_str());
                return 1;
            }
        }
    }
    if (subset == "golden" && !filter.empty()) {
        std::erase_if(defs, [&filter](const ScenarioDef& d) {
            return d.name.find(filter) == std::string::npos;
        });
    }
    if (list) {
        // Every listed point is bound and validated: a knob its runner would
        // silently ignore fails the listing, naming scenario, point and knob.
        int invalid = 0;
        for (const ScenarioDef& def : defs) {
            std::size_t points = def.seeds.size();
            for (const Axis& a : def.axes) points *= a.values.size();
            std::printf("%-24s %4zu points  %s\n", def.name.c_str(), points,
                        def.title.c_str());
            const std::vector<std::uint64_t>& seeds =
                options.seedOverride.empty() ? def.seeds : options.seedOverride;
            for (const std::string& error : invalidPoints(def, seeds)) {
                std::fprintf(stderr, "invalid %s\n", error.c_str());
                ++invalid;
            }
        }
        return invalid == 0 ? 0 : 1;
    }
    if (defs.empty()) {
        std::fprintf(stderr, "no scenario matches filter '%s'\n", filter.c_str());
        return 1;
    }

    const auto wallStart = std::chrono::steady_clock::now();
    const CampaignResult result = runCampaign(defs, options);
    const double wallMs = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - wallStart)
                              .count();
    if (!result.ok) {
        std::fprintf(stderr, "campaign failed: %s\n", result.error.c_str());
        for (const ShardFailure& failure : result.failures)
            std::fprintf(stderr, "  %s\n", failure.message().c_str());
        return 1;
    }
    if (!quiet) {
        std::fprintf(stderr, "[campaign] %zu points run, %zu resumed, %zu scenarios\n",
                     result.pointsRun, result.pointsResumed, result.scenarios.size());
    }

    // --- Wall-clock tracker (coarse same-machine perf tripwire) ------------
    if (!wallOut.empty()) {
        std::ofstream out(wallOut, std::ios::trunc);
        if (!out) {
            std::fprintf(stderr, "cannot write wall record '%s'\n", wallOut.c_str());
            return 1;
        }
        out << "{\"campaign_wall_ms\": " << std::int64_t(wallMs) << "}\n";
        if (!quiet)
            std::fprintf(stderr, "[campaign] wall %.0f ms recorded to %s\n", wallMs,
                         wallOut.c_str());
    }
    if (!wallCheck.empty()) {
        double recordedMs = 0.0;
        if (!readWallRecord(wallCheck, recordedMs)) {
            std::fprintf(stderr, "cannot read wall record '%s'\n", wallCheck.c_str());
            return 1;
        }
        const double drift = wallMs / recordedMs - 1.0;
        std::fprintf(stderr, "[campaign] wall %.0f ms vs recorded %.0f ms (%+.0f%%)\n",
                     wallMs, recordedMs, drift * 100.0);
        if (drift > wallTolerance || drift < -wallTolerance) {
            std::fprintf(stderr,
                         "[campaign] WALL DRIFT beyond +/-%.0f%% — perf regression "
                         "or machine noise; investigate before re-recording\n",
                         wallTolerance * 100.0);
            return 1;
        }
    }

    // --- Presenter snapshots ----------------------------------------------
    int presentFailures = 0;
    if (!presentDir.empty() && check) {
        std::size_t checked = 0;
        for (const ScenarioResult& s : result.scenarios) {
            if (!s.def.present) continue;
            const std::string detail = diffPresentation(
                presentArtifactPath(presentDir, s.def.name), capturePresentation(s));
            if (detail.empty()) {
                ++checked;
                continue;
            }
            std::fprintf(stderr, "[campaign] PRESENT DIFF in %s: %s\n",
                         s.def.name.c_str(), detail.c_str());
            ++presentFailures;
        }
        if (presentFailures == 0)
            std::fprintf(stderr, "[campaign] presenter check OK: %zu snapshots match %s\n",
                         checked, presentDir.c_str());
    } else if (!presentDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(presentDir, ec);
        if (ec) {
            std::fprintf(stderr, "cannot create present-golden directory '%s': %s\n",
                         presentDir.c_str(), ec.message().c_str());
            return 1;
        }
        std::size_t written = 0;
        for (const ScenarioResult& s : result.scenarios) {
            if (!s.def.present) continue;
            const std::string path = presentArtifactPath(presentDir, s.def.name);
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            if (!out) {
                std::fprintf(stderr, "cannot write presenter snapshot '%s'\n",
                             path.c_str());
                return 1;
            }
            out << capturePresentation(s);
            ++written;
        }
        std::fprintf(stderr, "[campaign] %zu presenter snapshots written to %s\n",
                     written, presentDir.c_str());
    }

    if (!goldenDir.empty() && check) {
        const std::vector<GoldenDiff> diffs = checkGoldenCorpus(result, goldenDir);
        if (diffs.empty()) {
            std::fprintf(stderr, "[campaign] golden check OK: %zu scenarios match %s\n",
                         result.scenarios.size(), goldenDir.c_str());
            return presentFailures == 0 ? 0 : 1;
        }
        for (const GoldenDiff& diff : diffs)
            std::fprintf(stderr, "[campaign] GOLDEN DIFF in %s: %s\n",
                         diff.scenario.c_str(), diff.detail.c_str());
        return 1;
    }
    if (check) return presentFailures == 0 ? 0 : 1;
    if (!goldenDir.empty()) {
        std::string error;
        if (!writeGoldenCorpus(result, goldenDir, error)) {
            std::fprintf(stderr, "campaign failed: %s\n", error.c_str());
            return 1;
        }
        std::fprintf(stderr, "[campaign] golden corpus written: %zu scenarios -> %s\n",
                     result.scenarios.size(), goldenDir.c_str());
    }

    if (tables) {
        // The merged rows with their timing fields: what a scenario's
        // presenter needs to report wall-clock results.
        for (const ScenarioResult& s : result.scenarios) {
            bench::printHeader(s.def.title);
            if (s.def.present) {
                s.def.present(s);
            } else {
                const std::string lines = s.jsonLines();
                std::fwrite(lines.data(), 1, lines.size(), stdout);
            }
        }
        return 0;
    }
    const std::string lines = result.canonicalLines();
    std::fwrite(lines.data(), 1, lines.size(), stdout);
    return 0;
}
