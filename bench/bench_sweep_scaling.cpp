// Campaign-runner scaling harness (own main, not a registry scenario).
//
// Two rows of JSON (BENCH_sweep.json):
//
//  1. Within-scenario sharding: a one-scenario campaign over the
//     sweep_smoke grid with an 8-seed list, serially and at --jobs 8,
//     merged rows verified byte-identical.
//  2. Cross-scenario sharding: a campaign over sweep_smoke + sec72_hops —
//     one worker pool executing points from BOTH scenarios back-to-back —
//     serial vs --jobs 8, canonical output verified byte-identical.
//
// The speedups are bounded by the machine: `cores` is recorded so a 1-core
// container's ~1.0x is not mistaken for a runner regression — on an 8-core
// host the independent simulations shard perfectly, and the campaign row
// additionally shows the cross-scenario queue keeping the pool busy where
// per-scenario pools would drain one grid at a time.
#include <unistd.h>

#include <chrono>
#include <cstdio>

#include "bench/driver.hpp"

namespace {

double msSince(const std::chrono::steady_clock::time_point& t0) {
    const auto t1 = std::chrono::steady_clock::now();
    return double(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
           1e6;
}

}  // namespace

int main() {
    using namespace tcplp::scenario;
    const ScenarioDef* def = Registry::instance().find("sweep_smoke");
    if (def == nullptr) {
        std::fprintf(stderr, "sweep_smoke scenario not linked in\n");
        return 1;
    }
    const long cores = sysconf(_SC_NPROCESSORS_ONLN);

    const auto timeCampaign = [](const std::vector<ScenarioDef>& defs, int jobs,
                                 CampaignResult& out) {
        CampaignOptions options;
        options.jobs = jobs;
        const auto t0 = std::chrono::steady_clock::now();
        out = runCampaign(defs, options);
        return msSince(t0);
    };

    // --- Row 1: within-scenario sharding ----------------------------------
    // 8 seeds on the 2-hop uplink cell: one run point per seed.
    ScenarioDef scaled = *def;
    scaled.axes = {{"hops", {2}}, {"uplink", {1}}};
    scaled.seeds = {1, 2, 3, 4, 5, 6, 7, 8};

    CampaignResult serial, parallel;
    const double serialMs = timeCampaign({scaled}, 1, serial);
    const double parallelMs = timeCampaign({scaled}, 8, parallel);
    if (!serial.ok || !parallel.ok) {
        std::fprintf(stderr, "sweep failed: %s%s\n", serial.error.c_str(),
                     parallel.error.c_str());
        return 1;
    }
    if (serial.scenarios[0].jsonLines() != parallel.scenarios[0].jsonLines()) {
        std::fprintf(stderr, "determinism violated: --jobs 8 output differs from serial\n");
        return 1;
    }
    std::printf("{\"bench\":\"sweep\",\"scenario\":\"sweep_smoke\",\"points\":%zu,"
                "\"jobs\":8,\"cores\":%ld,\"serial_ms\":%.1f,\"parallel_ms\":%.1f,"
                "\"speedup\":%.2f,\"byte_identical\":true}\n",
                serial.pointsRun, cores, serialMs, parallelMs, serialMs / parallelMs);

    // --- Row 2: cross-scenario campaign sharding --------------------------
    std::vector<ScenarioDef> defs;
    defs.push_back(scaled);
    if (const ScenarioDef* hops = Registry::instance().find("sec72_hops"))
        defs.push_back(*hops);

    CampaignResult campSerial, campParallel;
    const double campSerialMs = timeCampaign(defs, 1, campSerial);
    const double campParallelMs = timeCampaign(defs, 8, campParallel);
    if (!campSerial.ok || !campParallel.ok) {
        std::fprintf(stderr, "campaign failed: %s%s\n", campSerial.error.c_str(),
                     campParallel.error.c_str());
        return 1;
    }
    if (campSerial.canonicalLines() != campParallel.canonicalLines()) {
        std::fprintf(stderr,
                     "determinism violated: campaign --jobs 8 differs from serial\n");
        return 1;
    }
    std::printf("{\"bench\":\"campaign\",\"scenarios\":%zu,\"points\":%zu,"
                "\"jobs\":8,\"cores\":%ld,\"serial_ms\":%.1f,\"parallel_ms\":%.1f,"
                "\"speedup\":%.2f,\"byte_identical\":true}\n",
                campSerial.scenarios.size(), campSerial.pointsRun, cores, campSerialMs,
                campParallelMs, campSerialMs / campParallelMs);
    return 0;
}
