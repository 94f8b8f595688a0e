// Megascale single-core datapath bench: the city_scale scenario (a 1,024-node
// grid with 24 saturating mixed-direction TCP flows) plus grid200_dense on
// the same engine.
//
// The presenter emits ONE line of JSON to stdout (the BENCH_city.json
// trajectory file, refreshed with
// `./build/tcplp_campaign --filter city_scale --tables --quiet | tail -n 1`):
//
//   {"bench":"city_scale","nodes":1024,...,"city_listener_visits_per_frame":...}
//
// Two sweep points, bound from the `config` axis:
//   0  city_scale spec (slab pool + batched spatial delivery)
//   1  grid200_dense
// city_listener_visits_per_frame counts the candidate radios the channel
// examines per transmitted frame: the spatial index keeps it near the
// neighbourhood size at any node count, where a linear scan reads ~N-1.
// city_events_per_frame and grid200_events_per_frame divide the simulator's
// fired events by the channel's frames: the engine's deterministic work per
// radio frame (one delivery event per transmission that also drops the
// carrier, one SPI-readout event per transmission instant).
//
// Heap discipline is measured with the shared counting operator new
// (bench/alloc_count.hpp): the
// steady-state window (past the TCP ramp, sampled via the channel delivery
// tap) must stay under ~0.05 allocations per delivered frame — the slab
// recycler serving every frame, segment and event from warm storage. The
// alloc and wall fields are timing fields (stripped from golden artifacts);
// the golden corpus pins this scenario's behavioral rows at reduced scale.
#include <chrono>
#include <memory>

#include "bench/alloc_count.hpp"
#include "bench/driver.hpp"
#include "tcplp/phy/channel.hpp"

namespace {
using namespace bench;

/// Steady-state window probe, fed by the channel delivery tap. Frames are
/// counted as (tick, transmitter) transitions — CSMA serializes a node's
/// transmissions, so consecutive per-listener tap calls of one frame share
/// both. Arms at `warmup` (past the TCP ramp) and tracks the allocation
/// counter at every tap, so the window excludes setup, ramp and teardown.
struct SteadyProbe {
    sim::Time warmup = 0;
    bool armed = false;
    std::uint64_t frames = 0;
    std::uint64_t allocsAtWarm = 0, framesAtWarm = 0, allocsLast = 0;
    sim::Time lastNow = -1;
    phy::NodeId lastSrc = 0;

    void onDelivery(sim::Time now, phy::NodeId src) {
        if (now != lastNow || src != lastSrc) {
            ++frames;
            lastNow = now;
            lastSrc = src;
        }
        allocsLast = bench::allocCount();
        if (!armed && now >= warmup) {
            armed = true;
            allocsAtWarm = allocsLast;
            framesAtWarm = frames;
        }
    }

    double steadyAllocsPerFrame() const {
        if (!armed || frames <= framesAtWarm) return 0.0;
        return double(allocsLast - allocsAtWarm) / double(frames - framesAtWarm);
    }
};

ScenarioDef def() {
    ScenarioDef d;
    d.name = "city_scale";
    d.title = "City-scale grid: 1,024 nodes, 24 flows, one core";
    d.base = scenario::cityScaleSpec();
    d.axes = {{"config", {0, 1}}};
    d.seeds = {1};
    d.bind = [](ScenarioSpec& s, const Point& p) {
        const int config = int(p.value("config"));
        if (config == 0) return;  // the city spec itself
        s = scenario::grid200DenseSpec(30 * sim::kSecond);
    };
    d.measure = [](const ScenarioSpec& spec, const Point& p) {
        // Best-of-5 wall: a 30 s sim here lands in tens of milliseconds of
        // wall, where one scheduler hiccup swings frames/s by ~10%. Each rep
        // replays the identical simulation with its
        // own fresh simulator and pool (every non-timing field — and the
        // allocation counts — is rep-invariant), so the fastest wall is the
        // least-perturbed measurement of the same computation.
        scenario::MetricRow row;
        double bestWall = 0.0, steadyAllocsPerFrame = 0.0, totalAllocs = 0.0;
        for (int rep = 0; rep < 5; ++rep) {
            ScenarioSpec run = spec;
            // shared_ptr: the tap std::function must stay copyable.
            auto probe = std::make_shared<SteadyProbe>();
            probe->warmup = run.workload.multiFlowDuration / 3;
            run.workload.deliveryTap = [probe](sim::Time now, phy::NodeId src,
                                               phy::NodeId, std::size_t,
                                               bool) { probe->onDelivery(now, src); };
            const std::uint64_t allocs0 =
                bench::allocCount();
            const auto t0 = std::chrono::steady_clock::now();
            scenario::MetricRow r = scenario::runScenario(run, p.seed);
            const auto t1 = std::chrono::steady_clock::now();
            const std::uint64_t allocs1 =
                bench::allocCount();
            const double wallMs =
                double(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                           .count()) /
                1e6;
            if (rep == 0) {
                row = r;
                steadyAllocsPerFrame = probe->steadyAllocsPerFrame();
                totalAllocs = double(allocs1 - allocs0);
            }
            if (rep == 0 || wallMs < bestWall) bestWall = wallMs;
        }
        const double frames = row.number("frames_tx");
        row.set("wall_ms", bestWall)
            .set("frames_per_sec", frames * 1000.0 / std::max(bestWall, 1e-9))
            .set("total_allocs_per_frame", frames > 0 ? totalAllocs / frames : 0.0)
            .set("steady_allocs_per_frame", steadyAllocsPerFrame);
        return row;
    };
    d.present = [](const SweepResult& r) {
        // Rows by config value; golden-trimmed sweeps carry config 0 only.
        const scenario::MetricRow* rows[2] = {nullptr, nullptr};
        for (const auto& record : r.records) {
            const int config = int(record.point.value("config"));
            if (config >= 0 && config <= 1) rows[config] = &record.row;
        }
        static const char* kLabels[2] = {"city_1024", "grid200"};
        std::printf("%-16s %12s %10s %12s %12s %14s\n", "Config", "frames",
                    "wall ms", "frames/s", "allocs/frm", "pool recycled");
        for (int c = 0; c < 2; ++c) {
            if (rows[c] == nullptr) continue;
            const auto& row = *rows[c];
            const double recycled = row.number("pool_recycled");
            const double fresh = row.number("pool_fresh");
            std::printf("%-16s %12.0f %10.0f %12.0f %12.4f %13.1f%%\n", kLabels[c],
                        row.number("frames_tx"), row.number("wall_ms"),
                        row.number("frames_per_sec"),
                        row.number("steady_allocs_per_frame"),
                        100.0 * recycled / std::max(1.0, recycled + fresh));
        }
        const scenario::MetricRow* city = rows[0];
        const double cityFrames = city ? city->number("frames_tx") : 0.0;
        const double visitsPerFrame =
            cityFrames > 0.0 ? city->number("listener_visits") / cityFrames : 0.0;
        const auto eventsPerFrame = [](const scenario::MetricRow* row) {
            return row ? row->number("sim_events_per_frame") : 0.0;
        };
        std::printf("\n");
        std::printf(
            "{\"bench\":\"city_scale\",\"nodes\":%zu,\"flows\":24,"
            "\"city_frames\":%.0f,\"city_wall_ms\":%.0f,"
            "\"city_frames_per_sec\":%.0f,"
            "\"city_steady_allocs_per_frame\":%.4f,"
            "\"city_total_allocs_per_frame\":%.4f,"
            "\"city_listener_visits_per_frame\":%.2f,"
            "\"city_events_per_frame\":%.3f,\"grid200_events_per_frame\":%.3f,"
            "\"pool_recycled\":%.0f,\"pool_fresh\":%.0f,"
            "\"neighbor_rebuilds\":%.0f,\"smallfn_heap_fallbacks\":%.0f,"
            "\"prepend_fallbacks\":%.0f,"
            "\"grid200_frames_per_sec\":%.0f}\n",
            r.def.base.topology.nodes, cityFrames, city ? city->number("wall_ms") : 0.0,
            city ? city->number("frames_per_sec") : 0.0,
            city ? city->number("steady_allocs_per_frame") : 0.0,
            city ? city->number("total_allocs_per_frame") : 0.0, visitsPerFrame,
            eventsPerFrame(city), eventsPerFrame(rows[1]),
            city ? city->number("pool_recycled") : 0.0,
            city ? city->number("pool_fresh") : 0.0,
            city ? city->number("neighbor_rebuilds") : 0.0,
            city ? city->number("smallfn_heap_fallbacks") : 0.0,
            city ? city->number("prepend_fallbacks") : 0.0,
            rows[1] ? rows[1]->number("frames_per_sec") : 0.0);
    };
    return d;
}

Registration reg{def()};
}  // namespace
