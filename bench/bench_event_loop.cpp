// Event-core microbenchmark: the pooled scheduler on its binary-heap and
// timer-wheel backends.
//
// The presenter emits ONE line of JSON to stdout so future PRs can track
// the perf trajectory in BENCH_*.json files:
//
//   {"bench":"event_loop","events":...,"pooled_allocs_per_event":...,...}
//
// The workload models what the protocol stack actually does to the
// scheduler: a set of restartable millisecond-scale timers (TCP RTO,
// delayed ACK, MAC sleep/poll — all of which cluster at a handful of
// deadlines) that fire, re-arm themselves, and occasionally re-arm a
// neighbor before it expires. Heap allocations are counted by the shared
// counting operator new (bench/alloc_count.hpp) — no instrumentation in the
// measured code.
//
// "Pooled" is the slab pool + indexed binary heap; "wheel" is the same pool
// behind the hierarchical TimerWheel backend (sim/scheduler.hpp) — both fire
// the identical event order, so the delta is pure scheduler cost.
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/alloc_count.hpp"
#include "bench/driver.hpp"
#include "tcplp/sim/simulator.hpp"

namespace {

using tcplp::sim::Time;

// --- Workload ---------------------------------------------------------------

constexpr int kTimers = 64;
constexpr std::uint64_t kEvents = 1'000'000;

struct RunResult {
    double nsPerEvent = 0.0;
    double allocsPerEvent = 0.0;
    double eventsPerSec = 0.0;
};

RunResult runWorkload(tcplp::sim::SchedulerKind scheduler) {
    tcplp::sim::Simulator simulator(tcplp::sim::SimConfig{1, scheduler});
    std::uint64_t fired = 0;
    std::vector<std::unique_ptr<tcplp::sim::Timer>> timers;
    timers.reserve(kTimers);
    constexpr Time kMs = tcplp::sim::kMillisecond;  // protocol timers are ms-scale
    for (int i = 0; i < kTimers; ++i) {
        timers.push_back(std::make_unique<tcplp::sim::Timer>(simulator, [&, i] {
            ++fired;
            if (fired >= kEvents) return;
            // Re-arm self (the RTO idiom)...
            timers[std::size_t(i)]->start(kMs * (1 + i % 13));
            // ...and every third fire, re-arm a neighbor that has not
            // expired yet (the delayed-ACK-reset / sleep-extend idiom).
            if (fired % 3 == 0) {
                timers[std::size_t((i + 1) % kTimers)]->start(kMs * (2 + i % 11));
            }
        }));
    }

    const std::uint64_t allocsBefore = bench::allocCount();
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kTimers; ++i) timers[std::size_t(i)]->start(kMs + i);
    simulator.run();
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t allocs = bench::allocCount() - allocsBefore;

    const double ns = double(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    RunResult r;
    r.nsPerEvent = ns / double(fired);
    r.allocsPerEvent = double(allocs) / double(fired);
    r.eventsPerSec = double(fired) * 1e9 / ns;
    return r;
}

using namespace bench;

ScenarioDef def() {
    ScenarioDef d;
    d.name = "event_loop";
    d.title = "Event-core microbench: pooled scheduler, heap vs timer-wheel backend";
    d.measure = [](const ScenarioSpec&, const Point&) {
        using tcplp::sim::SchedulerKind;
        // Delta, not the absolute counter: the global accumulates across
        // every simulation this process ran before (in a campaign a worker
        // executes other scenarios' points back-to-back), and rows must be
        // independent of execution order.
        const std::uint64_t fallbacksBefore = tcplp::sim::SmallFn::heapFallbacks();
        const RunResult pooled = runWorkload(SchedulerKind::kBinaryHeap);
        const RunResult wheel = runWorkload(SchedulerKind::kTimerWheel);
        scenario::MetricRow row;
        row.set("events", kEvents)
            .set("timers", std::int64_t(kTimers))
            .set("pooled_events_per_sec", pooled.eventsPerSec)
            .set("pooled_ns_per_event", pooled.nsPerEvent)
            .set("pooled_allocs_per_event", pooled.allocsPerEvent)
            .set("wheel_events_per_sec", wheel.eventsPerSec)
            .set("wheel_ns_per_event", wheel.nsPerEvent)
            .set("wheel_allocs_per_event", wheel.allocsPerEvent)
            .set("wheel_vs_heap_speedup", pooled.nsPerEvent / wheel.nsPerEvent)
            .set("smallfn_heap_fallbacks",
                 tcplp::sim::SmallFn::heapFallbacks() - fallbacksBefore);
        return row;
    };
    d.present = [](const SweepResult& r) {
        const auto& row = r.records.front().row;
        std::printf(
            "{\"bench\":\"event_loop\",\"events\":%.0f,\"timers\":%.0f,"
            "\"pooled_events_per_sec\":%.0f,\"pooled_ns_per_event\":%.1f,"
            "\"pooled_allocs_per_event\":%.6f,"
            "\"wheel_events_per_sec\":%.0f,\"wheel_ns_per_event\":%.1f,"
            "\"wheel_allocs_per_event\":%.6f,\"wheel_vs_heap_speedup\":%.2f,"
            "\"smallfn_heap_fallbacks\":%.0f}\n",
            row.number("events"), row.number("timers"),
            row.number("pooled_events_per_sec"), row.number("pooled_ns_per_event"),
            row.number("pooled_allocs_per_event"), row.number("wheel_events_per_sec"),
            row.number("wheel_ns_per_event"), row.number("wheel_allocs_per_event"),
            row.number("wheel_vs_heap_speedup"), row.number("smallfn_heap_fallbacks"));
    };
    return d;
}

Registration reg{def()};
}  // namespace
