// Figure 12: TCP over a duty-cycled link with a fixed sleep interval —
// goodput and RTT vs interval duration, uplink and downlink.
//
// Expected shape (Appendix C.1): at 20 ms the throughput matches the
// always-on link; it collapses as the interval grows because the 4-segment
// buffers cannot fill the interval-dominated BDP. Uplink RTT ≈ the sleep
// interval (TCP self-clocking); downlink RTT a multiple of it.
#include "bench/driver.hpp"

namespace {
using namespace bench;

ScenarioDef def() {
    ScenarioDef d;
    d.name = "fig12_sleep";
    d.title = "Figure 12: fixed sleep interval sweep (TCP over duty-cycled link)";
    d.base.topology.kind = TopologyKind::kSleepyLeaf;
    d.base.workload.kind = WorkloadKind::kSleepyBulk;
    d.base.workload.sleepy.policy = mac::PollPolicy::kFixed;
    d.base.workload.timeLimit = 40 * sim::kMinute;
    d.axes = {{"sleep_ms", {20, 100, 250, 500, 1000, 2000, 4000}}, {"uplink", {1, 0}}};
    d.bind = [](ScenarioSpec& s, const Point& p) {
        const auto ms = sim::Time(p.value("sleep_ms"));
        s.workload.sleepy.sleepInterval = sim::fromMillis(ms);
        s.workload.totalBytes = ms <= 250 ? 60000 : 20000;
        s.workload.uplink = p.value("uplink") != 0;
    };
    d.present = [](const SweepResult& r) {
        std::printf("%-12s %14s %12s %14s %12s\n", "Sleep(ms)", "Up kb/s", "UpRTT ms",
                    "Down kb/s", "DownRTT ms");
        for (double ms : {20., 100., 250., 500., 1000., 2000., 4000.}) {
            std::printf("%-12.0f %14.1f %12.0f %14.1f %12.0f\n", ms,
                        r.mean("goodput_kbps", {{"sleep_ms", ms}, {"uplink", 1}}),
                        r.mean("rtt_median_ms", {{"sleep_ms", ms}, {"uplink", 1}}),
                        r.mean("goodput_kbps", {{"sleep_ms", ms}, {"uplink", 0}}),
                        r.mean("rtt_median_ms", {{"sleep_ms", ms}, {"uplink", 0}}));
        }
        std::printf("\nPaper shape: ~full throughput at 20 ms; sharp decline with longer\n"
                    "intervals; uplink RTT tracks the sleep interval (self-clocking).\n");
    };
    return d;
}

Registration reg{def()};
}  // namespace
