// Figure 5: goodput and RTT vs window (receive-buffer) size, downlink.
//
// Expected shape (§6.2): goodput rises with the window and levels off once
// the window exceeds the bandwidth-delay product (~1.5 KiB); RTT grows with
// window as self-queueing sets in.
#include "bench/driver.hpp"

#include "tcplp/model/models.hpp"

namespace {
using namespace bench;

ScenarioDef def() {
    ScenarioDef d;
    d.name = "fig5_window";
    d.title = "Figure 5: effect of window (buffer) size, single hop downlink";
    d.base.topology.hops = 1;
    d.base.topology.retryDelayMax = sim::Time(0);
    d.base.topology.queueCapacityPackets = 24;
    d.base.workload.totalBytes = 100000;
    d.base.workload.uplink = false;  // paper's Fig. 5 is downlink
    d.axes = {{"segments", {1, 2, 3, 4, 5, 6}}};
    d.seeds = {1, 2};
    d.bind = [](ScenarioSpec& s, const Point& p) {
        s.workload.windowSegments = std::size_t(p.value("segments"));
    };
    d.present = [](const SweepResult& r) {
        const std::uint16_t mss = harness::mssForFrames(5);
        std::printf("(MSS = %u bytes = 5 frames)\n", mss);
        std::printf("%-10s %12s %14s %12s\n", "Segments", "Window(B)", "Goodput kb/s",
                    "RTT ms");
        for (double segments : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}) {
            std::printf("%-10.0f %12zu %14.1f %12.0f\n", segments,
                        std::size_t(segments) * std::size_t(mss),
                        r.mean("goodput_kbps", {{"segments", segments}}),
                        r.mean("rtt_median_ms", {{"segments", segments}}));
        }
        std::printf("\nPaper: goodput levels off at ~1.5 KiB (about 4 segments) — the BDP\n"
                    "of a ~125 kb/s effective link with ~100 ms RTT (%.0f bytes).\n",
                    model::bdpBytes(125000.0, 0.1));
    };
    return d;
}

Registration reg{def()};
}  // namespace
