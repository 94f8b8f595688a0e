// Figure 4: goodput vs Maximum Segment Size (in frames), uplink & downlink.
//
// Expected shape (§6.1): poor at small MSS (header overhead dominates),
// diminishing returns past ~5 frames; the paper picks MSS = 5 frames.
#include "bench/driver.hpp"

namespace {
using namespace bench;

ScenarioDef def() {
    ScenarioDef d;
    d.name = "fig4_mss";
    d.title = "Figure 4: goodput vs MSS (single hop via border router)";
    d.base.topology.hops = 1;
    d.base.topology.retryDelayMax = sim::Time(0);  // no hidden terminals (§7.1)
    d.base.topology.queueCapacityPackets = 24;
    d.base.workload.totalBytes = 120000;
    d.axes = {{"frames", {2, 3, 4, 5, 6, 7, 8}}, {"uplink", {1, 0}}};
    d.seeds = {1, 2};
    d.bind = [](ScenarioSpec& s, const Point& p) {
        s.workload.mssFrames = std::size_t(p.value("frames"));
        s.workload.uplink = p.value("uplink") != 0;
        const std::uint16_t mss = harness::mssForFrames(s.workload.mssFrames);
        s.workload.windowSegments = std::max<std::size_t>(4, 1848 / mss);
    };
    d.present = [](const SweepResult& r) {
        std::printf("%-14s %10s %14s %14s\n", "MSS(frames)", "MSS(bytes)", "Uplink kb/s",
                    "Downlink kb/s");
        for (double frames : {2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0}) {
            std::printf("%-14.0f %10u %14.1f %14.1f\n", frames,
                        harness::mssForFrames(std::size_t(frames)),
                        r.mean("goodput_kbps", {{"frames", frames}, {"uplink", 1}}),
                        r.mean("goodput_kbps", {{"frames", frames}, {"uplink", 0}}));
        }
        std::printf("\nPaper: rises steeply to ~5 frames then levels off near 60-75 kb/s.\n");
    };
    return d;
}

Registration reg{def()};
}  // namespace
