// §7.2 + §6.4: goodput vs hop count against the analytical bounds.
//
// Expected shape: one-hop goodput near (but under) the 82 kb/s §6.4 bound,
// then B/2 at two hops and ~B/3 at three or more (radio scheduling).
#include "bench/driver.hpp"

#include "tcplp/model/models.hpp"

namespace {
using namespace bench;

ScenarioDef def() {
    ScenarioDef d;
    d.name = "sec72_hops";
    d.title = "Sec. 7.2: goodput vs hop count (d = 40 ms)";
    d.base.topology.retryDelayMax = sim::fromMillis(40);
    d.base.topology.queueCapacityPackets = 24;
    d.axes = {{"hops", {1, 2, 3, 4}}};
    d.seeds = {1, 2};
    d.bind = [](ScenarioSpec& s, const Point& p) {
        s.topology.hops = std::size_t(p.value("hops"));
        s.workload.totalBytes = s.topology.hops == 1 ? 120000 : 50000;
        // §7.2: four hops need a larger window to fill the longer pipe.
        s.workload.windowSegments = s.topology.hops >= 4 ? 6 : 4;
    };
    d.present = [](const SweepResult& r) {
        const std::uint16_t mss = harness::mssForFrames(5);
        const double bound1 = model::singleHopUpperBound(double(mss), 5.0) * 8.0 / 1000.0;
        std::printf("Single-hop upper bound (Sec. 6.4 analysis): %.1f kb/s (paper: 82)\n\n",
                    bound1);
        std::printf("%-6s %14s %16s %14s\n", "Hops", "Goodput kb/s", "Bound B/min(h,3)",
                    "Paper kb/s");
        const double paper[] = {64.1, 28.3, 19.5, 17.5};
        const double b1 = r.mean("goodput_kbps", {{"hops", 1.0}});
        for (double hops : {1.0, 2.0, 3.0, 4.0}) {
            std::printf("%-6.0f %14.1f %16.1f %14.1f\n", hops,
                        r.mean("goodput_kbps", {{"hops", hops}}),
                        b1 * model::multihopFactor(std::size_t(hops)),
                        paper[std::size_t(hops) - 1]);
        }
        std::printf("\nThe measured curve should track B, ~B/2, ~B/3, ~B/3.\n");
    };
    return d;
}

Registration reg{def()};
}  // namespace
