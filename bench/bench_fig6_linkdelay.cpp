// Figure 6: effect of the random delay d between link-layer retries.
//
//  (a) one hop:    goodput falls slowly with d; segment loss stays ~0.
//  (b) three hops: segment loss is high at d=0 (hidden terminals) and
//                  collapses once d reaches a few tens of ms; goodput is
//                  surprisingly flat (§7.3's robustness result).
//  (c) RTT grows with d.
//  (d) total frames transmitted falls with d (fewer link retries).
//
// The "Pred." column is Equation 2 evaluated with the measured RTT and
// segment loss — the dotted lines of Figs. 6(a)/6(b).
#include "bench/driver.hpp"

#include "tcplp/model/models.hpp"

namespace {
using namespace bench;

ScenarioDef def() {
    ScenarioDef d;
    d.name = "fig6_linkdelay";
    d.title = "Figure 6: link-retry delay sweep (goodput/loss/RTT/frames + Eq. 2)";
    d.base.topology.queueCapacityPackets = 24;
    d.axes = {{"hops", {1, 3}}, {"d_ms", {0, 5, 10, 20, 30, 40, 60, 80, 100}}};
    d.seeds = {1, 2, 3};
    d.bind = [](ScenarioSpec& s, const Point& p) {
        s.topology.hops = std::size_t(p.value("hops"));
        s.topology.retryDelayMax = sim::fromMillis(sim::Time(p.value("d_ms")));
        s.workload.totalBytes = s.topology.hops == 1 ? 120000 : 50000;
    };
    d.present = [](const SweepResult& r) {
        const std::uint16_t mss = harness::mssForFrames(5);
        for (double hops : {1.0, 3.0}) {
            std::printf("\n-- %.0f hop(s) --\n", hops);
            std::printf("%-8s %12s %10s %10s %12s %12s\n", "d(ms)", "Goodput", "SegLoss",
                        "RTT ms", "Frames", "Pred kb/s");
            for (double ms : {0., 5., 10., 20., 30., 40., 60., 80., 100.}) {
                const double goodput =
                    r.mean("goodput_kbps", {{"hops", hops}, {"d_ms", ms}});
                const double loss = r.mean("segment_loss", {{"hops", hops}, {"d_ms", ms}});
                const double rtt = r.mean("rtt_median_ms", {{"hops", hops}, {"d_ms", ms}});
                const double frames = r.mean("frames_tx", {{"hops", hops}, {"d_ms", ms}});
                // Equation 2 with w = 4 segments, measured RTT and loss.
                const double predicted =
                    model::llnGoodput(double(mss), rtt / 1000.0, loss, 4.0) * 8.0 / 1000.0;
                std::printf("%-8.0f %9.1f kb/s %9.3f %10.0f %12.0f %12.1f\n", ms, goodput,
                            loss, rtt, frames, predicted);
            }
        }
        std::printf(
            "\nPaper shape: 3-hop segment loss ~6%% at d=0 vs <1%% at d>=30 ms, with\n"
            "nearly unchanged goodput (small windows recover instantly, §7.3); the\n"
            "frame count falls with d as fewer link retries are spent per frame.\n");
    };
    return d;
}

Registration reg{def()};
}  // namespace
