// Figure 14 / Appendix C.2: the Trickle-inspired adaptive sleep interval.
//
// smin = 20 ms, smax = 5 s: bursts collapse the interval to smin (high
// throughput), idle periods double it back to smax (~0.1% idle duty cycle).
// Expected: uplink ~always-on throughput (paper 68.6 kb/s), downlink
// slightly less (55.6), uplink RTT mostly under ~200 ms, and a tiny idle
// duty cycle after the transfer ends.
#include "bench/driver.hpp"

namespace {
using namespace bench;

ScenarioDef def() {
    ScenarioDef d;
    d.name = "fig14_adaptive";
    d.title = "Figure 14 / C.2: adaptive sleep interval (smin=20 ms, smax=5 s)";
    d.base.topology.kind = TopologyKind::kSleepyLeaf;
    d.base.workload.kind = WorkloadKind::kSleepyBulk;
    d.base.workload.sleepy.policy = mac::PollPolicy::kAdaptive;
    d.base.workload.sleepy.sminAdaptive = 20 * sim::kMillisecond;
    d.base.workload.sleepy.smaxAdaptive = 5 * sim::kSecond;
    d.base.workload.totalBytes = 100000;
    d.base.workload.windowSegments = 6;  // C.2 enlarges buffers to 6 packets
    d.base.workload.timeLimit = 30 * sim::kMinute;
    d.axes = {{"uplink", {1, 0}}};
    d.bind = [](ScenarioSpec& s, const Point& p) {
        s.workload.uplink = p.value("uplink") != 0;
        // The idle-duty-cycle tail is measured after the uplink transfer.
        s.workload.idleTail = s.workload.uplink ? 10 * sim::kMinute : sim::Time(0);
    };
    d.present = [](const SweepResult& r) {
        const auto* up = r.first({{"uplink", 1}});
        const auto* down = r.first({{"uplink", 0}});
        std::printf("Uplink goodput:   %6.1f kb/s   (paper: 68.6; always-on link: ~60)\n",
                    up->row.number("goodput_kbps"));
        std::printf("Downlink goodput: %6.1f kb/s   (paper: 55.6)\n",
                    down->row.number("goodput_kbps"));
        for (const auto* rec : {up, down}) {
            std::printf("%-24s median=%4.0f ms  p90=%4.0f ms  max=%5.0f ms  (n=%.0f)\n",
                        rec == up ? "Uplink RTT" : "Downlink RTT",
                        rec->row.number("rtt_median_ms"), rec->row.number("rtt_p90_ms"),
                        rec->row.number("rtt_max_ms"), rec->row.number("rtt_n"));
        }
        std::printf("Idle radio duty cycle after transfer: %.3f%%   (paper: ~0.1%%)\n",
                    up->row.number("idle_radio_dc") * 100.0);
    };
    return d;
}

Registration reg{def()};
}  // namespace
