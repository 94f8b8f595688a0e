// Table 7: TCPlp vs simplified embedded TCP stacks (uIP/BLIP profiles),
// one-hop and multi-hop goodput.
//
// Expected shape: TCPlp 5-40x the single-outstanding-segment stacks.
#include "bench/driver.hpp"

namespace {
using namespace bench;

// stack axis: 0 = uIP profile, 1 = BLIP profile, 2 = full-scale TCPlp.
ScenarioDef def() {
    ScenarioDef d;
    d.name = "table7_stacks";
    d.title = "Table 7: goodput across TCP stacks (kb/s)";
    d.base.topology.retryDelayMax = sim::fromMillis(40);
    d.axes = {{"stack", {0, 1, 2}}, {"hops", {1, 3}}};
    d.bind = [](ScenarioSpec& s, const Point& p) {
        const int stack = int(p.value("stack"));
        s.topology.hops = std::size_t(p.value("hops"));
        if (stack < 2) {
            // uIP negotiates 4-frame segments in some studies; classic
            // deployments used 1 frame. Table 7's headline rows: the
            // embedded client's 1-frame (60 B) MSS.
            s.workload.kind = WorkloadKind::kEmbeddedBulk;
            s.workload.mssFrames = 0;  // the TCPlp server's MSS: 462 B
            s.workload.embeddedProfile = stack == 0 ? transport::EmbeddedProfile::kUip
                                                    : transport::EmbeddedProfile::kBlip;
            s.workload.totalBytes = s.topology.hops == 1 ? 20000 : 8000;
            s.workload.timeLimit = 60 * sim::kMinute;
        } else {
            s.topology.queueCapacityPackets = 24;
            s.workload.totalBytes = s.topology.hops == 1 ? 150000 : 60000;
        }
    };
    d.present = [](const SweepResult& r) {
        std::printf("%-28s %12s %12s\n", "Stack", "One hop", "Three hops");
        const double uip1 = r.mean("goodput_kbps", {{"stack", 0}, {"hops", 1}});
        const double uip3 = r.mean("goodput_kbps", {{"stack", 0}, {"hops", 3}});
        const double blip1 = r.mean("goodput_kbps", {{"stack", 1}, {"hops", 1}});
        const double blip3 = r.mean("goodput_kbps", {{"stack", 1}, {"hops", 3}});
        const double full1 = r.mean("goodput_kbps", {{"stack", 2}, {"hops", 1}});
        const double full3 = r.mean("goodput_kbps", {{"stack", 2}, {"hops", 3}});
        std::printf("%-28s %12.2f %12.2f   (paper: 1.5-12 / 0.55-12)\n",
                    "uIP profile (1 seg, 1 frame)", uip1, uip3);
        std::printf("%-28s %12.2f %12.2f   (paper: 4.8 / 2.4)\n",
                    "BLIP profile (1 seg, no RTT)", blip1, blip3);
        std::printf("%-28s %12.2f %12.2f   (paper: 75 / 20)\n", "TCPlp (full-scale)",
                    full1, full3);
        std::printf("\nImprovement factors: one hop %.0fx over uIP, %.0fx over BLIP;\n",
                    full1 / uip1, full1 / blip1);
        std::printf("three hops %.0fx over uIP, %.0fx over BLIP (paper: 5-40x).\n",
                    full3 / uip3, full3 / blip3);
    };
    return d;
}

Registration reg{def()};
}  // namespace
