// §8 model validation: measured TCP goodput vs Equation 2 (paper) and
// Equation 1 (Mathis) under controlled, independently-set packet loss.
//
// Uses the in-memory pipe so the loss probability is exact: bandwidth and
// RTT emulate the one-hop LLN link (125 kb/s effective, ~100 ms RTT).
// Expected shape: Eq. 2 tracks measurements across the loss range; Eq. 1
// wildly overpredicts at low loss (it assumes cwnd is loss-limited).
#include "bench/driver.hpp"

#include "tcplp/model/models.hpp"

namespace {
using namespace bench;

ScenarioDef def() {
    ScenarioDef d;
    d.name = "sec8_model";
    d.title = "Sec. 8: measured goodput vs Equation 2 (paper) and Equation 1 (Mathis)";
    d.base.topology.kind = TopologyKind::kPipe;
    d.base.workload.mssFrames = 0;  // the pipe's 462 B MSS (no frame count)
    d.base.workload.totalBytes = 400000;
    d.base.workload.timeLimit = 60 * sim::kMinute;
    d.axes = {{"p", {0.0, 0.005, 0.01, 0.02, 0.04, 0.08, 0.12, 0.16}}};
    d.seeds = {1, 2, 3};
    d.bind = [](ScenarioSpec& s, const Point& p) {
        s.topology.pipeLossForward = p.value("p");
        s.topology.pipeLossReverse = p.value("p") / 4;  // ACK path lighter-loaded
    };
    d.present = [](const SweepResult& r) {
        std::printf("%-8s %12s %12s %12s %10s\n", "p", "Measured", "Eq.2 kb/s",
                    "Eq.1 kb/s", "RTT s");
        for (double p : {0.0, 0.005, 0.01, 0.02, 0.04, 0.08, 0.12, 0.16}) {
            const double goodput = r.mean("goodput_kbps", {{"p", p}});
            const double rtt = r.mean("rtt_s", {{"p", p}});
            const double lossMeasured = r.mean("loss_measured", {{"p", p}});
            const double eq2 = model::llnGoodput(462.0, rtt, lossMeasured, 4.0) * 8 / 1000.0;
            const double eq1 = lossMeasured > 0
                                   ? model::mathisGoodput(462.0, rtt, lossMeasured) * 8 / 1000.0
                                   : -1;
            std::printf("%-8.3f %9.1f kb/s %12.1f %12.1f %10.3f\n", p, goodput, eq2, eq1,
                        rtt);
        }
        std::printf("\nEq. 1 should overshoot hugely at small p (hundreds of kb/s);\n"
                    "Eq. 2 should stay within ~25%% of the measurement (paper Fig. 6).\n");
    };
    return d;
}

Registration reg{def()};
}  // namespace
