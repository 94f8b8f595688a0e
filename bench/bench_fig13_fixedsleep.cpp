// Figure 13: RTT distribution over a duty-cycled link with a fixed 2 s
// sleep interval.
//
// Expected shape (Appendix C.1): uplink RTTs cluster at ~1 multiple of the
// sleep interval; downlink RTTs spread across multiples of it (ACKs wait in
// the uplink queue across duty cycles).
#include "bench/driver.hpp"

namespace {
using namespace bench;

ScenarioDef def() {
    ScenarioDef d;
    d.name = "fig13_fixedsleep";
    d.title = "Figure 13: RTT distribution at a fixed 2 s sleep interval";
    d.base.topology.kind = TopologyKind::kSleepyLeaf;
    d.base.workload.kind = WorkloadKind::kSleepyBulk;
    d.base.workload.sleepy.policy = mac::PollPolicy::kFixed;
    d.base.workload.sleepy.sleepInterval = 2 * sim::kSecond;
    d.base.workload.totalBytes = 20000;
    d.base.workload.timeLimit = 60 * sim::kMinute;
    d.axes = {{"uplink", {1, 0}}};
    d.bind = [](ScenarioSpec& s, const Point& p) {
        s.workload.uplink = p.value("uplink") != 0;
    };
    // The sleepy row's rtt_hist_500ms is the histogram the figure plots.
    d.present = [](const SweepResult& r) {
        for (const auto& record : r.records) {
            const auto& row = record.row;
            std::printf("\n%s: n=%.0f median=%.0f ms p10=%.0f p90=%.0f max=%.0f\n",
                        record.point.value("uplink") != 0 ? "Uplink (leaf sends)"
                                                          : "Downlink (leaf receives)",
                        row.number("rtt_n"), row.number("rtt_median_ms"),
                        row.number("rtt_p10_ms"), row.number("rtt_p90_ms"),
                        row.number("rtt_max_ms"));
            const std::vector<double> hist = splitCsv(row.str("rtt_hist_500ms"));
            for (std::size_t i = 0; i < hist.size(); ++i) {
                std::printf("  %4zu-%4zu ms |", i * 500, (i + 1) * 500);
                for (std::size_t b = 0; b < std::size_t(hist[i]) && b < 60; ++b)
                    std::printf("#");
                std::printf(" %zu\n", std::size_t(hist[i]));
            }
        }
        std::printf("\nPaper shape: uplink concentrated near the 2 s interval; downlink\n"
                    "spread over multiples of it.\n");
    };
    return d;
}

Registration reg{def()};
}  // namespace
