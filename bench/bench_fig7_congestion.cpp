// Figure 7: congestion behavior over three wireless hops.
//
//  (a) cwnd trace at d=0: unlike the classic saw-tooth, cwnd sits pinned at
//      the (small) buffer cap and snaps back immediately after loss (§7.3).
//  (b) loss-recovery mix vs d: fast retransmissions shrink as d grows
//      (hidden-terminal losses disappear); timeouts stay roughly flat.
#include "bench/driver.hpp"

namespace {
using namespace bench;

ScenarioDef traceDef() {
    ScenarioDef d;
    d.name = "fig7_cwnd_trace";
    d.title = "Figure 7(a): cwnd trace, 3 hops, d = 0 (sampled transitions)";
    d.base.topology.hops = 3;
    d.base.topology.retryDelayMax = sim::Time(0);
    d.base.topology.queueCapacityPackets = 24;
    d.base.workload.totalBytes = 60000;
    d.seeds = {2};
    d.measure = [](const ScenarioSpec& spec, const Point& p) {
        std::vector<std::pair<double, std::uint32_t>> trace;
        ScenarioSpec s = spec;
        s.workload.cwndTracer = [&trace](sim::Time t, std::uint32_t cwnd, std::uint32_t) {
            trace.emplace_back(sim::toSeconds(t), cwnd);
        };
        const scenario::FlowRunResult r = scenario::runFlows(s, p.seed);
        const tcp::TcpStats& sender = r.flows.front().stats;

        const std::uint32_t cap = std::uint32_t(4 * scenario::resolveMss(s.workload));
        std::size_t atCap = 0;
        for (const auto& [t, c] : trace) atCap += (c >= cap);
        std::string decimated;
        for (std::size_t i = 0; i < trace.size();
             i += std::max<std::size_t>(1, trace.size() / 24)) {
            if (!decimated.empty()) decimated += ';';
            decimated += scenario::formatDouble(trace[i].first) + ':' +
                         std::to_string(trace[i].second);
        }
        scenario::MetricRow row;
        row.set("trace_points", std::uint64_t(trace.size()))
            .set("frac_at_cap",
                 trace.empty() ? 0.0 : double(atCap) / double(trace.size()))
            .set("goodput_kbps", r.flows.front().goodputKbps)
            .set("fast_rexmits", sender.fastRetransmissions)
            .set("timeouts", sender.timeouts)
            .set("cwnd_trace", decimated)
            .set("rng_digest", r.rngDigest);
        return row;
    };
    d.present = [](const SweepResult& r) {
        const auto& row = r.records.front().row;
        std::printf("trace points=%.0f, fraction at max window=%0.2f (paper: \"almost "
                    "always maxed out\")\n",
                    row.number("trace_points"), row.number("frac_at_cap"));
        const std::string& trace = row.str("cwnd_trace");
        std::size_t pos = 0;
        while (pos < trace.size()) {
            std::size_t semi = trace.find(';', pos);
            if (semi == std::string::npos) semi = trace.size();
            const std::string sample = trace.substr(pos, semi - pos);
            const std::size_t colon = sample.find(':');
            if (colon != std::string::npos) {
                std::printf("  t=%7.2fs cwnd=%5.0f\n",
                            std::strtod(sample.substr(0, colon).c_str(), nullptr),
                            std::strtod(sample.substr(colon + 1).c_str(), nullptr));
            }
            pos = semi + 1;
        }
        std::printf("(transfer: %.1f kb/s, fast rexmits=%.0f, timeouts=%.0f)\n",
                    row.number("goodput_kbps"), row.number("fast_rexmits"),
                    row.number("timeouts"));
    };
    return d;
}

ScenarioDef mixDef() {
    ScenarioDef d;
    d.name = "fig7_loss_mix";
    d.title = "Figure 7(b): loss recovery mix vs link-retry delay, 3 hops";
    d.base.topology.hops = 3;
    d.base.topology.queueCapacityPackets = 24;
    d.base.workload.totalBytes = 40000;
    d.axes = {{"d_ms", {0, 10, 20, 40, 60, 100}}};
    d.seeds = {1, 2, 3};
    d.bind = [](ScenarioSpec& s, const Point& p) {
        s.topology.retryDelayMax = sim::fromMillis(sim::Time(p.value("d_ms")));
    };
    d.present = [](const SweepResult& r) {
        std::printf("%-8s %18s %10s\n", "d(ms)", "FastRetransmits", "Timeouts");
        for (double ms : {0., 10., 20., 40., 60., 100.}) {
            std::printf("%-8.0f %18.0f %10.0f\n", ms,
                        sumAt(r, "fast_rexmits", {{"d_ms", ms}}),
                        sumAt(r, "timeouts", {{"d_ms", ms}}));
        }
        std::printf("\nPaper shape: fast retransmissions dominate at d=0 and fall with d;\n"
                    "timeouts come from other loss sources and stay roughly constant.\n");
    };
    return d;
}

Registration regTrace{traceDef()};
Registration regMix{mixDef()};
}  // namespace
