// The cc shootout axis and the row contract that carries its metrics.
//
// Pins the three cross-layer guarantees of the pluggable-CC work:
//
//  1. Row contract: a row's keys depend only on the runner that produced
//     it. Every plain-TcpSocket bulk, two-flow, sleepy and multi-flow row
//     carries the cwnd-dynamics keys (per flow, prefixed, on multi-flow
//     rows); chaos and embedded rows never do; bulk and chaos rows carry
//     the routing-repair keys; multi-flow rows the datapath counters.
//
//  2. Determinism: a shootout point is a pure function of (spec, seed) for
//     every strategy, and the cc knob changes the simulation it names.
//
//  3. Acceptance: on the lossy-line shootout's 5% i.i.d. loss point, CERL
//     delivers strictly higher goodput than stock NewReno — the same gate
//     CI enforces on BENCH_cc.json.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tcplp/scenario/metrics.hpp"
#include "tcplp/scenario/spec.hpp"
#include "tcplp/scenario/workloads.hpp"
#include "tcplp/tcp/cc.hpp"

using namespace tcplp;
using namespace tcplp::scenario;

namespace {

/// The lossy_line_cc_shootout base (bench/bench_cc_shootout.cpp), inlined
/// so the acceptance gate is pinned even when no bench driver is linked.
ScenarioSpec lossyLineSpec(tcp::CcKind cc, double loss) {
    ScenarioSpec s;
    s.topology.kind = TopologyKind::kLine;
    s.topology.hops = 3;
    s.topology.retryDelayMax = sim::fromMillis(40);
    s.topology.queueCapacityPackets = 24;
    s.topology.maxFrameRetries = 1;
    s.topology.linkLoss = loss;
    s.workload.totalBytes = 100000;
    s.workload.windowSegments = 12;
    s.workload.mssFrames = 3;
    s.workload.timeLimit = 20 * sim::kMinute;
    s.workload.cc = cc;
    return s;
}

using Keys = std::vector<std::string>;

const Keys kCwndStems{"cwnd_min",       "cwnd_max",  "cwnd_mean",
                      "ssthresh_final", "loss_cuts", "cuts_skipped"};

/// cc_name plus the six cwnd-dynamics keys, each with `suffix`.
Keys ccKeys(const std::string& suffix) {
    Keys keys{"cc_name"};
    for (const std::string& stem : kCwndStems) keys.push_back(stem + suffix);
    return keys;
}

/// A multi-flow row's cc keys: cc_name once, the six keys per flow under
/// the flow<i>_ prefix.
Keys flowCcKeys(std::size_t flows) {
    Keys keys{"cc_name"};
    for (std::size_t i = 0; i < flows; ++i)
        for (const std::string& stem : kCwndStems)
            keys.push_back("flow" + std::to_string(i) + "_" + stem);
    return keys;
}

Keys concat(Keys a, const Keys& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

const Keys kRouteKeys{"no_route_drops", "forward_drops", "reroutes", "failbacks",
                      "blackhole_drops"};
const Keys kDatapathKeys{"pool_recycled",          "pool_fresh",
                         "pool_bytes_recycled",    "pool_bytes_fresh",
                         "smallfn_heap_fallbacks", "prepend_fallbacks",
                         "neighbor_rebuilds",      "neighbor_revalidations"};

/// The keys one runner's rows must carry, and the keys they must not.
struct RowContract {
    const char* runner;
    ScenarioSpec spec;
    Keys present;
    Keys absent;
};

/// A small bulk run: two motes one hop apart.
ScenarioSpec pairSpec() {
    ScenarioSpec s;
    s.topology.kind = TopologyKind::kPair;
    s.workload.totalBytes = 4000;
    s.workload.timeLimit = 30 * sim::kSecond;
    return s;
}

ScenarioSpec twoFlowSpec() {
    ScenarioSpec s;
    s.topology.hops = 1;
    s.topology.retryDelayMax = sim::fromMillis(40);
    s.topology.queueCapacityPackets = 7;
    s.workload.kind = WorkloadKind::kTwoFlow;
    s.workload.totalBytes = 20000;
    s.workload.timeLimit = 30 * sim::kSecond;
    return s;
}

/// A duty-cycled leaf (Appendix C's adaptive poll) with its idle tail.
ScenarioSpec sleepySpec() {
    ScenarioSpec s;
    s.topology.kind = TopologyKind::kSleepyLeaf;
    s.workload.kind = WorkloadKind::kSleepyBulk;
    s.workload.sleepy.policy = mac::PollPolicy::kAdaptive;
    s.workload.totalBytes = 4000;
    s.workload.timeLimit = 2 * sim::kMinute;
    s.workload.idleTail = 30 * sim::kSecond;
    return s;
}

/// A uIP stop-and-wait client.
ScenarioSpec embeddedSpec() {
    ScenarioSpec s;
    s.workload.kind = WorkloadKind::kEmbeddedBulk;
    s.workload.mssFrames = 0;
    s.workload.totalBytes = 3000;
    s.workload.timeLimit = 5 * sim::kMinute;
    return s;
}

std::vector<RowContract> rowContracts() {
    ScenarioSpec chaos;  // the clean chaos baseline: chaos schema, no faults
    chaos.topology.hops = 2;
    chaos.workload.totalBytes = 20000;
    chaos.workload.timeLimit = 5 * sim::kMinute;
    chaos.fault.chaos = true;

    return {
        {"pair bulk", pairSpec(), concat(kRouteKeys, ccKeys("")), {}},
        {"two-flow", twoFlowSpec(), concat(ccKeys("_a"), ccKeys("_b")), {"cwnd_min"}},
        {"embedded", embeddedSpec(), kRouteKeys, ccKeys("")},
        {"chaos", chaos, concat(kRouteKeys, {"reconnects"}), ccKeys("")},
        {"sleepy", sleepySpec(),
         concat(ccKeys(""), {"rtt_hist_500ms", "idle_radio_dc"}), {}},
        {"multi-flow", officeMultiflowSpec(15 * sim::kSecond),
         concat(kDatapathKeys, flowCcKeys(4)), kCwndStems},
    };
}

TEST(CcShootout, CcFromAxisMapsTheCanonicalValues) {
    EXPECT_EQ(ccFromAxis(0.0), tcp::CcKind::kNewReno);
    EXPECT_EQ(ccFromAxis(1.0), tcp::CcKind::kCerl);
    EXPECT_EQ(ccFromAxis(2.0), tcp::CcKind::kWestwood);
}

TEST(CcShootout, RowKeysDependOnlyOnTheRunner) {
    for (const RowContract& c : rowContracts()) {
        SCOPED_TRACE(c.runner);
        const MetricRow row = runScenario(c.spec, 3);
        for (const std::string& key : c.present) EXPECT_NE(row.find(key), nullptr) << key;
        for (const std::string& key : c.absent) EXPECT_EQ(row.find(key), nullptr) << key;
    }
}

/// A clean short run's window summary for one flow is sane.
void expectSaneCwnd(const MetricRow& row, const std::string& suffix) {
    EXPECT_GE(row.number("cwnd_max" + suffix), row.number("cwnd_min" + suffix));
    EXPECT_GE(row.number("cwnd_mean" + suffix), row.number("cwnd_min" + suffix));
    EXPECT_LE(row.number("cwnd_mean" + suffix), row.number("cwnd_max" + suffix));
}

TEST(CcShootout, BulkRowsCarryCcKeysOnlyWhenTheSpecOptsIn) {
    // A spec opts in by picking a runner that drives a plain TcpSocket
    // sender; the uIP client of an embedded bulk run does not.
    ScenarioSpec pair = pairSpec();
    const MetricRow row = runScenario(pair, 3);
    for (const std::string& key : ccKeys("")) EXPECT_NE(row.find(key), nullptr) << key;
    EXPECT_EQ(row.str("cc_name"), "newreno");
    expectSaneCwnd(row, "");

    const MetricRow embedded = runScenario(embeddedSpec(), 3);
    for (const std::string& key : ccKeys("")) EXPECT_EQ(embedded.find(key), nullptr) << key;

    // The always-on probe chains the spec's own tracer and only adds keys:
    // a traced run reports the same row as an untraced one.
    int traced = 0;
    pair.workload.cwndTracer = [&traced](sim::Time, std::uint32_t, std::uint32_t) {
        ++traced;
    };
    const MetricRow withTracer = runScenario(pair, 3);
    EXPECT_GT(traced, 0);
    EXPECT_EQ(toCanonicalJsonLine(withTracer), toCanonicalJsonLine(row));
}

TEST(CcShootout, TwoFlowRowsCarrySuffixedCcKeysWhenGated) {
    // runFlows drives both two-flow senders as plain TcpSockets, so the row
    // carries one suffixed cc summary per flow and no unsuffixed one.
    const MetricRow row = runScenario(twoFlowSpec(), 2);
    for (const char* suffix : {"_a", "_b"}) {
        SCOPED_TRACE(suffix);
        for (const std::string& key : ccKeys(suffix))
            EXPECT_NE(row.find(key), nullptr) << key;
        expectSaneCwnd(row, suffix);
    }
    EXPECT_EQ(row.str("cc_name"), "newreno");
    EXPECT_EQ(row.find("cwnd_min"), nullptr);
}

TEST(CcShootout, EveryStrategyIsDeterministicPerSpecAndSeed) {
    for (tcp::CcKind cc :
         {tcp::CcKind::kNewReno, tcp::CcKind::kCerl, tcp::CcKind::kWestwood}) {
        const ScenarioSpec s = lossyLineSpec(cc, 0.02);
        const MetricRow a = runScenario(s, 7);
        const MetricRow b = runScenario(s, 7);
        // Canonical rendering strips the wall-clock fields, which are the
        // only keys allowed to differ between identical (spec, seed) runs.
        EXPECT_EQ(toCanonicalJsonLine(a), toCanonicalJsonLine(b))
            << tcp::ccName(cc);
    }
}

TEST(CcShootout, TheCcKnobNamesThreeDistinctSimulations) {
    const MetricRow reno = runScenario(lossyLineSpec(tcp::CcKind::kNewReno, 0.02), 7);
    const MetricRow cerl = runScenario(lossyLineSpec(tcp::CcKind::kCerl, 0.02), 7);
    EXPECT_NE(reno.number("rng_digest"), cerl.number("rng_digest"));
    // CERL is the only strategy that ever skips a cut.
    EXPECT_EQ(reno.number("cuts_skipped"), 0.0);
    EXPECT_GT(cerl.number("cuts_skipped"), 0.0);
}

TEST(CcShootout, CerlBeatsNewRenoAtTheNoiseLossGatePoint) {
    // The CI acceptance gate on BENCH_cc.json, pinned in-tree: at 5% i.i.d.
    // link loss, loss differentiation must buy measurable goodput.
    const MetricRow reno = runScenario(lossyLineSpec(tcp::CcKind::kNewReno, 0.05), 7);
    const MetricRow cerl = runScenario(lossyLineSpec(tcp::CcKind::kCerl, 0.05), 7);
    EXPECT_GT(cerl.number("goodput_kbps"), 1.05 * reno.number("goodput_kbps"));
    // The mechanism, not just the outcome: CERL skipped cuts NewReno took.
    EXPECT_GT(cerl.number("cuts_skipped"), 0.0);
    EXPECT_LT(cerl.number("loss_cuts"), reno.number("loss_cuts"));
}

}  // namespace
