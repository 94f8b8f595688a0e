// Chaos campaign machinery: fault-aware runs must be byte-reproducible,
// shard-safe, watchdog-bounded, and actually survive the injected failures.
//
// The load-bearing guarantees pinned here:
//
//  1. Determinism: identical (spec, seed) chaos runs produce byte-identical
//     rows and RNG digests, and a sharded sweep (--jobs 8) merges to exactly
//     the serial bytes — fault injection never perturbs reproducibility.
//
//  2. No chaos run can hang: the progress watchdog converts an intentionally
//     wedged flow (connection dead, reconnect disabled) into an attributed
//     failure in BOTH execution modes — serial in-process and forked
//     workers.
//
//  3. Survival (the PR's acceptance scenario): a border-router reboot
//     mid-transfer kills the connection via the tightened R2 budget, the
//     app-level reconnect re-establishes the flow, and the transfer
//     completes with verified content.
#include <gtest/gtest.h>

#include "tcplp/scenario/campaign.hpp"
#include "tcplp/scenario/chaos.hpp"
#include "tcplp/scenario/workloads.hpp"

using namespace tcplp;
using namespace tcplp::scenario;

namespace {

/// A one-scenario campaign of `def` at `jobs` workers.
CampaignResult runOne(const ScenarioDef& def, int jobs = 1) {
    CampaignOptions options;
    options.jobs = jobs;
    return runCampaign({def}, options);
}

/// Small chaos scenario: 2-hop line, a first-hop blackout plus a randomized
/// relay-reboot pair — every fault type of the sweep axis in a fast run.
ScenarioDef chaosDef() {
    ScenarioDef def;
    def.name = "chaos_test";
    def.base.topology.kind = TopologyKind::kLine;
    def.base.topology.hops = 2;
    def.base.workload.totalBytes = 12000;
    def.base.workload.timeLimit = 5 * sim::kMinute;
    def.base.fault.chaos = true;
    def.base.fault.plan.fixed = {
        {sim::FaultKind::kLinkBlackout, 2 * sim::kSecond, 3 * sim::kSecond, 1, 10},
    };
    sim::RandomFaultBurst burst;
    burst.kind = sim::FaultKind::kNodeReboot;
    burst.count = 2;
    burst.windowStart = 1 * sim::kSecond;
    burst.windowEnd = 20 * sim::kSecond;
    burst.durationMin = 1 * sim::kSecond;
    burst.durationMax = 3 * sim::kSecond;
    burst.candidates = {10};  // the relay
    def.base.fault.plan.random = {burst};
    def.axes = {{"fault", {0, 1}}};
    def.seeds = {1, 2};
    def.bind = [](ScenarioSpec& s, const Point& p) {
        s.fault.enabled = faultFromAxis(p.value("fault"));
    };
    return def;
}

/// A flow guaranteed to wedge: the blackout kills the connection (tiny R2
/// budget) and reconnect is disabled, so nothing ever moves again after the
/// window ends — exactly what the watchdog exists to catch.
ScenarioDef wedgedDef() {
    ScenarioDef def;
    def.name = "chaos_wedged";
    def.base.topology.kind = TopologyKind::kLine;
    def.base.topology.hops = 1;
    def.base.workload.totalBytes = 500000;  // cannot finish before the fault
    def.base.workload.timeLimit = 2 * sim::kMinute;
    def.base.fault.chaos = true;
    def.base.fault.enabled = true;
    def.base.fault.plan.fixed = {
        {sim::FaultKind::kLinkBlackout, 5 * sim::kSecond, 10 * sim::kSecond, 0, 0},
    };
    def.base.fault.maxRetransmits = 2;   // give up during the blackout
    def.base.fault.reconnect = false;    // ... and stay dead
    def.base.fault.watchdogStall = 20 * sim::kSecond;
    // Two points: the shard runner clamps jobs to the task count, so a
    // single-seed def would silently fall back to the serial path and never
    // exercise the forked-worker failure attribution.
    def.seeds = {1, 2};
    return def;
}

}  // namespace

TEST(Chaos, TimelineOutageUnionMergesOverlaps) {
    FaultTimeline tl;
    tl.events = {
        {sim::FaultKind::kLinkBlackout, 10 * sim::kSecond, 10 * sim::kSecond, 0, 0},
        {sim::FaultKind::kNodeReboot, 15 * sim::kSecond, 10 * sim::kSecond, 3, 0},
        {sim::FaultKind::kLinkBlackout, 40 * sim::kSecond, 5 * sim::kSecond, 0, 0},
    };
    EXPECT_DOUBLE_EQ(tl.outageSeconds(), 20.0);  // [10,25) + [40,45)
    EXPECT_TRUE(tl.outageActive(12 * sim::kSecond));
    EXPECT_TRUE(tl.outageActive(20 * sim::kSecond));
    EXPECT_FALSE(tl.outageActive(30 * sim::kSecond));
    EXPECT_EQ(tl.lastOutageEnd(), 45 * sim::kSecond);
    EXPECT_EQ(tl.lastOutageEndBefore(30 * sim::kSecond), 25 * sim::kSecond);
    EXPECT_EQ(tl.lastOutageEndBefore(5 * sim::kSecond), 0);
}

TEST(Chaos, SameSeedAndPlanAreByteIdentical) {
    const ScenarioDef def = chaosDef();
    const CampaignResult runA = runOne(def);
    const CampaignResult runB = runOne(def);
    ASSERT_TRUE(runA.ok) << runA.error;
    ASSERT_TRUE(runB.ok) << runB.error;
    const ScenarioResult& a = runA.scenarios[0];
    EXPECT_EQ(a.jsonLines(), runB.scenarios[0].jsonLines());
    for (const RunRecord& r : a.records) {
        EXPECT_NE(r.row.number("rng_digest"), 0.0);
        EXPECT_EQ(r.row.number("content_ok"), 1.0);
    }
    // The fault axis actually injects: fault rows see outage time, clean
    // rows see none.
    EXPECT_GT(a.mean("fault_events", {{"fault", 1.0}}), 0.0);
    EXPECT_GT(a.mean("outage_s", {{"fault", 1.0}}), 0.0);
    EXPECT_EQ(a.mean("fault_events", {{"fault", 0.0}}), 0.0);
    EXPECT_EQ(a.mean("outage_s", {{"fault", 0.0}}), 0.0);
}

TEST(Chaos, ShardedSweepMergesToSerialBytes) {
    const ScenarioDef def = chaosDef();
    const CampaignResult a = runOne(def, 1);
    const CampaignResult b = runOne(def, 8);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(a.scenarios[0].jsonLines(), b.scenarios[0].jsonLines());
}

TEST(Chaos, WatchdogFailsWedgedFlowInProcess) {
    const CampaignResult r = runOne(wedgedDef());
    ASSERT_FALSE(r.ok);
    // The serial path wraps the throw into an attributed in-process error.
    EXPECT_NE(r.error.find("chaos watchdog"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("chaos_wedged"), std::string::npos) << r.error;
}

TEST(Chaos, WatchdogFailsWedgedFlowAcrossForkedWorkers) {
    const CampaignResult r = runOne(wedgedDef(), 2);
    ASSERT_FALSE(r.ok);
    ASSERT_FALSE(r.failures.empty());
    const ShardFailure& f = r.failures.front();
    EXPECT_TRUE(f.taskKnown);
    EXPECT_NE(f.message().find("chaos_wedged"), std::string::npos) << f.message();
    // The worker's stderr tail carries the watchdog diagnosis.
    EXPECT_NE(f.message().find("chaos watchdog"), std::string::npos) << f.message();
}

// The PR's acceptance scenario: border router reboots 4 s into a 2-hop
// transfer (mid-flight — the clean run takes ~8.5 s), stays dark for 20 s. R2 (maxRetransmits = 3) gives up during the
// outage; the app reconnect ladder re-establishes the flow and finishes the
// transfer with verified content.
TEST(Chaos, BorderRouterRestartReestablishesFlow) {
    ScenarioSpec spec;
    spec.topology.kind = TopologyKind::kLine;
    spec.topology.hops = 2;
    spec.workload.totalBytes = 30000;
    spec.workload.timeLimit = 10 * sim::kMinute;
    spec.fault.chaos = true;
    spec.fault.enabled = true;
    spec.fault.plan.fixed = {
        {sim::FaultKind::kNodeReboot, 4 * sim::kSecond, 20 * sim::kSecond, 1, 0},
    };
    spec.fault.maxRetransmits = 3;

    const MetricRow r = runScenario(spec, 1);
    EXPECT_EQ(r.number("complete"), 1.0);
    EXPECT_EQ(r.number("content_ok"), 1.0);
    EXPECT_EQ(r.number("bytes"), 30000.0);
    EXPECT_GE(r.number("reconnects"), 1.0);
    EXPECT_GE(r.number("give_ups"), 1.0);   // R2 fired during the outage
    EXPECT_GE(r.number("recover_s"), 0.0);  // flow came back after the outage
    EXPECT_GT(r.number("goodput_kbps"), 0.0);
}

// Endpoint crash: the sender mote itself reboots mid-transfer, losing all
// TCP state. The reboot listener drops the connections silently (no FIN/RST
// reaches the peer) and the app resumes from the acked offset on recovery.
TEST(Chaos, SenderMoteRebootResumesFromAckedOffset) {
    ScenarioSpec spec;
    spec.topology.kind = TopologyKind::kLine;
    spec.topology.hops = 1;
    spec.workload.totalBytes = 60000;
    spec.workload.timeLimit = 10 * sim::kMinute;
    spec.fault.chaos = true;
    spec.fault.enabled = true;
    spec.fault.plan.fixed = {
        {sim::FaultKind::kNodeReboot, 3 * sim::kSecond, 3 * sim::kSecond, 10, 0},
    };

    const MetricRow r = runScenario(spec, 1);
    EXPECT_EQ(r.number("complete"), 1.0);
    EXPECT_EQ(r.number("content_ok"), 1.0);
    EXPECT_GE(r.number("reconnects"), 1.0);
    EXPECT_GT(r.number("goodput_kbps"), 0.0);
}

// The clean baseline of a chaos scenario shares the chaos schema but must
// behave exactly like a plain bulk run: no reconnects, no give-ups, full
// delivery.
TEST(Chaos, CleanBaselineCompletesWithoutSurvivalMachinery) {
    ScenarioSpec spec;
    spec.topology.kind = TopologyKind::kLine;
    spec.topology.hops = 1;
    spec.workload.totalBytes = 20000;
    spec.workload.timeLimit = 5 * sim::kMinute;
    spec.fault.chaos = true;  // chaos runner, but no plan armed

    const MetricRow r = runScenario(spec, 1);
    EXPECT_EQ(r.number("complete"), 1.0);
    EXPECT_EQ(r.number("content_ok"), 1.0);
    EXPECT_EQ(r.number("reconnects"), 0.0);
    EXPECT_EQ(r.number("give_ups"), 0.0);
    EXPECT_EQ(r.number("fault_events"), 0.0);
    EXPECT_DOUBLE_EQ(r.number("outage_s"), 0.0);
    EXPECT_DOUBLE_EQ(r.number("recover_s"), -1.0);
}
