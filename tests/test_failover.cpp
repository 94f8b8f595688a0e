// End-to-end self-healing: permanent node death, alternate-parent
// failover, partition + failback, and the kFailed API surface.
//
// The load-bearing guarantees pinned here:
//
//  1. relay_failover (the PR's acceptance scenario): sensor 15's only
//     parent dies for good mid-transfer; the mesh repairs around it and
//     the flow completes with zero TCP give-ups.
//
//  2. partition_heal: every link at the sensor goes dark past the R2
//     budget — TCP gives up, the app reconnect ladder rides out the
//     outage, and after the heal the default route fails back to the
//     preferred parent.
//
//  3. kNodeFailure expansion is a pure function of (plan, seed), its
//     outage window is normalized to zero length, and its per-event
//     draw count matches the other kinds.
//
//  4. Overlapping faults compose: a reboot inside a node blackout on the
//     same node, serial vs sharded, merges to byte-identical rows.
//
//  5. kFailed is a terminal-but-polite state: send/sendZeroCopy return 0,
//     connect() is rejected cleanly, and rexmitGiveUps stays monotone.
#include <gtest/gtest.h>

#include "tcplp/harness/pipe.hpp"
#include "tcplp/scenario/chaos.hpp"
#include "tcplp/scenario/campaign.hpp"
#include "tcplp/scenario/workloads.hpp"
#include "tcplp/sim/fault.hpp"
#include "tcplp/tcp/tcp.hpp"

using namespace tcplp;
using namespace tcplp::scenario;

namespace {

/// The registered relay_failover scenario, restated inline (the test binary
/// links no bench drivers): office tree, self-healing on, sensor 15's
/// first-hop relay 10 dies permanently at t=4s.
ScenarioSpec relayFailoverSpec() {
    ScenarioSpec s;
    s.topology.kind = TopologyKind::kOffice;
    s.topology.selfHealing = true;
    s.workload.totalBytes = 25000;
    s.workload.timeLimit = 10 * sim::kMinute;
    s.fault.chaos = true;
    s.fault.enabled = true;
    s.fault.plan.fixed = {{sim::FaultKind::kNodeFailure, 4 * sim::kSecond, 0, 10, 0}};
    return s;
}

/// The registered partition_heal scenario, restated inline: every link at
/// sensor 15 dark for 60s, R2 lowered so TCP gives up inside the outage.
ScenarioSpec partitionHealSpec() {
    ScenarioSpec s;
    s.topology.kind = TopologyKind::kOffice;
    s.topology.selfHealing = true;
    s.workload.totalBytes = 25000;
    s.workload.timeLimit = 10 * sim::kMinute;
    s.fault.chaos = true;
    s.fault.enabled = true;
    s.fault.maxRetransmits = 3;
    s.fault.plan.fixed = {
        {sim::FaultKind::kLinkBlackout, 5 * sim::kSecond, 60 * sim::kSecond, 15, 15}};
    return s;
}

}  // namespace

TEST(Failover, RelayDeathFailsOverAndCompletesWithoutGiveUps) {
    for (std::uint64_t seed : {1ull, 2ull}) {
        const MetricRow r = runScenario(relayFailoverSpec(), seed);
        EXPECT_EQ(r.number("complete"), 1.0) << "seed " << seed;
        EXPECT_EQ(r.number("content_ok"), 1.0) << "seed " << seed;
        EXPECT_GE(r.number("reroutes"), 1.0) << "seed " << seed;
        EXPECT_EQ(r.number("give_ups"), 0.0) << "seed " << seed;
        EXPECT_EQ(r.number("reconnects"), 0.0);
    }
}

TEST(Failover, PartitionPastR2ReconnectsAndFailsBack) {
    for (std::uint64_t seed : {1ull, 2ull}) {
        const MetricRow r = runScenario(partitionHealSpec(), seed);
        EXPECT_EQ(r.number("complete"), 1.0) << "seed " << seed;
        EXPECT_EQ(r.number("content_ok"), 1.0) << "seed " << seed;
        EXPECT_GE(r.number("give_ups"), 1.0) << "seed " << seed;
        EXPECT_GE(r.number("reconnects"), 1.0) << "seed " << seed;
        EXPECT_GE(r.number("reroutes"), 1.0) << "seed " << seed;
        EXPECT_GE(r.number("failbacks"), 1.0) << "seed " << seed;
    }
}

TEST(Failover, NodeFailureExpansionIsDeterministicWithZeroDuration) {
    sim::FaultPlan plan;
    sim::RandomFaultBurst burst;
    burst.kind = sim::FaultKind::kNodeFailure;
    burst.count = 3;
    burst.windowStart = 1 * sim::kSecond;
    burst.windowEnd = 30 * sim::kSecond;
    burst.durationMin = 2 * sim::kSecond;  // drawn, then normalized away
    burst.durationMax = 8 * sim::kSecond;
    burst.candidates = {4, 6, 8};
    plan.random = {burst};

    const auto a = sim::expandFaultPlan(plan, 42);
    const auto b = sim::expandFaultPlan(plan, 42);
    ASSERT_EQ(a.size(), 3u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].at, b[i].at);
        EXPECT_EQ(a[i].target, b[i].target);
        // Permanent: no outage window ever ends.
        EXPECT_EQ(a[i].duration, 0);
    }

    // The duration draw is still consumed, keeping the per-event draw
    // count uniform across kinds: a trailing burst expands identically
    // whether the leading one is failures or reboots.
    sim::RandomFaultBurst tail = burst;
    tail.kind = sim::FaultKind::kLinkBlackout;
    tail.candidates = {2};
    sim::FaultPlan failuresThenTail = plan;
    failuresThenTail.random.push_back(tail);
    sim::FaultPlan rebootsThenTail = plan;
    rebootsThenTail.random[0].kind = sim::FaultKind::kNodeReboot;
    rebootsThenTail.random.push_back(tail);
    const auto c = sim::expandFaultPlan(failuresThenTail, 42);
    const auto d = sim::expandFaultPlan(rebootsThenTail, 42);
    auto tailOf = [](const std::vector<sim::FaultEvent>& evs) {
        for (const sim::FaultEvent& e : evs)
            if (e.kind == sim::FaultKind::kLinkBlackout) return e;
        return sim::FaultEvent{};
    };
    EXPECT_EQ(tailOf(c).at, tailOf(d).at);
    EXPECT_EQ(tailOf(c).duration, tailOf(d).duration);
}

TEST(Failover, RebootInsideBlackoutMergesToSerialBytes) {
    // Overlapping faults on the same node: relay 10 reboots in the middle
    // of its own 20s blackout window. The timeline union must not double
    // count, and a sharded sweep must merge to the serial bytes.
    ScenarioDef def;
    def.name = "failover_overlap";
    def.base.topology.kind = TopologyKind::kLine;
    def.base.topology.hops = 2;
    def.base.topology.selfHealing = true;
    def.base.workload.totalBytes = 12000;
    def.base.workload.timeLimit = 5 * sim::kMinute;
    def.base.fault.chaos = true;
    def.base.fault.plan.fixed = {
        {sim::FaultKind::kLinkBlackout, 5 * sim::kSecond, 20 * sim::kSecond, 10, 10},
        {sim::FaultKind::kNodeReboot, 10 * sim::kSecond, 4 * sim::kSecond, 10, 0},
    };
    def.axes = {{"fault", {0, 1}}};
    def.seeds = {1, 2};
    def.bind = [](ScenarioSpec& s, const Point& p) {
        s.fault.enabled = faultFromAxis(p.value("fault"));
    };

    CampaignOptions serial;
    serial.jobs = 1;
    CampaignOptions sharded;
    sharded.jobs = 4;
    const CampaignResult serialRun = runCampaign({def}, serial);
    const CampaignResult shardedRun = runCampaign({def}, sharded);
    ASSERT_TRUE(serialRun.ok) << serialRun.error;
    ASSERT_TRUE(shardedRun.ok) << shardedRun.error;
    const ScenarioResult& a = serialRun.scenarios[0];
    EXPECT_EQ(a.jsonLines(), shardedRun.scenarios[0].jsonLines());
    // The union counts the overlap once: 20s window, reboot inside it.
    EXPECT_DOUBLE_EQ(a.mean("outage_s", {{"fault", 1.0}}), 20.0);
    for (const RunRecord& r : a.records)
        EXPECT_EQ(r.row.number("content_ok"), 1.0);
}

TEST(Failover, FailedSocketRejectsSendAndConnectCleanly) {
    // Drive a connection into kFailed over a dead pipe, then poke every
    // application entry point: none may assert, none may resurrect it.
    tcp::TcpConfig cfg;
    cfg.maxRetransmits = 2;
    sim::Simulator simulator(7);
    harness::Pipe pipe(simulator, {});
    tcp::TcpStack clientStack(pipe.a());
    tcp::TcpStack serverStack(pipe.b());
    serverStack.listen(80, {}, [](tcp::TcpSocket& s) {
        s.setOnPeerFin([&s] { s.close(); });
    });
    tcp::TcpSocket& client = clientStack.createSocket(cfg);
    client.connect(pipe.b().address(), 80);
    simulator.runUntil(2 * sim::kSecond);
    ASSERT_EQ(client.state(), tcp::State::kEstablished);

    pipe.config().lossAtoB = 1.0;
    EXPECT_GT(client.send(toBytes("doomed")), 0u);
    simulator.runUntil(10 * sim::kMinute);
    ASSERT_EQ(client.state(), tcp::State::kFailed);
    EXPECT_EQ(client.stats().rexmitGiveUps, 1u);

    // Terminal state: the API stays safe and inert.
    EXPECT_EQ(client.send(toBytes("more")), 0u);
    EXPECT_EQ(client.sendZeroCopy(std::make_shared<const Bytes>(toBytes("z"))), 0u);
    client.connect(pipe.b().address(), 80);  // rejected, not asserted
    EXPECT_EQ(client.state(), tcp::State::kFailed);

    pipe.config().lossAtoB = 0.0;
    simulator.runUntil(simulator.now() + 5 * sim::kMinute);
    EXPECT_EQ(client.state(), tcp::State::kFailed);
    EXPECT_EQ(client.stats().rexmitGiveUps, 1u);  // monotone, counted once
}
