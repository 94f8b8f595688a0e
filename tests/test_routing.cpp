// Self-healing mesh routing: link-liveness tracking, ranked alternate
// next hops, and the failover/failback machinery.
//
// The load-bearing guarantees pinned here:
//
//  1. Liveness learning: K consecutive exhausted-retry failures mark a
//     neighbor unreachable, any later success revives it, and unknown
//     neighbors (or a disabled table) are always live.
//
//  2. Ranked routing: lookups return the best-ranked live candidate,
//     sliding down on failure (reroute), back up on revival (failback),
//     and counting a blackhole drop when a route exists but every
//     candidate is dead. Without a liveness source the manager behaves
//     exactly like the static map it replaced.
//
//  3. Alternate install: installTreeRoutes with selfHealing computes the
//     loop-free alternates the Fig. 3 office geometry implies — sensor
//     15 can reach the border over either 10 or 11, and its ancestors
//     hold the mirror-image downlink alternates.
//
//  4. Frame-burn fix: traffic toward a known-dead next hop is dropped at
//     the routing layer instead of burning full CSMA retry ladders on
//     the air — pinned as a large frame-count gap on a dead line relay.
//
//  5. Zero-cost when clean: a fault-free bulk run with selfHealing on is
//     byte-identical (RNG digest and goodput) to the same run with it
//     off — the liveness machinery draws nothing and schedules nothing
//     until a failure actually happens.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "tcplp/harness/testbed.hpp"
#include "tcplp/mesh/neighbor_table.hpp"
#include "tcplp/mesh/route_manager.hpp"
#include "tcplp/scenario/chaos.hpp"
#include "tcplp/scenario/workloads.hpp"
#include "tcplp/sim/simulator.hpp"

using namespace tcplp;
using namespace tcplp::scenario;

namespace {

mesh::NeighborConfig enabledConfig() {
    mesh::NeighborConfig cfg;
    cfg.enabled = true;
    cfg.failureThreshold = 2;
    cfg.probeInterval = 0;  // unit tests drive outcomes by hand
    return cfg;
}

}  // namespace

// --- NeighborTable ----------------------------------------------------------

TEST(Routing, NeighborUnknownOrDisabledIsLive) {
    sim::Simulator simulator;
    mesh::NeighborTable enabled(simulator, enabledConfig());
    EXPECT_TRUE(enabled.isLive(7));  // never heard of it

    mesh::NeighborTable disabled(simulator, mesh::NeighborConfig{});
    disabled.onTxOutcome(7, false);
    disabled.onTxOutcome(7, false);
    disabled.onTxOutcome(7, false);
    EXPECT_TRUE(disabled.isLive(7));  // master switch off: always live
    EXPECT_EQ(disabled.stats().deadMarks, 0u);
}

TEST(Routing, ConsecutiveFailuresKillAndSuccessRevives) {
    sim::Simulator simulator;
    mesh::NeighborTable table(simulator, enabledConfig());

    table.onTxOutcome(7, false);
    EXPECT_TRUE(table.isLive(7));  // one short of K=2
    table.onTxOutcome(7, false);
    EXPECT_FALSE(table.isLive(7));
    EXPECT_EQ(table.stats().deadMarks, 1u);

    table.onTxOutcome(7, true);
    EXPECT_TRUE(table.isLive(7));
    EXPECT_EQ(table.stats().revivals, 1u);

    // An interleaved success resets the consecutive count: fail, succeed,
    // fail never reaches K.
    table.onTxOutcome(9, false);
    table.onTxOutcome(9, true);
    table.onTxOutcome(9, false);
    EXPECT_TRUE(table.isLive(9));
    EXPECT_EQ(table.stats().deadMarks, 1u);
}

TEST(Routing, ResetForgetsLearnedVerdicts) {
    sim::Simulator simulator;
    mesh::NeighborTable table(simulator, enabledConfig());
    table.onTxOutcome(7, false);
    table.onTxOutcome(7, false);
    ASSERT_FALSE(table.isLive(7));
    table.reset();  // reboot: liveness is volatile state
    EXPECT_TRUE(table.isLive(7));
}

// --- RouteManager -----------------------------------------------------------

TEST(Routing, NullLivenessBehavesLikeTheStaticMap) {
    mesh::RouteManager routes;
    phy::NodeId hop = 0;
    EXPECT_EQ(routes.lookup(15, hop), mesh::RouteLookupStatus::kNoRoute);

    routes.setRoute(15, 10);
    routes.addAlternate(15, 11);
    EXPECT_EQ(routes.lookup(15, hop), mesh::RouteLookupStatus::kOk);
    EXPECT_EQ(hop, 10);  // rank 0, always, no liveness source

    routes.setDefaultRoute(2);
    EXPECT_EQ(routes.lookup(99, hop), mesh::RouteLookupStatus::kOk);
    EXPECT_EQ(hop, 2);  // unknown destination falls to the default

    // setRoute overwrite clears alternates (the map's replace semantics).
    routes.setRoute(15, 12);
    EXPECT_EQ(routes.candidates(15), (std::vector<phy::NodeId>{12}));
}

TEST(Routing, FailoverFailbackAndBlackholeCounting) {
    mesh::RouteManager routes;
    std::vector<phy::NodeId> dead;
    routes.setLiveness([&](phy::NodeId n) {
        return std::find(dead.begin(), dead.end(), n) == dead.end();
    });
    routes.setRoute(15, 10);
    routes.addAlternate(15, 11);
    routes.addAlternate(15, 11);  // deduplicated
    EXPECT_EQ(routes.candidates(15), (std::vector<phy::NodeId>{10, 11}));

    phy::NodeId hop = 0;
    EXPECT_EQ(routes.lookup(15, hop), mesh::RouteLookupStatus::kOk);
    EXPECT_EQ(hop, 10);
    EXPECT_EQ(routes.reroutes(), 0u);

    dead = {10};  // primary dies -> slide down (one reroute, sticky)
    EXPECT_EQ(routes.lookup(15, hop), mesh::RouteLookupStatus::kOk);
    EXPECT_EQ(hop, 11);
    EXPECT_EQ(routes.lookup(15, hop), mesh::RouteLookupStatus::kOk);
    EXPECT_EQ(routes.reroutes(), 1u);
    EXPECT_EQ(routes.failbacks(), 0u);

    dead = {10, 11};  // everything dead -> blackhole, not kNoRoute
    EXPECT_EQ(routes.lookup(15, hop), mesh::RouteLookupStatus::kDead);
    EXPECT_EQ(routes.blackholeDrops(), 1u);

    dead = {};  // primary revives -> slide back up (one failback)
    EXPECT_EQ(routes.lookup(15, hop), mesh::RouteLookupStatus::kOk);
    EXPECT_EQ(hop, 10);
    EXPECT_EQ(routes.failbacks(), 1u);

    // resetSelections (reboot) snaps to rank 0 without counting.
    dead = {10};
    (void)routes.lookup(15, hop);  // reroute #2
    routes.resetSelections();
    dead = {};
    const std::uint64_t failbacksBefore = routes.failbacks();
    EXPECT_EQ(routes.lookup(15, hop), mesh::RouteLookupStatus::kOk);
    EXPECT_EQ(routes.failbacks(), failbacksBefore);
}

TEST(Routing, DefaultAlternateNeedsAPrimary) {
    mesh::RouteManager routes;
    routes.addDefaultAlternate(11);  // would self-promote to rank 0: no-op
    EXPECT_FALSE(routes.hasDefaultRoute());
    routes.setDefaultRoute(10);
    routes.addDefaultAlternate(11);
    EXPECT_EQ(routes.defaultCandidates(), (std::vector<phy::NodeId>{10, 11}));
}

// --- Alternate install on the office tree -----------------------------------

TEST(Routing, OfficeTreeInstallsLoopFreeAlternates) {
    TopologySpec t;
    t.kind = TopologyKind::kOffice;
    t.selfHealing = true;
    auto tb = buildTestbed(t, /*seed=*/1);

    // Sensor 15 reaches the tree over either of the in-range siblings 10
    // (its BFS parent) and 11 — both one hop from it, both one hop closer
    // to the border router.
    const mesh::Node* sensor = tb->findNode(15);
    ASSERT_NE(sensor, nullptr);
    EXPECT_EQ(sensor->routeTable().defaultCandidates(),
              (std::vector<phy::NodeId>{10, 11}));

    // Ancestor 8 holds the mirror-image downlink alternates toward 15.
    const mesh::Node* ancestor = tb->findNode(8);
    ASSERT_NE(ancestor, nullptr);
    EXPECT_EQ(ancestor->routeTable().candidates(15),
              (std::vector<phy::NodeId>{10, 11}));

    // The alternate parent really can deliver: 11 is adjacent to 15.
    const mesh::Node* alt = tb->findNode(11);
    ASSERT_NE(alt, nullptr);
    EXPECT_EQ(alt->routeTable().candidates(15), (std::vector<phy::NodeId>{15}));

    // Liveness is armed on every router when selfHealing is on.
    ASSERT_NE(sensor->neighborTable(), nullptr);
    EXPECT_TRUE(sensor->neighborTable()->config().enabled);
}

TEST(Routing, LegacyOfficeTreeInstallsNoAlternates) {
    TopologySpec t;
    t.kind = TopologyKind::kOffice;
    auto tb = buildTestbed(t, /*seed=*/1);
    const mesh::Node* sensor = tb->findNode(15);
    ASSERT_NE(sensor, nullptr);
    EXPECT_EQ(sensor->routeTable().defaultCandidates(),
              (std::vector<phy::NodeId>{10}));
    const mesh::Node* node = tb->findNode(8);
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->routeTable().candidates(15), (std::vector<phy::NodeId>{10}));
}

// --- Frame-burn fix ---------------------------------------------------------

TEST(Routing, DeadNextHopDropsAtRoutingInsteadOfBurningRetries) {
    // A line has no alternates, so a permanently dead relay blackholes the
    // flow either way — the difference is where the frames die. With
    // liveness on, the sensor learns the relay is gone after K=2 exhausted
    // ladders and drops at the routing layer; with it off, every TCP
    // retransmission and reconnect SYN burns a full CSMA ladder on the
    // air. The long ladder and the early death make the burn dominate the
    // frame count, pinning a >2x gap.
    ScenarioSpec spec;
    spec.topology.kind = TopologyKind::kLine;
    spec.topology.hops = 2;
    spec.topology.maxFrameRetries = 15;
    spec.workload.totalBytes = 50000;  // cannot finish: the path is dead
    spec.workload.timeLimit = 90 * sim::kSecond;
    spec.fault.chaos = true;
    spec.fault.enabled = true;
    spec.fault.plan.fixed = {
        {sim::FaultKind::kNodeFailure, sim::kSecond / 2, 0, /*relay*/ 10, 0},
    };
    spec.fault.maxRetransmits = 2;  // give up fast, retry via reconnects
    spec.fault.watchdogStall = 0;   // the stall is the point

    ScenarioSpec healing = spec;
    healing.topology.selfHealing = true;
    // Probing off isolates the burn comparison: with the 2s cadence the
    // probes themselves (each burning a ladder toward the corpse) would
    // dominate the frame count over the 90s run.
    healing.topology.probeInterval = 0;

    const FlowRunResult burned = runFlows(spec, /*seed=*/1);
    const FlowRunResult repaired = runFlows(healing, /*seed=*/1);

    EXPECT_LT(burned.flows[0].bytes, spec.workload.totalBytes);
    EXPECT_LT(repaired.flows[0].bytes, healing.workload.totalBytes);
    EXPECT_GT(repaired.mesh.blackholeDrops, 0u);
    EXPECT_EQ(burned.mesh.blackholeDrops, 0u);
    // Pinned gap: the healing run must spend well under half the frames.
    EXPECT_LT(repaired.framesTransmitted * 2, burned.framesTransmitted);
}

// --- Zero cost when nothing fails -------------------------------------------

TEST(Routing, FaultFreeRunIsByteIdenticalWithSelfHealingOn) {
    ScenarioSpec off;
    off.topology.kind = TopologyKind::kOffice;
    off.workload.totalBytes = 15000;
    off.workload.timeLimit = 5 * sim::kMinute;

    ScenarioSpec on = off;
    on.topology.selfHealing = true;

    for (std::uint64_t seed : {1ull, 2ull}) {
        const FlowRunResult a = runFlows(off, seed);
        const FlowRunResult b = runFlows(on, seed);
        EXPECT_EQ(a.rngDigest, b.rngDigest) << "seed " << seed;
        EXPECT_EQ(a.flows[0].goodputKbps, b.flows[0].goodputKbps) << "seed " << seed;
        EXPECT_EQ(a.framesTransmitted, b.framesTransmitted) << "seed " << seed;
        EXPECT_TRUE(b.flows[0].contentOk);
        EXPECT_EQ(b.mesh.reroutes, 0u);
        EXPECT_EQ(b.mesh.blackholeDrops, 0u);
    }
}
