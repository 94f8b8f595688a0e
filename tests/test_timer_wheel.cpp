// Scheduler backend A/B equivalence at the scenario level.
//
// The heap- and wheel-backed simulators must be indistinguishable up to
// wall-clock time: the same scenario run on both backends consumes the
// identical RNG draw sequence (Rng::stateDigest) and delivers the identical
// frame stream (the channel's delivery tap, hashed in order). This is the
// scenario-scale counterpart to the storm-log identity in test_sim.cpp, on
// the two workloads the timer wheel was built for: the office 15-node tree
// and the 200-node dense grid, both timer-dominated (RTO, delayed-ACK,
// CSMA backoff and per-hop forwarding timers clustering at few deadlines).
#include <gtest/gtest.h>

#include <cstdint>

#include "tcplp/scenario/workloads.hpp"

using namespace tcplp;
using scenario::ScenarioSpec;
using scenario::TopologyKind;
using scenario::WorkloadKind;

namespace {

/// Order-sensitive FNV-1a over the delivery stream plus the final RNG
/// digest: equal fingerprints mean the two runs made the same deliveries at
/// the same times with the same fading outcomes, in the same order.
struct Fingerprint {
    std::uint64_t rngDigest = 0;
    std::uint64_t deliveryHash = 1469598103934665603ull;
    std::uint64_t deliveries = 0;
    double aggregateKbps = 0.0;
    std::uint64_t framesTransmitted = 0;

    void mix(std::uint64_t v) {
        deliveryHash ^= v;
        deliveryHash *= 1099511628211ull;
    }

    /// The one hashing recipe every equivalence test installs.
    phy::Channel::DeliveryTap tap() {
        return [this](sim::Time now, phy::NodeId src, phy::NodeId dst,
                      std::size_t bytes, bool faded) {
            mix(std::uint64_t(now));
            mix((std::uint64_t(src) << 32) | std::uint64_t(dst));
            mix((std::uint64_t(bytes) << 1) | std::uint64_t(faded));
            ++deliveries;
        };
    }

    bool operator==(const Fingerprint&) const = default;
};

Fingerprint runMultiFlowWith(sim::SchedulerKind kind, ScenarioSpec spec,
                             std::uint64_t seed) {
    Fingerprint fp;
    spec.topology.scheduler = kind;
    spec.workload.deliveryTap = fp.tap();
    const scenario::MultiFlowResult r = scenario::runMultiFlow(spec, seed);
    fp.rngDigest = r.rngDigest;
    fp.aggregateKbps = r.aggregateKbps;
    fp.framesTransmitted = r.framesTransmitted;
    return fp;
}

/// The office_multiflow scenario (mixed up/downlink on the Fig. 3 tree),
/// shortened so both backends run in test time.
ScenarioSpec officeSpec() { return scenario::officeMultiflowSpec(40 * sim::kSecond); }

/// The grid200_dense scenario (200 radios, six saturating mixed-direction
/// flows over the spatial channel index), shortened for test time.
ScenarioSpec grid200Spec() { return scenario::grid200DenseSpec(10 * sim::kSecond); }

}  // namespace

TEST(TimerWheelEquivalence, OfficeMultiflowIdenticalAcrossBackends) {
    const Fingerprint heap =
        runMultiFlowWith(sim::SchedulerKind::kBinaryHeap, officeSpec(), 1);
    const Fingerprint wheel =
        runMultiFlowWith(sim::SchedulerKind::kTimerWheel, officeSpec(), 1);
    ASSERT_GT(heap.deliveries, 0u);
    ASSERT_GT(heap.aggregateKbps, 0.0);
    EXPECT_EQ(heap, wheel);
}

TEST(TimerWheelEquivalence, Grid200DenseIdenticalAcrossBackends) {
    const Fingerprint heap =
        runMultiFlowWith(sim::SchedulerKind::kBinaryHeap, grid200Spec(), 42);
    const Fingerprint wheel =
        runMultiFlowWith(sim::SchedulerKind::kTimerWheel, grid200Spec(), 42);
    ASSERT_GT(heap.deliveries, 0u);
    ASSERT_GT(heap.aggregateKbps, 0.0);
    EXPECT_EQ(heap, wheel);
}

TEST(TimerWheelEquivalence, AnemometerIdenticalAcrossBackends) {
    // The §9 application study runs through its own harness
    // (runAnemometer), which threads the scheduler knob and delivery tap
    // separately from buildTestbed — pin that path too. Durations cut down
    // from the paper's 30 min so both backends fit in test time.
    ScenarioSpec s;
    s.workload.kind = WorkloadKind::kAnemometer;
    s.workload.anemometer.duration = 2 * sim::kMinute;
    s.workload.anemometer.warmup = 30 * sim::kSecond;
    s.workload.anemometer.drain = 30 * sim::kSecond;

    auto runOne = [&](sim::SchedulerKind kind) {
        Fingerprint fp;
        ScenarioSpec spec = s;
        spec.topology.scheduler = kind;
        spec.workload.deliveryTap = fp.tap();
        const harness::AnemometerResult r = scenario::runAnemometerSpec(spec, 3);
        fp.rngDigest = r.rngDigest;
        fp.aggregateKbps = r.reliability;
        fp.framesTransmitted = r.delivered;
        EXPECT_GT(r.delivered, 0u);
        return fp;
    };
    const Fingerprint heap = runOne(sim::SchedulerKind::kBinaryHeap);
    const Fingerprint wheel = runOne(sim::SchedulerKind::kTimerWheel);
    ASSERT_GT(heap.deliveries, 0u);
    EXPECT_EQ(heap, wheel);
}

TEST(TimerWheelEquivalence, BulkOverLossyLineIdenticalAcrossBackends) {
    // A third angle: the lossy 3-hop line drives heavy RTO/backoff activity
    // (the timer paths the wheel reorganizes most), with per-frame fading
    // consuming RNG draws whose order any scheduling difference would skew.
    ScenarioSpec s;
    s.topology.kind = TopologyKind::kLine;
    s.topology.hops = 3;
    s.topology.linkLoss = 0.1;
    s.workload.kind = WorkloadKind::kBulk;
    s.workload.totalBytes = 30000;
    s.workload.timeLimit = 5 * sim::kMinute;

    auto runOne = [&](sim::SchedulerKind kind) {
        Fingerprint fp;
        ScenarioSpec spec = s;
        spec.topology.scheduler = kind;
        spec.workload.deliveryTap = fp.tap();
        const scenario::FlowRunResult r = scenario::runFlows(spec, 7);
        fp.rngDigest = r.rngDigest;
        fp.aggregateKbps = r.flows[0].goodputKbps;
        fp.framesTransmitted = r.framesTransmitted;
        EXPECT_TRUE(r.flows[0].contentOk);
        return fp;
    };
    const Fingerprint heap = runOne(sim::SchedulerKind::kBinaryHeap);
    const Fingerprint wheel = runOne(sim::SchedulerKind::kTimerWheel);
    ASSERT_GT(heap.deliveries, 0u);
    EXPECT_EQ(heap, wheel);
}
