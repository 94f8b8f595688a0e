// Every WorkloadSpec / TopologySpec / FaultSpec knob either reaches the
// runner a spec selects or is rejected by validate() — never silently
// dropped.
//
//  * Reach: for knobs a runner used to ignore (two-flow and multi-flow
//    ablations, high-BDP knobs under chaos, pipe cc/ablations, sleepy
//    topology knobs, ...), flipping the knob changes the run's rng_digest
//    (or, for the embedded baseline's server, its goodput).
//  * Reject: for knob/runner pairs nothing reads — including the chaos
//    preconditions that used to abort the process — validate() throws a
//    std::invalid_argument naming the knob and the runner, and runScenario,
//    Registry::add and invalidPoints surface it.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "tcplp/scenario/campaign.hpp"
#include "tcplp/scenario/workloads.hpp"

using namespace tcplp;
using namespace tcplp::scenario;

namespace {

std::uint64_t digest(const ScenarioSpec& spec) {
    validate(spec);
    return runScenario(spec, 1).find("rng_digest")->asUint();
}

/// "" when validate accepts the spec, else its error message.
std::string rejection(const ScenarioSpec& spec) {
    try {
        validate(spec);
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

ScenarioSpec shortOffice() { return officeMultiflowSpec(15 * sim::kSecond); }

ScenarioSpec lossyPipe() {
    ScenarioSpec s;
    s.topology.kind = TopologyKind::kPipe;
    s.topology.pipeLossForward = 0.05;
    s.workload.mssFrames = 0;
    s.workload.totalBytes = 40000;
    s.workload.timeLimit = 5 * sim::kMinute;
    return s;
}

ScenarioSpec cleanChaos() {
    ScenarioSpec s;
    s.topology.kind = TopologyKind::kLine;
    s.topology.hops = 2;
    s.workload.totalBytes = 20000;
    s.workload.timeLimit = 5 * sim::kMinute;
    s.fault.chaos = true;
    return s;
}

ScenarioSpec twoFlow() {
    ScenarioSpec s;
    s.topology.hops = 2;
    s.topology.retryDelayMax = sim::fromMillis(40);
    s.topology.queueCapacityPackets = 7;
    s.workload.kind = WorkloadKind::kTwoFlow;
    s.workload.totalBytes = 10'000'000;
    s.workload.timeLimit = 20 * sim::kSecond;
    return s;
}

ScenarioSpec sleepy() {
    ScenarioSpec s;
    s.topology.kind = TopologyKind::kSleepyLeaf;
    s.workload.kind = WorkloadKind::kSleepyBulk;
    s.workload.sleepy.policy = mac::PollPolicy::kFixed;
    s.workload.sleepy.sleepInterval = 100 * sim::kMillisecond;
    s.workload.totalBytes = 8000;
    s.workload.timeLimit = 5 * sim::kMinute;
    return s;
}

ScenarioSpec embedded() {
    ScenarioSpec s;
    s.workload.kind = WorkloadKind::kEmbeddedBulk;
    s.workload.mssFrames = 0;
    s.workload.totalBytes = 3000;
    s.workload.timeLimit = 5 * sim::kMinute;
    return s;
}

ScenarioSpec anemometer() {
    ScenarioSpec s;
    s.workload.kind = WorkloadKind::kAnemometer;
    return s;
}

}  // namespace

// --- Reach: every knob changes what the runner does ------------------------

TEST(ScenarioKnobs, MultiFlowHonoursTcpAblationsAndHighBdp) {
    const std::uint64_t base = digest(shortOffice());
    ScenarioSpec off = shortOffice();
    off.workload.sack = false;
    EXPECT_NE(digest(off), base);
    ScenarioSpec bdp = shortOffice();
    bdp.workload.windowScaling = true;
    bdp.workload.bdpBufferBytes = 8 * 1024;
    EXPECT_NE(digest(bdp), base);
}

TEST(ScenarioKnobs, PipeHonoursCcAblationsAndWindow) {
    const std::uint64_t base = digest(lossyPipe());
    ScenarioSpec cerl = lossyPipe();
    cerl.workload.cc = tcp::CcKind::kCerl;
    EXPECT_NE(digest(cerl), base);
    ScenarioSpec noSack = lossyPipe();
    noSack.workload.sack = false;
    EXPECT_NE(digest(noSack), base);
    ScenarioSpec window = lossyPipe();
    window.workload.windowSegments = 2;
    EXPECT_NE(digest(window), base);
}

TEST(ScenarioKnobs, ChaosHonoursHighBdpKnobs) {
    ScenarioSpec bdp = cleanChaos();
    bdp.workload.windowScaling = true;
    bdp.workload.bdpBufferBytes = 16 * 1024;
    EXPECT_NE(digest(bdp), digest(cleanChaos()));
}

TEST(ScenarioKnobs, TwoFlowHonoursAblationsHighBdpAndDirection) {
    const std::uint64_t base = digest(twoFlow());
    ScenarioSpec noDelack = twoFlow();
    noDelack.workload.delayedAck = false;
    EXPECT_NE(digest(noDelack), base);
    ScenarioSpec bdp = twoFlow();
    bdp.workload.bdpBufferBytes = 8 * 1024;
    EXPECT_NE(digest(bdp), base);
    ScenarioSpec down = twoFlow();
    down.workload.uplink = false;
    EXPECT_NE(digest(down), base);
}

TEST(ScenarioKnobs, SleepyBulkHonoursAblationsAndTopologyKnobs) {
    const std::uint64_t base = digest(sleepy());
    ScenarioSpec noDelack = sleepy();
    noDelack.workload.delayedAck = false;
    EXPECT_NE(digest(noDelack), base);
    ScenarioSpec lossy = sleepy();
    lossy.topology.linkLoss = 0.1;
    EXPECT_NE(digest(lossy), base);
}

TEST(ScenarioKnobs, EmbeddedServerHonoursAblations) {
    // The stop-and-wait client draws the same randomness either way; the
    // server's immediate ACKs show up in the goodput instead.
    ScenarioSpec noDelack = embedded();
    noDelack.workload.delayedAck = false;
    EXPECT_GT(runScenario(noDelack, 1).number("goodput_kbps"),
              2.0 * runScenario(embedded(), 1).number("goodput_kbps"));
}

TEST(ScenarioKnobs, PairHonoursDirection) {
    // The pair is symmetric, so both directions draw the same randomness;
    // the delivery log shows which mote carries the data.
    for (const bool uplink : {true, false}) {
        auto bytesFrom = std::make_shared<std::map<phy::NodeId, std::size_t>>();
        ScenarioSpec s;
        s.topology.kind = TopologyKind::kPair;
        s.workload.uplink = uplink;
        s.workload.totalBytes = 20000;
        s.workload.deliveryTap = [bytesFrom](sim::Time, phy::NodeId src, phy::NodeId,
                                             std::size_t bytes, bool) {
            (*bytesFrom)[src] += bytes;
        };
        runScenario(s, 1);
        EXPECT_EQ((*bytesFrom)[10] > (*bytesFrom)[11], uplink);
    }
}

TEST(ScenarioKnobs, RecvWindowSizesEveryMoteReceiver) {
    ScenarioSpec down;
    down.workload.uplink = false;
    down.workload.totalBytes = 20000;
    ScenarioSpec wider = down;
    wider.workload.recvWindowSegments = 2;
    EXPECT_NE(digest(wider), digest(down));
}

TEST(ScenarioKnobs, EndpointConfigAppliesEveryTcpKnob) {
    WorkloadSpec w;
    w.mssFrames = 0;
    w.mssBytes = 300;
    w.windowSegments = 3;
    w.recvWindowSegments = 5;
    w.sack = false;
    w.delayedAck = false;
    w.timestamps = false;
    w.dropOutOfOrder = true;
    w.ecn = true;
    w.cc = tcp::CcKind::kWestwood;
    w.windowScaling = true;
    w.bdpBufferBytes = 9000;
    w.recvAutotuneBudgetBytes = 20000;
    const tcp::TcpConfig sender = endpointConfig(w, {300, true, true});
    EXPECT_EQ(sender.mss, 300);
    EXPECT_EQ(sender.sendBufferBytes, 9000u);
    EXPECT_EQ(sender.recvBufferBytes, 900u);
    EXPECT_FALSE(sender.sack || sender.delayedAck || sender.timestamps);
    EXPECT_TRUE(sender.dropOutOfOrder && sender.ecn && sender.windowScaling);
    EXPECT_EQ(sender.cc, tcp::CcKind::kWestwood);
    const tcp::TcpConfig receiver = endpointConfig(w, {300, true, false, 12000});
    EXPECT_EQ(receiver.recvBufferBytes, 1500u);  // recvWindowSegments x MSS
    EXPECT_EQ(receiver.recvBufferMaxBytes, 12000u);  // clamped by the node budget
    const tcp::TcpConfig server = endpointConfig(w, {300, false, false});
    EXPECT_EQ(server.recvBufferBytes, 16384u);
    EXPECT_EQ(server.recvBufferMaxBytes, 20000u);
}

// --- Reject: knobs nothing reads -------------------------------------------

TEST(ScenarioKnobs, ShippedPresetsAndDefaultsValidate) {
    EXPECT_EQ(rejection(ScenarioSpec{}), "");
    EXPECT_EQ(rejection(officeMultiflowSpec()), "");
    EXPECT_EQ(rejection(grid200DenseSpec()), "");
    EXPECT_EQ(rejection(cityScaleSpec()), "");
    EXPECT_EQ(rejection(lossyPipe()), "");
    EXPECT_EQ(rejection(cleanChaos()), "");
    EXPECT_EQ(rejection(twoFlow()), "");
    EXPECT_EQ(rejection(sleepy()), "");
    EXPECT_EQ(rejection(embedded()), "");
    EXPECT_EQ(rejection(anemometer()), "");
}

TEST(ScenarioKnobs, ErrorNamesTheKnobAndTheRunner) {
    ScenarioSpec s = anemometer();
    s.workload.sack = false;
    const std::string error = rejection(s);
    EXPECT_NE(error.find("workload.sack"), std::string::npos) << error;
    EXPECT_NE(error.find("runAnemometerSpec"), std::string::npos) << error;
}

TEST(ScenarioKnobs, PipeRejectsRadioKnobsTapAndFrameCount) {
    ScenarioSpec lossy = lossyPipe();
    lossy.topology.linkLoss = 0.1;
    EXPECT_NE(rejection(lossy).find("topology.linkLoss"), std::string::npos);
    ScenarioSpec tapped = lossyPipe();
    tapped.workload.deliveryTap = [](sim::Time, phy::NodeId, phy::NodeId, std::size_t,
                                     bool) {};
    EXPECT_NE(rejection(tapped).find("workload.deliveryTap"), std::string::npos);
    ScenarioSpec frames = lossyPipe();
    frames.workload.mssFrames = 5;  // the WorkloadSpec default
    EXPECT_NE(rejection(frames).find("workload.mssFrames"), std::string::npos);
    ScenarioSpec multi = lossyPipe();
    multi.workload.kind = WorkloadKind::kMultiFlow;
    EXPECT_NE(rejection(multi).find("runPipeBulk"), std::string::npos);
}

TEST(ScenarioKnobs, EmbeddedRejectsFrameCountAndWindow) {
    ScenarioSpec frames = embedded();
    frames.workload.mssFrames = 5;
    EXPECT_NE(rejection(frames).find("runEmbeddedBulk"), std::string::npos);
    ScenarioSpec window = embedded();
    window.workload.windowSegments = 8;
    EXPECT_NE(rejection(window).find("workload.windowSegments"), std::string::npos);
}

TEST(ScenarioKnobs, AnemometerRejectsTcpAblationsAndOverriddenOptions) {
    for (bool WorkloadSpec::*knob : {&WorkloadSpec::sack, &WorkloadSpec::delayedAck,
                                     &WorkloadSpec::timestamps}) {
        ScenarioSpec s = anemometer();
        s.workload.*knob = false;
        EXPECT_NE(rejection(s), "");
    }
    ScenarioSpec cc = anemometer();
    cc.workload.anemometer.cc = tcp::CcKind::kCerl;  // workload.cc wins
    EXPECT_NE(rejection(cc).find("workload.anemometer"), std::string::npos);
}

TEST(ScenarioKnobs, ProbeIntervalNeedsSelfHealing) {
    ScenarioSpec s;
    s.topology.probeInterval = sim::kSecond;
    EXPECT_NE(rejection(s).find("topology.probeInterval"), std::string::npos);
    s.topology.selfHealing = true;
    EXPECT_EQ(rejection(s), "");
}

TEST(ScenarioKnobs, ChaosPreconditionsAreAttributedErrorsNotAborts) {
    ScenarioSpec down = cleanChaos();
    down.workload.uplink = false;
    EXPECT_NE(rejection(down).find("workload.uplink"), std::string::npos);
    EXPECT_THROW(runScenario(down, 1), std::invalid_argument);

    ScenarioSpec pipe = lossyPipe();
    pipe.fault.chaos = true;
    EXPECT_NE(rejection(pipe).find("fault.chaos"), std::string::npos);
    EXPECT_THROW(runScenario(pipe, 1), std::invalid_argument);

    ScenarioSpec pair = cleanChaos();
    pair.topology.kind = TopologyKind::kPair;
    pair.topology.hops = 1;
    EXPECT_NE(rejection(pair).find("fault.chaos"), std::string::npos);
    EXPECT_THROW(runScenario(pair, 1), std::invalid_argument);

    ScenarioSpec leaf = sleepy();
    leaf.workload.kind = WorkloadKind::kBulk;
    leaf.fault.chaos = true;
    EXPECT_NE(rejection(leaf).find("fault.chaos"), std::string::npos);
    EXPECT_THROW(runScenario(leaf, 1), std::invalid_argument);
}

TEST(ScenarioKnobs, RunnerSpecificKnobsAreRejectedElsewhere) {
    ScenarioSpec multi = shortOffice();
    multi.workload.totalBytes = 1000;  // each FlowSpec carries its own size
    EXPECT_NE(rejection(multi).find("workload.totalBytes"), std::string::npos);
    ScenarioSpec office = twoFlow();
    office.topology.kind = TopologyKind::kOffice;
    EXPECT_NE(rejection(office).find("topology.kind"), std::string::npos);
    ScenarioSpec sleepyOnLine = sleepy();
    sleepyOnLine.topology.kind = TopologyKind::kLine;
    EXPECT_NE(rejection(sleepyOnLine).find("workload.sleepy"), std::string::npos);
    ScenarioSpec tail;
    tail.workload.idleTail = sim::kMinute;
    EXPECT_NE(rejection(tail).find("workload.idleTail"), std::string::npos);
    ScenarioSpec armed;
    armed.fault.enabled = true;
    EXPECT_NE(rejection(armed).find("fault.enabled"), std::string::npos);
    ScenarioSpec traced = cleanChaos();
    traced.workload.cwndTracer = [](sim::Time, std::uint32_t, std::uint32_t) {};
    EXPECT_NE(rejection(traced).find("workload.cwndTracer"), std::string::npos);
    ScenarioSpec ignoredBytes;
    ignoredBytes.workload.mssBytes = 300;  // mssFrames (default 5) wins
    EXPECT_NE(rejection(ignoredBytes).find("workload.mssBytes"), std::string::npos);
}

TEST(ScenarioKnobs, RegistryAndPointListingNameTheScenario) {
    ScenarioDef bad;
    bad.name = "bad_base";
    bad.base.topology.probeInterval = sim::kSecond;
    Registry registry;
    try {
        registry.add(bad);
        ADD_FAILURE() << "Registry::add accepted an invalid base spec";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("bad_base"), std::string::npos) << e.what();
    }

    ScenarioDef def;
    def.name = "one_bad_point";
    def.axes = {{"tail", {0, 1}}};
    def.bind = [](ScenarioSpec& s, const Point& p) {
        s.workload.idleTail = sim::Time(p.value("tail")) * sim::kMinute;
    };
    const std::vector<std::string> invalid = invalidPoints(def, def.seeds);
    ASSERT_EQ(invalid.size(), 1u);
    EXPECT_NE(invalid[0].find("one_bad_point"), std::string::npos) << invalid[0];
    EXPECT_NE(invalid[0].find("tail=1"), std::string::npos) << invalid[0];
    EXPECT_NE(invalid[0].find("workload.idleTail"), std::string::npos) << invalid[0];
}
