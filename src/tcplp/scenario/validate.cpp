// validate(): every ScenarioSpec knob is read by the runner the spec
// selects, or rejected here with the knob and the runner named. Each rule
// pairs "the spec sets this knob off its default" with "the selected
// runner reads it"; docs/SCENARIOS.md renders the table.
#include <stdexcept>
#include <string>
#include <tuple>

#include "tcplp/scenario/spec.hpp"

namespace tcplp::scenario {

namespace {

using S = ScenarioSpec;
using TK = TopologyKind;
using WK = WorkloadKind;

enum class Runner { kFlows, kPipe, kEmbedded, kAnemometer };

/// The dispatch runScenario makes.
Runner runnerOf(const S& s) {
    if (s.topology.kind == TK::kPipe) return Runner::kPipe;
    if (s.workload.kind == WK::kEmbeddedBulk) return Runner::kEmbedded;
    if (s.workload.kind == WK::kAnemometer) return Runner::kAnemometer;
    return Runner::kFlows;
}

std::string runnerName(const S& s) {
    static const char* kRunners[] = {"runFlows", "runPipeBulk", "runEmbeddedBulk",
                                     "runAnemometerSpec"};
    static const char* kKinds[] = {"bulk", "two-flow", "multi-flow", "sleepy bulk"};
    const Runner r = runnerOf(s);
    if (r != Runner::kFlows) return kRunners[int(r)];
    return std::string("runFlows (") + (s.fault.chaos ? "chaos " : "") +
           kKinds[int(s.workload.kind)] + ")";
}

// Set: the knob is off its default.
template <auto M>
bool topo(const S& s) { return !(s.topology.*M == TopologySpec{}.*M); }
template <auto M>
bool work(const S& s) { return !(s.workload.*M == WorkloadSpec{}.*M); }
template <auto M>
bool fault(const S& s) { return !(s.fault.*M == FaultSpec{}.*M); }

bool sleepySet(const S& s) {
    const auto f = [](const mac::SleepyConfig& c) {
        return std::tie(c.policy, c.sleepInterval, c.idleInterval, c.activeInterval,
                        c.sminAdaptive, c.smaxAdaptive, c.wakeupInterval);
    };
    return f(s.workload.sleepy) != f(mac::SleepyConfig{});
}
bool anemometerSet(const S& s) {
    const auto f = [](const harness::AnemometerOptions& o) {
        return std::tie(o.protocol, o.batching, o.duration, o.warmup, o.drain, o.injectedLoss,
                        o.diurnal, o.mssFrames);
    };
    return f(s.workload.anemometer) != f(harness::AnemometerOptions{});
}
/// Option-block fields runAnemometerSpec overwrites with the spec's own
/// workload.cc, point seed, topology.scheduler and workload.deliveryTap.
bool anemometerOverridden(const S& s) {
    const harness::AnemometerOptions& o = s.workload.anemometer;
    const harness::AnemometerOptions d{};
    return o.cc != d.cc || o.seed != d.seed || o.scheduler != d.scheduler || o.deliveryTap;
}
/// The pipe and embedded runs take their MSS from mssBytes (or 462), so
/// even the default frame count would be ignored there.
bool mssFramesSet(const S& s) {
    const Runner r = runnerOf(s);
    if (r == Runner::kPipe || r == Runner::kEmbedded) return s.workload.mssFrames > 0;
    return work<&WorkloadSpec::mssFrames>(s);
}

// Read: the selected runner honours the knob.
bool flows(const S& s) { return runnerOf(s) == Runner::kFlows; }
bool pipe(const S& s) { return runnerOf(s) == Runner::kPipe; }
bool notPipe(const S& s) { return !pipe(s); }
bool embedded(const S& s) { return runnerOf(s) == Runner::kEmbedded; }
bool anemometer(const S& s) { return runnerOf(s) == Runner::kAnemometer; }
bool tcpKnobs(const S& s) { return !anemometer(s); }        // endpointConfig reaches them
bool radio(const S& s) { return flows(s) || embedded(s); }  // buildTestbed reaches them
bool chaos(const S& s) { return s.fault.chaos; }
bool kind(const S& s, WK k) { return flows(s) && s.workload.kind == k; }
bool multiFlow(const S& s) { return kind(s, WK::kMultiFlow); }
bool on(const S& s, TK k) { return radio(s) && s.topology.kind == k; }
bool oneTransfer(const S& s) { return !anemometer(s) && !multiFlow(s); }
/// Node 99's sibling, the embedded client and the §9 office assume their
/// own rig: they read no other topology kind.
bool kindFits(const S& s) {
    const WK k = s.workload.kind;
    return k != WK::kTwoFlow && k != WK::kEmbeddedBulk && k != WK::kAnemometer;
}
/// A mote-side receiver exists: the pair's peer or a downlink flow.
bool moteReceiver(const S& s) {
    if (!flows(s)) return false;
    if (s.topology.kind == TK::kPair) return true;
    if (!multiFlow(s)) return !s.workload.uplink;
    for (const FlowSpec& f : s.workload.flows)
        if (!f.uplink) return true;
    return false;
}

struct Rule {
    const char* knob;
    bool (*set)(const S&);
    bool (*read)(const S&);
};

#define TOPO(f) "topology." #f, topo<&TopologySpec::f>
#define WORK(f) "workload." #f, work<&WorkloadSpec::f>
#define FAULT(f) "fault." #f, fault<&FaultSpec::f>

// topology.scheduler and workload.cc reach every runner: no rule.
const Rule kRules[] = {
    {TOPO(kind), kindFits},
    {TOPO(hops), [](const S& s) { return on(s, TK::kLine); }},
    {TOPO(nodes), [](const S& s) { return on(s, TK::kGrid) || on(s, TK::kStar); }},
    {TOPO(linkLoss), radio},
    {TOPO(retryDelayMax), radio}, {TOPO(queueCapacityPackets), radio},
    {TOPO(softwareCsma), radio}, {TOPO(maxFrameRetries), radio},
    {TOPO(macPayloadBudget), radio}, {TOPO(txProcessingDelay), radio},
    {TOPO(perHopReassembly), radio}, {TOPO(redQueue), radio}, {TOPO(ecnMarking), radio},
    {TOPO(selfHealing), radio},
    {TOPO(probeInterval), [](const S& s) { return radio(s) && s.topology.selfHealing; }},
    {TOPO(linkPreset), radio}, {TOPO(macAggFrames), radio},
    {TOPO(pipeOneWayDelay), pipe},
    {TOPO(pipeBandwidthBps), pipe}, {TOPO(pipeLossForward), pipe},
    {TOPO(pipeLossReverse), pipe},
    {WORK(kind), notPipe}, {WORK(totalBytes), oneTransfer}, {WORK(timeLimit), oneTransfer},
    {WORK(uplink), [](const S& s) { return flows(s) && !multiFlow(s) && !chaos(s); }},
    {"workload.mssFrames", mssFramesSet, flows},
    {WORK(mssBytes), [](const S& s) { return tcpKnobs(s) && s.workload.mssFrames == 0; }},
    {WORK(windowSegments), [](const S& s) { return flows(s) || pipe(s); }},
    {WORK(recvWindowSegments), moteReceiver},
    {WORK(sack), tcpKnobs}, {WORK(delayedAck), tcpKnobs}, {WORK(timestamps), tcpKnobs},
    {WORK(dropOutOfOrder), tcpKnobs}, {WORK(ecn), tcpKnobs}, {WORK(windowScaling), tcpKnobs},
    {WORK(recvAutotuneBudgetBytes), tcpKnobs}, {WORK(bdpBufferBytes), tcpKnobs},
    {"workload.cwndTracer", [](const S& s) { return bool(s.workload.cwndTracer); },
     [](const S& s) { return flows(s) && !chaos(s); }},
    {"workload.deliveryTap", [](const S& s) { return bool(s.workload.deliveryTap); },
     notPipe},
    {WORK(embeddedProfile), embedded},
    {"workload.sleepy", sleepySet, [](const S& s) { return on(s, TK::kSleepyLeaf); }},
    {WORK(idleTail), [](const S& s) { return kind(s, WK::kSleepyBulk); }},
    {"workload.anemometer", anemometerSet, anemometer},
    {"workload.anemometer.{cc,seed,scheduler,deliveryTap}", anemometerOverridden,
     [](const S&) { return false; }},
    {"workload.flows", [](const S& s) { return !s.workload.flows.empty(); }, multiFlow},
    {WORK(multiFlowDuration), multiFlow},
    // Chaos follows one uplink mote->cloud transfer (see workload.uplink).
    {FAULT(chaos),
     [](const S& s) {
         return kind(s, WK::kBulk) && !on(s, TK::kPair) && !on(s, TK::kSleepyLeaf);
     }},
    {FAULT(enabled), chaos},
    {"fault.plan", [](const S& s) { return !s.fault.plan.empty(); }, chaos},
    {FAULT(reconnect), chaos}, {FAULT(maxRetransmits), chaos}, {FAULT(watchdogStall), chaos},
};

#undef TOPO
#undef WORK
#undef FAULT

}  // namespace

void validate(const ScenarioSpec& spec) {
    for (const Rule& rule : kRules) {
        if (rule.set(spec) && !rule.read(spec)) {
            throw std::invalid_argument(std::string("knob ") + rule.knob + " is set but " +
                                        runnerName(spec) + " does not read it");
        }
    }
}

}  // namespace tcplp::scenario
