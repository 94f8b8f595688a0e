#include "tcplp/scenario/chaos.hpp"

#include <algorithm>

#include "tcplp/common/assert.hpp"

namespace tcplp::scenario {

namespace {

/// Outage window of one expanded event: a reboot keeps the node dark for its
/// downtime; blackout/corruption windows are dark by definition.
bool covers(const sim::FaultEvent& e, sim::Time t) {
    return t >= e.at && t < e.at + e.duration;
}

}  // namespace

bool FaultTimeline::outageActive(sim::Time t) const {
    for (const sim::FaultEvent& e : events)
        if (covers(e, t)) return true;
    return false;
}

sim::Time FaultTimeline::lastOutageEndBefore(sim::Time t) const {
    sim::Time end = 0;
    for (const sim::FaultEvent& e : events) {
        const sim::Time e2 = e.at + e.duration;
        if (e2 <= t) end = std::max(end, e2);
    }
    return end;
}

sim::Time FaultTimeline::lastOutageEnd() const {
    sim::Time end = 0;
    for (const sim::FaultEvent& e : events) end = std::max(end, e.at + e.duration);
    return end;
}

double FaultTimeline::outageSeconds() const {
    // Union of [at, at+duration) windows; events are sorted by `at`.
    sim::Time total = 0;
    sim::Time curStart = 0, curEnd = -1;
    for (const sim::FaultEvent& e : events) {
        const sim::Time s = e.at, f = e.at + e.duration;
        if (curEnd < 0 || s > curEnd) {
            if (curEnd >= 0) total += curEnd - curStart;
            curStart = s;
            curEnd = f;
        } else {
            curEnd = std::max(curEnd, f);
        }
    }
    if (curEnd >= 0) total += curEnd - curStart;
    return sim::toSeconds(total);
}

FaultTimeline installFaults(harness::Testbed& testbed, const sim::FaultPlan& plan,
                            std::uint64_t seed) {
    FaultTimeline timeline;
    timeline.events = sim::expandFaultPlan(plan, seed);
    sim::Simulator& simulator = testbed.simulator();
    phy::Channel& channel = testbed.channel();

    for (const sim::FaultEvent& e : timeline.events) {
        const phy::NodeId a = phy::NodeId(e.target);
        const phy::NodeId b = phy::NodeId(e.peer);
        // An outage window: dark(true) at its start, dark(false) at its end.
        const auto window = [&simulator, &e](auto dark) {
            simulator.schedule(e.at, [dark] { dark(true); });
            simulator.schedule(e.at + e.duration, [dark] { dark(false); });
        };
        switch (e.kind) {
            case sim::FaultKind::kNodeReboot:
            case sim::FaultKind::kNodeFailure: {
                mesh::Node* node = testbed.findNode(a);
                TCPLP_ASSERT(node != nullptr && "fault plan names an unknown node");
                if (e.kind == sim::FaultKind::kNodeReboot)
                    simulator.schedule(e.at, [node, d = e.duration] { node->reboot(d); });
                else
                    simulator.schedule(e.at, [node] { node->failPermanently(); });
                break;
            }
            case sim::FaultKind::kLinkBlackout:
                if (a == 0 && b == 0)
                    window([&channel](bool on) { channel.setGlobalBlackout(on); });
                else if (a == b)
                    window([&channel, a](bool on) { channel.setNodeBlackout(a, on); });
                else
                    window([&channel, a, b](bool on) { channel.setLinkBlackout(a, b, on); });
                break;
            case sim::FaultKind::kCorruptionBurst:
                // Corrupted frames fail FCS and are discarded at the MAC —
                // observationally a global blackout in this PHY model.
                window([&channel](bool on) { channel.setGlobalBlackout(on); });
                break;
        }
    }
    return timeline;
}

}  // namespace tcplp::scenario
