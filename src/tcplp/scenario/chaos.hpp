// Chaos-campaign machinery: installs an expanded FaultPlan onto a testbed.
// runFlows (workloads.cpp) adds the recovery metrics and the progress
// watchdog of a chaos run on top.
//
// Determinism contract (same as every other runner): the expanded schedule
// depends only on (plan, seed) — sim::expandFaultPlan draws from a dedicated
// derived stream, never from the simulation's own Rng — and the reconnect
// policy draws no randomness at all, so a chaos (spec, seed) replays the
// identical byte stream serial or sharded, and its canonical rows join the
// golden corpus.
#pragma once

#include "tcplp/harness/testbed.hpp"
#include "tcplp/scenario/spec.hpp"
#include "tcplp/sim/fault.hpp"

namespace tcplp::scenario {

/// The expanded, installed fault schedule of one run — consulted by the
/// watchdog (an outage is not a stall) and the recovery metrics.
struct FaultTimeline {
    std::vector<sim::FaultEvent> events;

    bool any() const { return !events.empty(); }
    /// True while at least one injected outage window covers `t`.
    bool outageActive(sim::Time t) const;
    /// End of the latest outage window that has fully ended by `t`
    /// (0 when none has) — the watchdog's stall anchor.
    sim::Time lastOutageEndBefore(sim::Time t) const;
    /// End of the final outage window of the whole schedule.
    sim::Time lastOutageEnd() const;
    /// Union of the outage windows, in seconds (overlaps counted once).
    double outageSeconds() const;
};

/// Expands `plan` with the run seed and schedules every event onto the
/// testbed: node reboots call mesh::Node::reboot, blackout windows toggle
/// the channel's blackout counters at both edges (target==peer==0 = global,
/// target==peer = every link at that node, else the one link), and
/// corruption bursts map to global blackouts (see sim/fault.hpp). Call
/// before runUntil, at simulated time 0.
FaultTimeline installFaults(harness::Testbed& testbed, const sim::FaultPlan& plan,
                            std::uint64_t seed);

}  // namespace tcplp::scenario
