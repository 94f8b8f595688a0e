// The scenario engine: turns a ScenarioSpec + seed into a deterministic run.
//
// These functions absorb the recurring setup the bench drivers used to
// hand-roll: mote and server TCP profiles, the frames->MSS computation,
// testbed construction from a TopologySpec, and the runners. Every radio
// workload except the embedded baselines and the anemometer study — bulk,
// node-to-node pair, two-flow, multi-flow, sleepy bulk and chaos — goes
// through one flow runner (runFlows) over the spec's list of flows, and
// every TCP endpoint of every runner takes its config from endpointConfig,
// so a WorkloadSpec knob reaches every flow or validate() rejects it.
// Construction and event-scheduling order match the pre-refactor runners,
// so a given (spec, seed) replays the identical RNG stream —
// tests/test_scenario_sweep.cpp pins this with Rng::stateDigest against
// frozen inline copies of the old code.
#pragma once

#include <memory>
#include <optional>

#include "tcplp/scenario/metrics.hpp"
#include "tcplp/scenario/spec.hpp"

namespace tcplp::scenario {

/// Mote-side TCP profile: small symmetric buffers of `segments` segments.
tcp::TcpConfig moteTcpConfig(std::uint16_t mss = 462, std::size_t segments = 4);
/// Cloud/server profile: 16 KiB buffers.
tcp::TcpConfig serverTcpConfig(std::uint16_t mss = 462);

/// Resolves the spec's MSS knobs (mssFrames wins over mssBytes).
std::uint16_t resolveMss(const WorkloadSpec& w);

/// Which end of a flow a TCP endpoint is (see endpointConfig).
struct EndpointRole {
    /// resolveMss(w), resolved once per run: harness::mssForFrames encodes
    /// hundreds of trial segments, and their buffers would show in the
    /// run's slab-pool counters.
    std::uint16_t mss = 462;
    bool mote = true;    // mote profile, else the 16 KiB server profile
    bool sender = true;  // the bulk sender, else the receiver
    /// The receiving node's NodeConfig::tcpRecvBudgetBytes (0 = none):
    /// clamps the workload's recvAutotuneBudgetBytes.
    std::size_t recvBudgetBytes = 0;
};

/// The one place a workload's TCP knobs become a TcpConfig: the mote or
/// server profile at the role's MSS (a mote receiver sized by
/// recvWindowSegments when set, else windowSegments), the Table 1
/// ablations, the cc strategy, and the high-BDP knobs for this role.
tcp::TcpConfig endpointConfig(const WorkloadSpec& w, const EndpointRole& role);

/// Builds the testbed a TopologySpec describes (kPipe has no testbed).
/// kSleepyLeaf's leaf (node 10) duty-cycles per `leafPolicy`.
std::unique_ptr<harness::Testbed> buildTestbed(const TopologySpec& t,
                                               std::uint64_t seed,
                                               const mac::SleepyConfig& leafPolicy = {});

// --- Shared scenario presets ---------------------------------------------
// The canonical multiflow workloads, used by the registered drivers
// (bench_office_multiflow, bench_grid200), the scheduler A/B bench
// (bench_timer_wheel) and the backend-equivalence tests — one definition,
// so a tuning change propagates to every consumer. Only the run duration
// varies per consumer.

/// Mixed uplink/downlink over the Fig. 3 office tree: sensors 12/14 stream
/// up while 13/15 receive bulk downlink (3-5 hops out), all saturating.
ScenarioSpec officeMultiflowSpec(sim::Time duration = 3 * sim::kMinute);

/// 200-node dense grid, six saturating mixed-direction flows spread across
/// the grid (the PR 2 spatial-index stress).
ScenarioSpec grid200DenseSpec(sim::Time duration = 90 * sim::kSecond);

/// City-scale grid: `nodes` mesh nodes (default 1,024) with 24 saturating
/// mixed-direction flows spread evenly across the grid — the megascale
/// single-core stress the slab-pooled datapath was built for.
ScenarioSpec cityScaleSpec(sim::Time duration = 30 * sim::kSecond,
                           std::size_t nodes = 1024);

// --- Structured per-workload results (custom measures/presenters use the
// --- raw forms; runScenario flattens them into a MetricRow) --------------

/// Mesh-layer routing/repair counters summed over every mesh node of a
/// testbed. Bulk and chaos rows surface these; the repair counters stay
/// zero under the static-route regime (TopologySpec::selfHealing off).
struct MeshRouteTotals {
    std::uint64_t noRouteDrops = 0;
    std::uint64_t forwardDrops = 0;
    std::uint64_t reroutes = 0;
    std::uint64_t failbacks = 0;
    std::uint64_t blackholeDrops = 0;
};
MeshRouteTotals meshRouteTotals(const harness::Testbed& tb);

/// Congestion-window dynamics of one sender over a run: summary stats from
/// the cwnd tracer hook plus the strategy's loss-response counters. Bulk,
/// two-flow, sleepy and multi-flow rows surface these.
struct CcDynamics {
    std::uint32_t cwndMin = 0;
    std::uint32_t cwndMax = 0;
    double cwndMean = 0.0;
    std::uint32_t ssthreshFinal = 0;
    std::uint64_t lossCuts = 0;      // multiplicative decreases taken
    std::uint64_t cutsSkipped = 0;   // noise-classified losses (CERL)
};

/// Datapath perf counters collected over one run (deltas for the
/// process-wide counters, so sequential runs in one process don't bleed
/// into each other). Multi-flow rows surface these.
struct DatapathCounters {
    std::uint64_t poolRecycled = 0;        // storage blocks served from free lists
    std::uint64_t poolFresh = 0;           // storage blocks that hit the heap
    std::uint64_t poolBytesRecycled = 0;
    std::uint64_t poolBytesFresh = 0;
    std::uint64_t smallFnHeapFallbacks = 0;  // event closures too big to inline
    std::uint64_t prependFallbacks = 0;      // PacketBuffer::prepend slow paths
    std::uint64_t neighborRebuilds = 0;      // candidate-cache full rebuilds
    std::uint64_t neighborRevalidations = 0; // epoch-diff hits (no rebuild)
    std::uint64_t eventsFired = 0;           // simulator events run
};

struct MultiFlowResult {
    struct Flow {
        phy::NodeId node = 0;
        bool uplink = true;
        double goodputKbps = 0.0;
        double rttMedianMs = 0.0;
        CcDynamics cc{};
    };
    std::vector<Flow> flows;
    double aggregateKbps = 0.0;
    double jainFairness = 0.0;
    std::uint64_t framesTransmitted = 0;
    std::uint64_t listenerVisits = 0;
    DatapathCounters datapath{};
    std::uint64_t rngDigest = 0;
};

/// One run of runFlows: every flow's outcome plus the run-wide counters.
struct FlowRunResult {
    struct Flow {
        FlowSpec spec;            // the mote endpoint and direction
        std::size_t bytes = 0;    // unique bytes delivered
        bool contentOk = true;
        double goodputKbps = 0.0;  // over the first..last delivery interval
        /// The sender's stats; under chaos summed over every reconnect
        /// session (counters only, no RTT samples).
        tcp::TcpStats stats{};
        /// Plain TcpSocket senders only: empty for chaos flows (a reconnecting
        /// sender spans many sockets) and for runEmbeddedBulk.
        std::optional<CcDynamics> cc;
        int reconnects = 0;  // chaos: completed re-establishments
        int reconnectAttempts = 0;
    };
    std::vector<Flow> flows;
    std::uint64_t framesTransmitted = 0;
    std::uint64_t listenerVisits = 0;
    MeshRouteTotals mesh{};
    DatapathCounters datapath{};
    double idleRadioDc = 0.0;  // kSleepyBulk: duty cycle over the idleTail
    // Chaos recovery metrics (see FaultSpec).
    std::uint64_t faultEvents = 0;
    double outageSeconds = 0.0;   // union of the injected outage windows
    std::uint64_t faultBytes = 0;  // fresh bytes landed inside outages
    /// Last outage end -> first fresh byte after it; -1 = never recovered
    /// (or no outage), 0-ish = the flow never stalled.
    double timeToRecoverS = -1.0;
    std::uint64_t rngDigest = 0;
};

struct PipeRunResult {
    double goodputKbps = 0.0;
    double rttSeconds = 0.0;
    double lossMeasured = 0.0;
    std::uint64_t rngDigest = 0;
};

/// The flow runner behind kBulk (one flow from the topology's mote; on
/// kPair the peer is the other mote), kTwoFlow (plus the Appendix A sibling
/// node 99), kMultiFlow (the spec's FlowSpecs) and kSleepyBulk. With
/// fault.chaos it first installs the fault plan and the progress watchdog,
/// and every flow gets a ReconnectingBulkSender; a stalled flow throws
/// std::runtime_error, which the sweep and campaign machinery attribute.
FlowRunResult runFlows(const ScenarioSpec& spec, std::uint64_t seed);
/// runFlows on a kMultiFlow spec, per-flow goodput over the run duration.
MultiFlowResult runMultiFlow(const ScenarioSpec& spec, std::uint64_t seed);
/// uIP/BLIP stop-and-wait client to a full TCP server: one flow.
FlowRunResult runEmbeddedBulk(const ScenarioSpec& spec, std::uint64_t seed);
PipeRunResult runPipeBulk(const ScenarioSpec& spec, std::uint64_t seed);
harness::AnemometerResult runAnemometerSpec(const ScenarioSpec& spec,
                                            std::uint64_t seed);

/// Validates the spec, runs its workload and flattens the result into
/// standardized metric keys (goodput_kbps, reliability, ..., rng_digest).
MetricRow runScenario(const ScenarioSpec& spec, std::uint64_t seed);

}  // namespace tcplp::scenario
