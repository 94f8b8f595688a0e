#include "tcplp/scenario/workloads.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <optional>
#include <stdexcept>

#include "tcplp/app/bulk.hpp"
#include "tcplp/app/reconnect.hpp"
#include "tcplp/common/assert.hpp"
#include "tcplp/harness/pipe.hpp"
#include "tcplp/scenario/chaos.hpp"

namespace tcplp::scenario {

tcp::TcpConfig moteTcpConfig(std::uint16_t mss, std::size_t segments) {
    tcp::TcpConfig c;
    c.mss = mss;
    c.sendBufferBytes = segments * mss;
    c.recvBufferBytes = segments * mss;
    return c;
}

tcp::TcpConfig serverTcpConfig(std::uint16_t mss) {
    tcp::TcpConfig c;
    c.mss = mss;
    c.sendBufferBytes = 16384;
    c.recvBufferBytes = 16384;
    return c;
}

std::uint16_t resolveMss(const WorkloadSpec& w) {
    if (w.mssFrames > 0) return harness::mssForFrames(w.mssFrames);
    return w.mssBytes > 0 ? w.mssBytes : 462;
}

tcp::TcpConfig endpointConfig(const WorkloadSpec& w, const EndpointRole& role) {
    const std::size_t segments =
        !role.sender && w.recvWindowSegments > 0 ? w.recvWindowSegments : w.windowSegments;
    tcp::TcpConfig c =
        role.mote ? moteTcpConfig(role.mss, segments) : serverTcpConfig(role.mss);
    c.sack = w.sack;
    c.delayedAck = w.delayedAck;
    c.timestamps = w.timestamps;
    c.dropOutOfOrder = w.dropOutOfOrder;
    c.ecn = w.ecn;
    c.cc = w.cc;
    // High-BDP knobs (all default off). With autotuning the receive buffer
    // starts at its profile size and earns its way up to the budget;
    // without it the static override opens it.
    c.windowScaling = w.windowScaling;
    if (role.sender) {
        if (w.bdpBufferBytes > 0) c.sendBufferBytes = w.bdpBufferBytes;
    } else if (w.recvAutotuneBudgetBytes > 0) {
        c.recvBufferMaxBytes = role.recvBudgetBytes > 0
                                   ? std::min(w.recvAutotuneBudgetBytes, role.recvBudgetBytes)
                                   : w.recvAutotuneBudgetBytes;
    } else if (w.bdpBufferBytes > 0) {
        c.recvBufferBytes = w.bdpBufferBytes;
    }
    return c;
}

namespace {

/// ESP32-class high-rate link (the `link` axis): tens of Mb/s air rate,
/// Wi-Fi-style microsecond CSMA slots, a fast frame bus instead of the
/// 21 us/B mote SPI, 1.5 KiB frames, and a real (but finite) receive-memory
/// budget. The regime where BDP outgrows the 16-bit window.
void applyEsp32Preset(harness::TestbedConfig& cfg) {
    cfg.airBitsPerSecond = 24e6;
    cfg.busMicrosPerByte = 0.4;
    cfg.nodeDefaults.macConfig.backoffUnit = 9;  // Wi-Fi slot time
    cfg.nodeDefaults.macConfig.ccaTime = 4;
    cfg.nodeDefaults.macPayloadBudget = 1500;
    cfg.nodeDefaults.macConfig.maxPayloadBytes = 1500;
    cfg.nodeDefaults.tcpRecvBudgetBytes = 256 * 1024;
}

harness::TestbedConfig testbedConfigFor(const TopologySpec& t, std::uint64_t seed) {
    harness::TestbedConfig cfg;
    cfg.seed = seed;
    cfg.scheduler = t.scheduler;
    if (t.linkPreset == LinkPreset::kEsp32) applyEsp32Preset(cfg);
    if (t.macAggFrames) cfg.nodeDefaults.macConfig.aggFrames = *t.macAggFrames;
    cfg.linkLoss = t.linkLoss;
    if (t.retryDelayMax) cfg.nodeDefaults.macConfig.retryDelayMax = *t.retryDelayMax;
    if (t.queueCapacityPackets)
        cfg.nodeDefaults.queueConfig.capacityPackets = *t.queueCapacityPackets;
    if (t.softwareCsma) cfg.nodeDefaults.macConfig.softwareCsma = *t.softwareCsma;
    if (t.maxFrameRetries) cfg.nodeDefaults.macConfig.maxFrameRetries = *t.maxFrameRetries;
    if (t.macPayloadBudget) cfg.nodeDefaults.macPayloadBudget = *t.macPayloadBudget;
    if (t.txProcessingDelay) cfg.nodeDefaults.txProcessingDelay = *t.txProcessingDelay;
    if (t.perHopReassembly) cfg.nodeDefaults.perHopReassembly = true;
    cfg.selfHealing = t.selfHealing;
    if (t.probeInterval) cfg.neighborDefaults.probeInterval = *t.probeInterval;
    if (t.redQueue) cfg.nodeDefaults.queueConfig.discipline = ip6::QueueDiscipline::kRed;
    if (t.ecnMarking) cfg.nodeDefaults.queueConfig.ecnMarking = true;
    return cfg;
}

/// Appendix C rig: one duty-cycled leaf (node 10) on the border router.
std::unique_ptr<harness::Testbed> sleepyLeafTestbed(const harness::TestbedConfig& cfg,
                                                    const mac::SleepyConfig& policy) {
    auto tb = std::make_unique<harness::Testbed>(cfg);
    tb->addBorderRouterAndCloud(1, {0.0, 0.0}, cfg.nodeDefaults);
    mesh::NodeConfig lc = cfg.nodeDefaults;
    lc.role = mesh::Role::kLeaf;
    lc.sleepyConfig = policy;
    lc.macConfig.sleepDuringRetryDelay = true;
    mesh::Node& leaf = tb->addNode(10, {harness::kNodeSpacingMeters, 0.0}, lc);
    leaf.setParent(1);
    tb->borderRouter().adoptSleepyChild(10);
    tb->borderRouter().addRoute(10, 10);
    leaf.start();
    return tb;
}

/// Appendix A's second source for kTwoFlow: node 99, a sibling of the
/// line's last node attached to the same relay (or to the border router
/// for one hop).
void addSiblingSource(harness::Testbed& tb, const TopologySpec& t, std::uint64_t seed) {
    const std::size_t hops = t.hops;
    const phy::NodeId attach = hops == 1 ? 1 : phy::NodeId(9 + hops - 1);
    mesh::NodeConfig nc = testbedConfigFor(t, seed).nodeDefaults;
    nc.role = mesh::Role::kRouter;
    mesh::Node* relay = tb.findNode(attach);
    mesh::Node& second =
        tb.addNode(99, {relay->radio()->position().x + 8.0,
                        relay->radio()->position().y + 6.0},
                   nc);
    second.setDefaultRoute(attach);
    relay->addRoute(99, 99);
    tb.borderRouter().addRoute(99, hops == 1 ? phy::NodeId(99) : phy::NodeId(10));
    for (std::size_t i = 1; i + 1 < hops; ++i)
        tb.findNode(phy::NodeId(9 + i))->addRoute(99, phy::NodeId(9 + i + 1));
    if (hops > 1) tb.findNode(attach)->addRoute(99, 99);
}

/// The mote end of a single-flow workload: the far end of the line, the
/// first of the pair, the farthest grid/star/office node from the border
/// router, or the sleepy leaf.
phy::NodeId moteId(const TopologySpec& t) {
    switch (t.kind) {
        case TopologyKind::kLine: return phy::NodeId(9 + t.hops);
        case TopologyKind::kGrid:
        case TopologyKind::kStar: return phy::NodeId(t.nodes);
        case TopologyKind::kOffice: return 15;
        default: return 10;  // kPair's first mote, kSleepyLeaf's leaf
    }
}

/// The flows a workload runs: the spec's FlowSpecs for kMultiFlow, else one
/// transfer from the topology's mote (plus node 99's for kTwoFlow).
std::vector<FlowSpec> flowsOf(const ScenarioSpec& s) {
    const WorkloadSpec& w = s.workload;
    if (w.kind == WorkloadKind::kMultiFlow) return w.flows;
    std::vector<FlowSpec> flows{{moteId(s.topology), w.uplink, w.totalBytes}};
    if (w.kind == WorkloadKind::kTwoFlow) flows.push_back({99, w.uplink, w.totalBytes});
    return flows;
}

/// Streams the cwnd tracer's samples into the summary stats CcDynamics
/// wants. Installed on every plain sender, chained after any user-supplied
/// tracer so the Fig. 7 escape hatch keeps working. It draws no RNG and
/// schedules no events, so it cannot move a run's byte stream.
struct CwndProbe {
    std::uint32_t min = 0, max = 0;
    double sum = 0.0;
    std::uint64_t count = 0;

    void sample(std::uint32_t cwnd) {
        if (count == 0 || cwnd < min) min = cwnd;
        if (cwnd > max) max = cwnd;
        sum += double(cwnd);
        ++count;
    }

    /// Installs the probe on `s`, wrapping (and preserving) `inner`.
    void attach(tcp::TcpSocket& s, tcp::TcpSocket::CwndTracer inner) {
        s.setCwndTracer([this, inner = std::move(inner)](
                            sim::Time now, std::uint32_t cwnd, std::uint32_t ssthresh) {
            sample(cwnd);
            if (inner) inner(now, cwnd, ssthresh);
        });
    }

    /// Folds the probe's samples and the socket's final CC state into the
    /// row-facing summary. A run with no trace events (no cwnd change ever)
    /// degenerates to the socket's final window.
    CcDynamics finish(const tcp::TcpSocket& s) const {
        CcDynamics d;
        const std::uint32_t cwnd = s.tcb().cwnd;
        d.cwndMin = count ? min : cwnd;
        d.cwndMax = count ? max : cwnd;
        d.cwndMean = count ? sum / double(count) : double(cwnd);
        d.ssthreshFinal = s.tcb().ssthresh;
        d.lossCuts = s.ccStats().lossCuts;
        d.cutsSkipped = s.ccStats().cutsSkipped;
        return d;
    }
};

double jainIndex(const std::vector<double>& xs) {
    double sum = 0.0, sumSq = 0.0;
    for (double x : xs) {
        sum += x;
        sumSq += x * x;
    }
    if (sumSq <= 0.0) return 0.0;
    return sum * sum / (double(xs.size()) * sumSq);
}

double kbpsOver(std::size_t bytes, sim::Time duration) {
    return double(bytes) * 8.0 / 1000.0 / sim::toSeconds(duration);
}

/// The chaos half of a run (see FaultSpec): the installed fault schedule,
/// the recovery metrics every meter's fresh bytes feed, and the progress
/// watchdog. Armed before any flow exists, so the fault events and the
/// first watchdog check occupy a fixed prefix of the event space.
struct ChaosMonitor {
    ChaosMonitor(sim::Simulator& s, const FaultSpec& f, std::size_t total)
        : simulator(s), fault(f), totalBytes(total) {}
    ChaosMonitor(const ChaosMonitor&) = delete;  // scheduled checks hold `this`

    sim::Simulator& simulator;
    const FaultSpec& fault;
    std::size_t totalBytes;
    FaultTimeline timeline{};
    std::size_t delivered = 0;
    std::uint64_t faultBytes = 0;
    sim::Time lastProgressAt = 0;
    sim::Time recoveredAt = -1;

    void arm(harness::Testbed& tb, std::uint64_t seed) {
        if (fault.enabled) timeline = installFaults(tb, fault.plan, seed);
        if (fault.watchdogStall > 0) simulator.schedule(tick(), [this] { check(); });
    }
    sim::Time tick() const { return std::max<sim::Time>(fault.watchdogStall / 4, sim::kSecond); }

    void onProgress(std::size_t fresh) {
        const sim::Time now = simulator.now();
        delivered += fresh;
        lastProgressAt = now;
        if (timeline.outageActive(now)) faultBytes += fresh;
        if (timeline.any() && recoveredAt < 0 && now >= timeline.lastOutageEnd())
            recoveredAt = now;
    }

    /// Stall check anchored at the later of the last fresh byte and the end
    /// of the latest completed outage: an intentional blackout is never a
    /// stall, but a flow that fails to resume after one is. The sweep and
    /// campaign machinery attribute the exception to the run point.
    void check() {
        if (delivered >= totalBytes) return;  // done; the watchdog retires
        const sim::Time now = simulator.now();
        const sim::Time anchor = std::max(lastProgressAt, timeline.lastOutageEndBefore(now));
        if (!timeline.outageActive(now) && now - anchor > fault.watchdogStall) {
            throw std::runtime_error(
                "chaos watchdog: no progress for " +
                std::to_string(sim::Time(sim::toSeconds(now - anchor))) + " s at t=" +
                std::to_string(sim::Time(sim::toSeconds(now))) + " s (" +
                std::to_string(delivered) + "/" + std::to_string(totalBytes) +
                " bytes delivered)");
        }
        simulator.schedule(tick(), [this] { check(); });
    }

    void finish(FlowRunResult& r) const {
        r.faultEvents = timeline.events.size();
        r.outageSeconds = timeline.outageSeconds();
        r.faultBytes = faultBytes;
        if (timeline.any() && recoveredAt >= 0)
            r.timeToRecoverS = sim::toSeconds(recoveredAt - timeline.lastOutageEnd());
    }
};

}  // namespace

ScenarioSpec officeMultiflowSpec(sim::Time duration) {
    ScenarioSpec s;
    s.topology.kind = TopologyKind::kOffice;
    s.topology.retryDelayMax = sim::fromMillis(40);  // §7.1 fix
    s.topology.queueCapacityPackets = 16;
    s.workload.kind = WorkloadKind::kMultiFlow;
    s.workload.multiFlowDuration = duration;
    // Sensors 12/14 stream up; 13/15 receive bulk downlink (3-5 hops out).
    // Saturating transfers: all four flows contend for the full window.
    s.workload.flows = {
        {12, true, 2000000}, {13, false, 2000000}, {14, true, 2000000}, {15, false, 2000000}};
    return s;
}

ScenarioSpec grid200DenseSpec(sim::Time duration) {
    ScenarioSpec s;
    s.topology.kind = TopologyKind::kGrid;
    s.topology.nodes = 200;
    s.topology.retryDelayMax = sim::fromMillis(40);  // §7.1 fix
    s.topology.queueCapacityPackets = 24;
    s.workload.kind = WorkloadKind::kMultiFlow;
    s.workload.multiFlowDuration = duration;
    // Flow endpoints spread across the grid (ids 2..200, 15 columns):
    // near, mid and far nodes, alternating direction, all saturating.
    s.workload.flows = {{31, true, 2000000},  {61, false, 2000000}, {91, true, 2000000},
                        {121, false, 2000000}, {151, true, 2000000}, {181, false, 2000000}};
    return s;
}

ScenarioSpec cityScaleSpec(sim::Time duration, std::size_t nodes) {
    ScenarioSpec s;
    s.topology.kind = TopologyKind::kGrid;
    s.topology.nodes = nodes;
    s.topology.retryDelayMax = sim::fromMillis(40);  // §7.1 fix
    s.topology.queueCapacityPackets = 24;
    s.workload.kind = WorkloadKind::kMultiFlow;
    s.workload.multiFlowDuration = duration;
    // 24 saturating flows, endpoints spread evenly across the grid interior
    // (ids 2..nodes), alternating direction — dozens of concurrent TCP
    // connections criss-crossing a four-digit-node mesh on one core.
    for (std::size_t i = 0; i < 24; ++i) {
        FlowSpec f;
        f.node = phy::NodeId(2 + (i * (nodes - 2)) / 24);
        f.uplink = (i % 2) == 0;
        f.totalBytes = 2000000;
        s.workload.flows.push_back(f);
    }
    return s;
}

std::unique_ptr<harness::Testbed> buildTestbed(const TopologySpec& t, std::uint64_t seed,
                                               const mac::SleepyConfig& leafPolicy) {
    const harness::TestbedConfig cfg = testbedConfigFor(t, seed);
    std::unique_ptr<harness::Testbed> tb;
    switch (t.kind) {
        case TopologyKind::kPair: tb = harness::Testbed::pair(cfg); break;
        case TopologyKind::kLine: tb = harness::Testbed::line(t.hops, cfg); break;
        case TopologyKind::kOffice: tb = harness::Testbed::office(cfg); break;
        case TopologyKind::kGrid: tb = harness::Testbed::grid(t.nodes, cfg); break;
        case TopologyKind::kStar: tb = harness::Testbed::star(t.nodes, cfg); break;
        case TopologyKind::kSleepyLeaf: tb = sleepyLeafTestbed(cfg, leafPolicy); break;
        case TopologyKind::kPipe: TCPLP_ASSERT(false && "kPipe has no testbed");
    }
    return tb;
}

MeshRouteTotals meshRouteTotals(const harness::Testbed& tb) {
    MeshRouteTotals m;
    for (std::size_t i = 0; i < tb.nodeCount(); ++i) {
        const mesh::NodeStats& s = tb.node(i).stats();
        m.noRouteDrops += s.noRouteDrops;
        m.forwardDrops += s.forwardDrops;
        m.reroutes += s.reroutes;
        m.failbacks += s.failbacks;
        m.blackholeDrops += s.blackholeDrops;
    }
    return m;
}

FlowRunResult runFlows(const ScenarioSpec& spec, std::uint64_t seed) {
    const TopologySpec& t = spec.topology;
    const WorkloadSpec& w = spec.workload;
    const FaultSpec& f = spec.fault;
    const std::vector<FlowSpec> flows = flowsOf(spec);
    if (flows.empty()) throw std::invalid_argument("workload.flows: kMultiFlow needs flows");
    // Process-wide counter baselines (SmallFn / PacketBuffer statics), taken
    // before the testbed exists so the deltas cover the whole run.
    const std::uint64_t smallFnBase = sim::SmallFn::heapFallbacks();
    const std::uint64_t prependBase = PacketBuffer::stats().prependFallbacks;
    auto tb = buildTestbed(t, seed, w.sleepy);
    if (w.kind == WorkloadKind::kTwoFlow) addSiblingSource(*tb, t, seed);
    if (w.deliveryTap) tb->channel().setDeliveryTap(w.deliveryTap);
    sim::Simulator& simulator = tb->simulator();
    const std::uint16_t mss = resolveMss(w);

    // Faults and the watchdog come first, so they occupy a fixed prefix of
    // the event space regardless of the plan's size.
    std::optional<ChaosMonitor> chaos;
    if (f.chaos) {
        std::size_t total = 0;
        for (const FlowSpec& flow : flows) total += flow.totalBytes;
        chaos.emplace(simulator, f, total);
        chaos->arm(*tb, seed);
    }

    struct Rig {
        Rig() = default;
        Rig(Rig&&) = delete;  // the sender's cwnd tracer holds &probe
        std::unique_ptr<tcp::TcpStack> moteStack, peerStack;  // peerStack: kPair only
        std::unique_ptr<app::GoodputMeter> meter;
        tcp::TcpSocket* sender = nullptr;  // plain flows
        std::unique_ptr<app::BulkSender> bulk;
        std::unique_ptr<app::ReconnectingBulkSender> reconnecting;  // chaos flows
        CwndProbe probe;
    };
    const bool pair = t.kind == TopologyKind::kPair;
    std::unique_ptr<tcp::TcpStack> cloudStack;
    if (!pair) cloudStack = std::make_unique<tcp::TcpStack>(tb->cloud());
    std::deque<Rig> rigs;  // grows without moving its elements

    for (std::size_t i = 0; i < flows.size(); ++i) {
        const FlowSpec& flow = flows[i];
        mesh::Node* mote = tb->findNode(flow.node);
        if (mote == nullptr)
            throw std::invalid_argument("workload.flows: no node " + std::to_string(flow.node));
        mesh::Node& peer = pair ? tb->node(1) : tb->cloud();
        Rig& rig = rigs.emplace_back();
        rig.moteStack = std::make_unique<tcp::TcpStack>(*mote);
        if (pair) rig.peerStack = std::make_unique<tcp::TcpStack>(peer);
        tcp::TcpStack& peerStack = pair ? *rig.peerStack : *cloudStack;
        rig.meter = std::make_unique<app::GoodputMeter>(simulator);
        const std::uint16_t port = std::uint16_t(80 + i);
        tcp::TcpStack& senderStack = flow.uplink ? *rig.moteStack : peerStack;
        tcp::TcpStack& receiverStack = flow.uplink ? peerStack : *rig.moteStack;
        mesh::Node& receiver = flow.uplink ? peer : *mote;
        tcp::TcpConfig senderCfg = endpointConfig(w, {mss, flow.uplink || pair, true});
        const tcp::TcpConfig receiverCfg = endpointConfig(
            w, {mss, !flow.uplink || pair, false, receiver.config().tcpRecvBudgetBytes});

        app::GoodputMeter* meter = rig.meter.get();
        receiverStack.listen(port, receiverCfg, [meter](tcp::TcpSocket& s) {
            s.setOnData([meter](BytesView d) { meter->onData(d); });
            s.setOnPeerFin([&s] { s.close(); });
        });
        const ip6::Address dst = flow.uplink ? peer.address() : mote->address();
        if (chaos) {
            if (f.maxRetransmits) senderCfg.maxRetransmits = *f.maxRetransmits;
            rig.reconnecting = std::make_unique<app::ReconnectingBulkSender>(
                senderStack, senderCfg, dst, port, flow.totalBytes, f.reconnect);
            app::ReconnectingBulkSender* sender = rig.reconnecting.get();
            sender->setOnSession([meter](std::size_t offset) { meter->beginSession(offset); });
            meter->setOnProgress([&chaos](std::size_t fresh) { chaos->onProgress(fresh); });
            // Endpoint crash semantics: a reboot of the sending mote kills its
            // TCP state with the power rail; the app reconnects once the node
            // is back up (the deployed app resumes from its durable log).
            mote->addRebootListener([stack = rig.moteStack.get(), sender](bool isDown) {
                if (isDown)
                    stack->dropAllConnectionsSilently();
                else
                    sender->noteCrash();
            });
            sender->start();
            continue;
        }
        rig.sender = &senderStack.createSocket(senderCfg);
        rig.probe.attach(*rig.sender, w.cwndTracer);
        rig.bulk = std::make_unique<app::BulkSender>(*rig.sender, flow.totalBytes);
        rig.sender->connect(dst, port);
    }

    simulator.runUntil(w.kind == WorkloadKind::kMultiFlow ? w.multiFlowDuration : w.timeLimit);

    FlowRunResult r;
    for (std::size_t i = 0; i < rigs.size(); ++i) {
        const Rig& rig = rigs[i];
        FlowRunResult::Flow& out = r.flows.emplace_back();
        out.spec = flows[i];
        out.bytes = rig.meter->bytes();
        out.contentOk = rig.meter->contentOk();
        out.goodputKbps = rig.meter->goodputKbps();
        if (rig.reconnecting) {
            out.stats = rig.reconnecting->aggregateStats();
            out.reconnects = rig.reconnecting->reconnects();
            out.reconnectAttempts = rig.reconnecting->reconnectAttempts();
        } else {
            out.stats = rig.sender->stats();
            out.cc = rig.probe.finish(*rig.sender);
        }
    }
    if (w.idleTail > 0) {
        // Duty cycle of the mote's radio over a quiet tail after the run.
        phy::Radio* radio = tb->findNode(flows.front().node)->radio();
        radio->energy().resetWindow(radio->state(), simulator.now());
        simulator.runUntil(simulator.now() + w.idleTail);
        r.idleRadioDc = radio->energy().radioDutyCycle(radio->state(), simulator.now());
    }
    if (chaos) chaos->finish(r);
    r.framesTransmitted = tb->channel().framesTransmitted();
    r.listenerVisits = tb->channel().channelStats().listenerVisits;
    r.mesh = meshRouteTotals(*tb);
    const SlabPoolStats& pool = simulator.framePool().stats();
    r.datapath.poolRecycled = pool.recycled;
    r.datapath.poolFresh = pool.fresh;
    r.datapath.poolBytesRecycled = pool.bytesRecycled;
    r.datapath.poolBytesFresh = pool.bytesFresh;
    r.datapath.smallFnHeapFallbacks = sim::SmallFn::heapFallbacks() - smallFnBase;
    r.datapath.prependFallbacks = PacketBuffer::stats().prependFallbacks - prependBase;
    r.datapath.neighborRebuilds = tb->channel().channelStats().neighborRebuilds;
    r.datapath.neighborRevalidations = tb->channel().channelStats().neighborRevalidations;
    r.datapath.eventsFired = simulator.stats().fired;
    r.rngDigest = simulator.rng().stateDigest();
    return r;
}

MultiFlowResult runMultiFlow(const ScenarioSpec& spec, std::uint64_t seed) {
    const FlowRunResult run = runFlows(spec, seed);
    MultiFlowResult r;
    std::vector<double> goodputs;
    for (const FlowRunResult::Flow& f : run.flows) {
        const double kbps = kbpsOver(f.bytes, spec.workload.multiFlowDuration);
        r.flows.push_back(
            {f.spec.node, f.spec.uplink, kbps, f.stats.rttSamples.median(), f.cc.value()});
        r.aggregateKbps += kbps;
        goodputs.push_back(kbps);
    }
    r.jainFairness = jainIndex(goodputs);
    r.framesTransmitted = run.framesTransmitted;
    r.listenerVisits = run.listenerVisits;
    r.datapath = run.datapath;
    r.rngDigest = run.rngDigest;
    return r;
}

FlowRunResult runEmbeddedBulk(const ScenarioSpec& spec, std::uint64_t seed) {
    const TopologySpec& t = spec.topology;
    const WorkloadSpec& w = spec.workload;
    auto tb = buildTestbed(t, seed);
    if (w.deliveryTap) tb->channel().setDeliveryTap(w.deliveryTap);

    mesh::Node& mote = *tb->findNode(moteId(t));
    transport::EmbeddedTcpConfig ec;
    ec.profile = w.embeddedProfile;
    transport::EmbeddedTcpSocket client(mote, ec);
    tcp::TcpStack cloudStack(tb->cloud());

    app::GoodputMeter meter(tb->simulator());
    cloudStack.listen(80, endpointConfig(w, {resolveMss(w), false, false}),
                      [&](tcp::TcpSocket& s) {
                          s.setOnData([&](BytesView d) { meter.onData(d); });
                      });
    app::EmbeddedBulkSender sender(client, w.totalBytes);
    client.connect(tb->cloud().address(), 80);
    // The stop-and-wait stack has no send-space callback; poll it.
    std::function<void()> poll = [&] {
        sender.pump();
        if (sender.offered() < w.totalBytes || client.backlog() > 0)
            tb->simulator().schedule(sim::kSecond, poll);
    };
    tb->simulator().schedule(sim::kSecond, poll);
    tb->simulator().runUntil(w.timeLimit);

    FlowRunResult r;
    FlowRunResult::Flow& out = r.flows.emplace_back();
    out.spec = {mote.id(), true, w.totalBytes};
    out.bytes = meter.bytes();
    out.contentOk = meter.contentOk();
    out.goodputKbps = meter.goodputKbps();
    r.framesTransmitted = tb->channel().framesTransmitted();
    r.mesh = meshRouteTotals(*tb);
    r.rngDigest = tb->simulator().rng().stateDigest();
    return r;
}

PipeRunResult runPipeBulk(const ScenarioSpec& spec, std::uint64_t seed) {
    const TopologySpec& t = spec.topology;
    const WorkloadSpec& w = spec.workload;
    sim::Simulator simulator(sim::SimConfig{seed, t.scheduler});
    harness::PipeConfig pc;
    pc.oneWayDelay = t.pipeOneWayDelay;
    pc.bandwidthBps = t.pipeBandwidthBps;
    pc.lossAtoB = t.pipeLossForward;
    pc.lossBtoA = t.pipeLossReverse;
    harness::Pipe pipe(simulator, pc);
    tcp::TcpStack clientStack(pipe.a());
    tcp::TcpStack serverStack(pipe.b());

    app::GoodputMeter meter(simulator);
    // No mesh node behind a pipe endpoint: the workload's autotune budget
    // applies unclamped (the bdp scenarios model an unconstrained receiver).
    const std::uint16_t mss = resolveMss(w);
    serverStack.listen(80, endpointConfig(w, {mss, false, false}), [&](tcp::TcpSocket& s) {
        s.setOnData([&](BytesView d) { meter.onData(d); });
        s.setOnPeerFin([&s] { s.close(); });
    });
    tcp::TcpSocket& client = clientStack.createSocket(endpointConfig(w, {mss, true, true}));
    app::BulkSender sender(client, w.totalBytes);
    client.connect(pipe.b().address(), 80);
    simulator.runUntil(w.timeLimit);

    PipeRunResult r;
    r.goodputKbps = meter.goodputKbps();
    r.rttSeconds = client.stats().rttSamples.median() / 1000.0;
    const auto sent = client.stats().segsSent;
    r.lossMeasured = sent ? double(client.stats().retransmissions) / double(sent) : 0.0;
    r.rngDigest = simulator.rng().stateDigest();
    return r;
}

harness::AnemometerResult runAnemometerSpec(const ScenarioSpec& spec,
                                            std::uint64_t seed) {
    harness::AnemometerOptions o = spec.workload.anemometer;
    o.seed = seed;
    o.scheduler = spec.topology.scheduler;
    o.cc = spec.workload.cc;
    if (spec.workload.deliveryTap) o.deliveryTap = spec.workload.deliveryTap;
    return harness::runAnemometer(o);
}

// --- Per-kind row flatteners ----------------------------------------------

namespace {

/// The six cwnd-dynamics keys, each named prefix + stem + suffix.
void setCcKeys(MetricRow& row, const CcDynamics& d, const std::string& prefix,
               const std::string& suffix) {
    row.set(prefix + "cwnd_min" + suffix, std::uint64_t(d.cwndMin))
        .set(prefix + "cwnd_max" + suffix, std::uint64_t(d.cwndMax))
        .set(prefix + "cwnd_mean" + suffix, d.cwndMean)
        .set(prefix + "ssthresh_final" + suffix, std::uint64_t(d.ssthreshFinal))
        .set(prefix + "loss_cuts" + suffix, d.lossCuts)
        .set(prefix + "cuts_skipped" + suffix, d.cutsSkipped);
}

/// A one-flow row's cc_name and unsuffixed cc keys, when its sender was a
/// plain TcpSocket (runFlows probed it); uIP/BLIP clients report none.
void setFlowCcKeys(MetricRow& row, const ScenarioSpec& spec, const FlowRunResult::Flow& f) {
    if (!f.cc) return;
    row.set("cc_name", tcp::ccName(spec.workload.cc));
    setCcKeys(row, *f.cc, "", "");
}

/// Retransmitted share of the segments sent, times `scale`.
double rexmitShare(const tcp::TcpStats& s, double scale = 1.0) {
    return s.segsSent > 0 ? scale * double(s.retransmissions) / double(s.segsSent) : 0.0;
}

MetricRow bulkRow(const ScenarioSpec& spec, const FlowRunResult& r) {
    const FlowRunResult::Flow& f = r.flows.front();
    MetricRow row;
    row.set("goodput_kbps", f.goodputKbps)
        .set("rtt_median_ms", f.stats.rttSamples.median())
        .set("segment_loss", rexmitShare(f.stats))
        .set("frames_tx", r.framesTransmitted)
        .set("timeouts", f.stats.timeouts)
        .set("fast_rexmits", f.stats.fastRetransmissions)
        .set("bytes", f.bytes)
        .set("content_ok", f.contentOk)
        .set("no_route_drops", r.mesh.noRouteDrops)
        .set("forward_drops", r.mesh.forwardDrops)
        .set("reroutes", r.mesh.reroutes)
        .set("failbacks", r.mesh.failbacks)
        .set("blackhole_drops", r.mesh.blackholeDrops);
    setFlowCcKeys(row, spec, f);
    return row.set("rng_digest", r.rngDigest);
}

MetricRow twoFlowRow(const ScenarioSpec& spec, const FlowRunResult& r) {
    const FlowRunResult::Flow& a = r.flows[0];
    const FlowRunResult::Flow& b = r.flows[1];
    const double goodputA = kbpsOver(a.bytes, spec.workload.timeLimit);
    const double goodputB = kbpsOver(b.bytes, spec.workload.timeLimit);
    const double fairness =
        std::min(goodputA, goodputB) / std::max(1e-9, std::max(goodputA, goodputB));
    MetricRow row;
    row.set("goodput_a_kbps", goodputA)
        .set("goodput_b_kbps", goodputB)
        .set("fairness", fairness)
        .set("rtt_a_ms", a.stats.rttSamples.median())
        .set("rtt_b_ms", b.stats.rttSamples.median())
        .set("rexmit_a_pct", rexmitShare(a.stats, 100.0))
        .set("rexmit_b_pct", rexmitShare(b.stats, 100.0))
        .set("cc_name", tcp::ccName(spec.workload.cc));
    setCcKeys(row, *a.cc, "", "_a");
    setCcKeys(row, *b.cc, "", "_b");
    return row.set("rng_digest", r.rngDigest);
}

MetricRow multiFlowRow(const ScenarioSpec& spec, const MultiFlowResult& r) {
    MetricRow row;
    for (std::size_t i = 0; i < r.flows.size(); ++i) {
        const std::string p = "flow" + std::to_string(i) + "_";
        row.set(p + "node", std::uint64_t(r.flows[i].node))
            .set(p + "dir", r.flows[i].uplink ? "up" : "down")
            .set(p + "kbps", r.flows[i].goodputKbps)
            .set(p + "rtt_ms", r.flows[i].rttMedianMs);
        setCcKeys(row, r.flows[i].cc, p, "");
    }
    row.set("cc_name", tcp::ccName(spec.workload.cc))
        .set("aggregate_kbps", r.aggregateKbps)
        .set("jain_fairness", r.jainFairness)
        .set("frames_tx", r.framesTransmitted)
        .set("listener_visits", r.listenerVisits);
    const DatapathCounters& d = r.datapath;
    return row.set("pool_recycled", d.poolRecycled)
        .set("pool_fresh", d.poolFresh)
        .set("pool_bytes_recycled", d.poolBytesRecycled)
        .set("pool_bytes_fresh", d.poolBytesFresh)
        .set("smallfn_heap_fallbacks", d.smallFnHeapFallbacks)
        .set("prepend_fallbacks", d.prependFallbacks)
        .set("neighbor_rebuilds", d.neighborRebuilds)
        .set("neighbor_revalidations", d.neighborRevalidations)
        .set("sim_events_per_frame",
             r.framesTransmitted > 0 ? double(d.eventsFired) / double(r.framesTransmitted)
                                     : 0.0)
        .set("rng_digest", r.rngDigest);
}

MetricRow sleepyRow(const ScenarioSpec& spec, const FlowRunResult& r) {
    const FlowRunResult::Flow& f = r.flows.front();
    const Summary& rtt = f.stats.rttSamples;
    // Appendix C's RTT distribution (Fig. 13): 16 buckets of 500 ms.
    std::string hist;
    for (std::size_t count : rtt.histogram(0.0, 8000.0, 16)) {
        if (!hist.empty()) hist += ',';
        hist += std::to_string(count);
    }
    MetricRow row;
    row.set("goodput_kbps", f.goodputKbps)
        .set("bytes", f.bytes)
        .set("rtt_n", rtt.count())
        .set("rtt_median_ms", rtt.median())
        .set("rtt_p10_ms", rtt.percentile(10))
        .set("rtt_p90_ms", rtt.percentile(90))
        .set("rtt_max_ms", rtt.max())
        .set("rtt_hist_500ms", hist)
        .set("idle_radio_dc", r.idleRadioDc);
    setFlowCcKeys(row, spec, f);
    return row.set("rng_digest", r.rngDigest);
}

MetricRow chaosRow(const FlowRunResult& r) {
    const FlowRunResult::Flow& f = r.flows.front();
    const double faultKbps =
        r.outageSeconds > 0.0 ? double(r.faultBytes) * 8.0 / 1000.0 / r.outageSeconds : 0.0;
    MetricRow row;
    return row.set("goodput_kbps", f.goodputKbps)
        .set("bytes", std::uint64_t(f.bytes))
        .set("content_ok", f.contentOk)
        .set("complete", f.bytes >= f.spec.totalBytes)
        .set("reconnects", std::int64_t(f.reconnects))
        .set("reconnect_attempts", std::int64_t(f.reconnectAttempts))
        .set("give_ups", f.stats.rexmitGiveUps + f.stats.persistGiveUps +
                             f.stats.keepAliveGiveUps)
        .set("timeouts", f.stats.timeouts)
        .set("fault_events", r.faultEvents)
        .set("outage_s", r.outageSeconds)
        .set("fault_bytes", r.faultBytes)
        .set("fault_goodput_kbps", faultKbps)
        .set("recover_s", r.timeToRecoverS)
        .set("frames_tx", r.framesTransmitted)
        .set("reroutes", r.mesh.reroutes)
        .set("failbacks", r.mesh.failbacks)
        .set("blackhole_drops", r.mesh.blackholeDrops)
        .set("no_route_drops", r.mesh.noRouteDrops)
        .set("forward_drops", r.mesh.forwardDrops)
        .set("rng_digest", r.rngDigest);
}

MetricRow anemometerRow(const harness::AnemometerResult& r) {
    MetricRow row;
    row.set("generated", r.generated)
        .set("delivered", r.delivered)
        .set("reliability", r.reliability)
        .set("radio_dc", r.radioDutyCycle)
        .set("cpu_dc", r.cpuDutyCycle)
        .set("rexmits", r.transportRetransmissions)
        .set("tcp_rtos", r.tcpTimeouts)
        .set("rng_digest", r.rngDigest);
    if (!r.hourlyRadioDutyCycle.empty()) {
        std::string hourly;
        for (double v : r.hourlyRadioDutyCycle) {
            if (!hourly.empty()) hourly += ',';
            hourly += formatDouble(v);
        }
        row.set("hourly_radio_dc", hourly);
    }
    return row;
}

}  // namespace

MetricRow runScenario(const ScenarioSpec& spec, std::uint64_t seed) {
    validate(spec);
    if (spec.topology.kind == TopologyKind::kPipe) {
        const PipeRunResult r = runPipeBulk(spec, seed);
        MetricRow row;
        return row.set("goodput_kbps", r.goodputKbps)
            .set("rtt_s", r.rttSeconds)
            .set("loss_measured", r.lossMeasured)
            .set("rng_digest", r.rngDigest);
    }
    switch (spec.workload.kind) {
        case WorkloadKind::kEmbeddedBulk: return bulkRow(spec, runEmbeddedBulk(spec, seed));
        case WorkloadKind::kAnemometer: return anemometerRow(runAnemometerSpec(spec, seed));
        case WorkloadKind::kMultiFlow: return multiFlowRow(spec, runMultiFlow(spec, seed));
        default: break;
    }
    // Chaos scenarios keep their schema (reconnects, recover_s, ...) even at
    // the fault=0 baseline, so every row of the `fault` axis matches.
    const FlowRunResult r = runFlows(spec, seed);
    if (spec.fault.chaos) return chaosRow(r);
    if (spec.workload.kind == WorkloadKind::kTwoFlow) return twoFlowRow(spec, r);
    if (spec.workload.kind == WorkloadKind::kSleepyBulk) return sleepyRow(spec, r);
    return bulkRow(spec, r);
}

}  // namespace tcplp::scenario
