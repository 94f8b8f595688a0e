#include "rigs.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "tcplp/app/bulk.hpp"
#include "tcplp/app/sensor.hpp"
#include "tcplp/harness/anemometer.hpp"
#include "tcplp/harness/pipe.hpp"
#include "tcplp/harness/testbed.hpp"
#include "tcplp/lowpan/frag.hpp"
#include "tcplp/scenario/workloads.hpp"

namespace perfbench {

using namespace tcplp;

namespace {

// --- Workload definitions --------------------------------------------------

/// pipe_bdp: the bdp_pipe gate point (24 Mb/s x 50 ms) with RFC 7323
/// scaling and a 512 KiB autotune budget, 2 simulated seconds.
scenario::ScenarioSpec pipeSpec() {
    constexpr std::size_t kBudget = 512 * 1024;
    scenario::ScenarioSpec s;
    s.topology.kind = scenario::TopologyKind::kPipe;
    s.topology.pipeBandwidthBps = 24e6;
    s.topology.pipeOneWayDelay = 50 * sim::kMillisecond;
    s.workload.mssFrames = 0;
    s.workload.mssBytes = 1220;
    s.workload.bdpBufferBytes = kBudget;
    s.workload.windowScaling = true;
    s.workload.recvAutotuneBudgetBytes = kBudget;
    s.workload.totalBytes = 50'000'000;
    s.workload.timeLimit = 2 * sim::kSecond;
    return s;
}

/// city_mesh: the stock 1,024-node cityScaleSpec() over 300 simulated s.
scenario::ScenarioSpec citySpec() { return scenario::cityScaleSpec(300 * sim::kSecond); }

/// office_day: the §9 TCPlp anemometer with 10% loss injected at the border
/// router (§9.4) for the whole run, default 2 + 30 + 3 simulated minutes.
harness::AnemometerOptions officeOptions(std::uint64_t seed) {
    harness::AnemometerOptions o;
    o.protocol = harness::SensorProtocol::kTcp;
    o.injectedLoss = 0.10;
    o.seed = seed;
    return o;
}

constexpr phy::NodeId kSensorIds[] = {12, 13, 14, 15};
std::int64_t g_runDeadlineNs = std::numeric_limits<std::int64_t>::max();

double secondsSince(std::int64_t startNs) { return double(nowNs() - startNs) * 1e-9; }

// --- Shared rig plumbing ---------------------------------------------------

class RigBase : public Rig {
protected:
    RigBase(Tracer* tracer, sim::Time slice)
        : tracer_(tracer), smallFnBase_(sim::SmallFn::heapFallbacks()), slice_(slice) {}

    /// Simulator::runUntil driven in slices (the same events fire in the
    /// same order as in one call), timing each slice and checking the run
    /// deadline in between.
    void drive(sim::Simulator& simulator, sim::Time until) {
        for (sim::Time t = simulator.now(); t < until;) {
            t = std::min(until, t + slice_);
            const std::uint64_t fired = simulator.stats().fired;
            const std::int64_t t0 = nowNs();
            simulator.runUntil(t);
            slices_.push_back(Slice{secondsSince(t0), simulator.stats().fired - fired});
            if (nowNs() > g_runDeadlineNs) {
                std::fprintf(stderr, "perfbench: run stopped at simulated %.3f s, over the "
                                     "host time budget\n", sim::toSeconds(t));
                std::exit(3);
            }
        }
    }

    /// The interface a TcpStack should be built on: the decorator when
    /// traced, `inner` itself otherwise.
    ip6::NetIf& netif(ip6::NetIf& inner) {
        if (tracer_ == nullptr) return inner;
        traced_.push_back(std::make_unique<TracedNetIf>(inner, *tracer_));
        return *traced_.back();
    }

    void traceRadios(harness::Testbed& tb) {
        if (tracer_ == nullptr) return;
        for (std::size_t i = 0; i < tb.nodeCount(); ++i) traceMeshRx(tb.node(i), *tracer_);
    }

    tcp::TcpSocket& track(tcp::TcpSocket& s) {
        sockets_.push_back(&s);
        return s;
    }

    /// Receiving end of a bulk flow: every delivery goes through an app span.
    void acceptBulk(tcp::TcpSocket& s, app::GoodputMeter* meter) {
        track(s);
        s.setOnData([this, meter](BytesView d) {
            ++deliveries_;
            appCall(tracer_, [&] { meter->onData(d); });
        });
        s.setOnPeerFin([&s] { s.close(); });
    }

    /// Replaces the callbacks BulkSender installed with the same pump()
    /// inside an app span.
    void wrapBulkSender(tcp::TcpSocket& s, app::BulkSender* bulk) {
        track(s);
        s.setOnSendSpace([this, bulk] { appCall(tracer_, [bulk] { bulk->pump(); }); });
        s.setOnConnected([this, bulk] { appCall(tracer_, [bulk] { bulk->pump(); }); });
    }

    void fillTcpCounts(Counts& c) const {
        Summary rtt;
        for (const tcp::TcpSocket* s : sockets_) {
            const tcp::TcpStats& st = s->stats();
            c.tcpSegsSent += st.segsSent;
            c.tcpSegsReceived += st.segsReceived;
            c.tcpHeaderPredictions += st.headerPredictions;
            c.tcpRexmits += st.retransmissions;
            c.tcpTimeouts += st.timeouts;
            c.tcpRecvBufPeakBytes =
                std::max<std::uint64_t>(c.tcpRecvBufPeakBytes, s->recvBufferCapacity());
            for (double x : st.rttSamples.samples()) rtt.add(x);
        }
        c.tcpRttP50Ms = rtt.median();
    }

    void fillSimCounts(Counts& c, sim::Simulator& simulator) const {
        const sim::SchedulerStats& st = simulator.stats();
        c.scheduled = st.scheduled;
        c.rescheduled = st.rescheduled;
        c.fired = st.fired;
        c.cancelled = st.cancelled;
        c.poolPeak = st.poolCapacity;
        const SlabPoolStats& pool = simulator.framePool().stats();
        c.poolFresh = pool.fresh;
        c.poolRecycled = pool.recycled;
        c.smallFnHeapFallbacks = sim::SmallFn::heapFallbacks() - smallFnBase_;
    }

    static void fillMeshCounts(Counts& c, harness::Testbed& tb) {
        const phy::Channel& ch = tb.channel();
        c.frames = ch.framesTransmitted();
        c.listenerVisits = ch.channelStats().listenerVisits;
        c.deliveryEvents = ch.channelStats().deliveryEvents;
        c.collisions = ch.framesCollided();
        c.neighborRebuilds = ch.channelStats().neighborRebuilds;
        for (std::size_t i = 0; i < tb.nodeCount(); ++i) {
            mesh::Node& n = tb.node(i);
            if (const mac::CsmaMac* mac = n.macLayer()) {
                const mac::MacStats& m = mac->stats();
                c.macDataSent += m.dataSent;
                c.macDelivered += m.dataDelivered;
                c.macTransmissions += m.transmissions;
                c.macCcaFailures += m.ccaFailures;
                c.macAggregated += m.aggregatedFrames;
            }
            if (const lowpan::Reassembler* r = n.reassembler()) {
                const lowpan::ReassemblyStats& rs = r->stats();
                c.reassemblyDrops += rs.timedOut + rs.dropped + rs.arenaDrops + rs.slotDrops;
            }
            const mesh::NodeStats& ns = n.stats();
            c.prependFallbacks += ns.prependFallbacks;
            c.forwarded += ns.packetsForwarded;
            c.queueDrops += ns.forwardDrops;
            c.noRouteDrops += ns.noRouteDrops;
            c.deepCopies += ns.payloadDeepCopies;
        }
    }

    Tracer* tracer_;
    std::uint64_t smallFnBase_;
    sim::Time slice_;
    std::uint64_t deliveries_ = 0;
    std::vector<tcp::TcpSocket*> sockets_;
    // Declared in the base so they outlive every TcpStack of the rig.
    std::vector<std::unique_ptr<TracedNetIf>> traced_;
};

// --- pipe_bdp ----------------------------------------------------------------

class PipeRig final : public RigBase {
public:
    PipeRig(std::uint64_t seed, Tracer* tracer)
        : RigBase(tracer, 20 * sim::kMillisecond), spec_(pipeSpec()) {
        const scenario::TopologySpec& t = spec_.topology;
        const scenario::WorkloadSpec& w = spec_.workload;
        const std::int64_t t0 = nowNs();
        simulator_ = std::make_unique<sim::Simulator>(sim::SimConfig{seed, t.scheduler});
        harness::PipeConfig pc;
        pc.oneWayDelay = t.pipeOneWayDelay;
        pc.bandwidthBps = t.pipeBandwidthBps;
        pc.lossAtoB = t.pipeLossForward;
        pc.lossBtoA = t.pipeLossReverse;
        pipe_ = std::make_unique<harness::Pipe>(*simulator_, pc);
        setup_.testbedS = secondsSince(t0);

        const std::int64_t t1 = nowNs();
        clientStack_ = std::make_unique<tcp::TcpStack>(netif(pipe_->a()));
        serverStack_ = std::make_unique<tcp::TcpStack>(netif(pipe_->b()));
        meter_ = std::make_unique<app::GoodputMeter>(*simulator_);
        // runPipeBulk's configs: wire-sized MSS, then the high-BDP knobs
        // (scaling on both ends, send buffer opened, receive autotuned).
        tcp::TcpConfig clientCfg = scenario::moteTcpConfig(w.mssBytes);
        tcp::TcpConfig servCfg = scenario::serverTcpConfig(w.mssBytes);
        clientCfg.sendBufferBytes = w.bdpBufferBytes;
        clientCfg.windowScaling = servCfg.windowScaling = w.windowScaling;
        servCfg.recvBufferMaxBytes = w.recvAutotuneBudgetBytes;
        serverStack_->listen(80, servCfg,
                             [this](tcp::TcpSocket& s) { acceptBulk(s, meter_.get()); });
        client_ = &clientStack_->createSocket(clientCfg);
        bulk_ = std::make_unique<app::BulkSender>(*client_, w.totalBytes);
        wrapBulkSender(*client_, bulk_.get());
        client_->connect(pipe_->b().address(), 80);
        setup_.stacksS = secondsSince(t1);
    }

    void run() override { drive(*simulator_, spec_.workload.timeLimit); }

    Outcome collect() override {
        Outcome o;
        o.rngDigest = simulator_->rng().stateDigest();
        o.simSeconds = sim::toSeconds(spec_.workload.timeLimit);
        o.appBytes = meter_->bytes();
        o.appDeliveries = deliveries_;
        o.opsAttempted = 1;
        o.opsFailed = meter_->bytes() == 0 ? 1 : 0;
        o.contentOk = meter_->contentOk();
        if (!o.contentOk) o.contentNote = "pipe flow delivered bytes off the pattern";
        char line[160];
        std::snprintf(line, sizeof line, "flow 0 pipe a->b bytes=%zu goodput_kbps=%.3f %s",
                      meter_->bytes(), meter_->goodputKbps(),
                      o.opsFailed ? "FAILED (nothing delivered)" : "ok");
        o.flowLines.push_back(line);
        o.runnerValues = {meter_->goodputKbps()};
        fillTcpCounts(o.counts);
        fillSimCounts(o.counts, *simulator_);
        return o;
    }

private:
    scenario::ScenarioSpec spec_;
    std::unique_ptr<sim::Simulator> simulator_;
    std::unique_ptr<harness::Pipe> pipe_;
    std::unique_ptr<tcp::TcpStack> clientStack_;
    std::unique_ptr<tcp::TcpStack> serverStack_;
    std::unique_ptr<app::GoodputMeter> meter_;
    tcp::TcpSocket* client_ = nullptr;
    std::unique_ptr<app::BulkSender> bulk_;
};

// --- city_mesh -----------------------------------------------------------------

/// Follows the primary routes a packet for the cloud host takes from
/// `start`, the way Node::routePacket does: the border router hands it to
/// the wired link, every other node looks up the destination's short
/// address and falls back to its default route.
std::string cloudRouteVerdict(harness::Testbed& tb, phy::NodeId start) {
    const ip6::ShortAddr cloudShort = tb.cloud().address().shortAddr();
    const phy::NodeId border = tb.borderRouter().id();
    std::set<phy::NodeId> seen;
    phy::NodeId cur = start;
    std::string divert;
    while (cur != border && seen.insert(cur).second) {
        mesh::Node* n = tb.findNode(cur);
        if (n == nullptr) return "route to cloud leads to unknown node " + std::to_string(cur);
        const std::vector<phy::NodeId> specific = n->routeTable().candidates(cloudShort);
        const std::vector<phy::NodeId> fallback = n->routeTable().defaultCandidates();
        const std::vector<phy::NodeId>& hopList = specific.empty() ? fallback : specific;
        if (hopList.empty()) return "no route to cloud at node " + std::to_string(cur);
        if (!specific.empty() && divert.empty()) {
            divert = "node " + std::to_string(cur) + " sends it to " +
                     std::to_string(hopList.front()) + " (its route to mesh node " +
                     std::to_string(cloudShort) + ")";
        }
        cur = hopList.front();
    }
    if (cur == border)
        return "route to cloud reaches the border router in " + std::to_string(seen.size()) +
               " hops" + (divert.empty() ? "" : " after " + divert);
    return "route to cloud loops back to node " + std::to_string(cur) +
           (divert.empty() ? std::string() : ": " + divert);
}

class CityRig final : public RigBase {
public:
    CityRig(std::uint64_t seed, Tracer* tracer)
        : RigBase(tracer, 10 * sim::kSecond), spec_(citySpec()) {
        const scenario::WorkloadSpec& w = spec_.workload;
        const std::int64_t t0 = nowNs();
        tb_ = scenario::buildTestbed(spec_.topology, seed);
        setup_.testbedS = secondsSince(t0);
        traceRadios(*tb_);

        const std::int64_t t1 = nowNs();
        const std::uint16_t mss = scenario::resolveMss(w);
        cloudStack_ = std::make_unique<tcp::TcpStack>(netif(tb_->cloud()));
        flows_.reserve(w.flows.size());
        // runMultiFlow's order: per flow a mote stack, a meter, the
        // listener, the sender socket, its bulk app, then connect.
        for (std::size_t i = 0; i < w.flows.size(); ++i) {
            const scenario::FlowSpec& f = w.flows[i];
            mesh::Node* node = tb_->findNode(f.node);
            Flow flow;
            flow.spec = f;
            flow.moteStack = std::make_unique<tcp::TcpStack>(netif(*node));
            flow.meter = std::make_unique<app::GoodputMeter>(tb_->simulator());
            const std::uint16_t port = std::uint16_t(80 + i);
            tcp::TcpStack& senderStack = f.uplink ? *flow.moteStack : *cloudStack_;
            tcp::TcpStack& receiverStack = f.uplink ? *cloudStack_ : *flow.moteStack;
            tcp::TcpConfig senderCfg = f.uplink ? scenario::moteTcpConfig(mss, w.windowSegments)
                                                : scenario::serverTcpConfig(mss);
            tcp::TcpConfig receiverCfg = f.uplink
                                             ? scenario::serverTcpConfig(mss)
                                             : scenario::moteTcpConfig(mss, w.windowSegments);
            senderCfg.cc = receiverCfg.cc = w.cc;
            app::GoodputMeter* meter = flow.meter.get();
            receiverStack.listen(port, receiverCfg,
                                 [this, meter](tcp::TcpSocket& s) { acceptBulk(s, meter); });
            flow.sender = &senderStack.createSocket(senderCfg);
            flow.bulk = std::make_unique<app::BulkSender>(*flow.sender, f.totalBytes);
            wrapBulkSender(*flow.sender, flow.bulk.get());
            const ip6::Address dst = f.uplink ? tb_->cloud().address() : node->address();
            flow.sender->connect(dst, port);
            flows_.push_back(std::move(flow));
        }
        setup_.stacksS = secondsSince(t1);
    }

    void run() override { drive(tb_->simulator(), spec_.workload.multiFlowDuration); }

    Outcome collect() override {
        Outcome o;
        o.rngDigest = tb_->simulator().rng().stateDigest();
        o.simSeconds = sim::toSeconds(spec_.workload.multiFlowDuration);
        o.appDeliveries = deliveries_;
        o.opsAttempted = flows_.size();
        for (std::size_t i = 0; i < flows_.size(); ++i) {
            const Flow& f = flows_[i];
            const std::size_t bytes = f.meter->bytes();
            o.appBytes += bytes;
            const double kbps = double(bytes) * 8.0 / 1000.0 / o.simSeconds;
            o.runnerValues.push_back(kbps);
            if (bytes == 0) ++o.opsFailed;
            if (!f.meter->contentOk()) {
                o.contentOk = false;
                o.contentNote = "flow " + std::to_string(i) + " delivered bytes off the pattern";
            }
            char head[160];
            std::snprintf(head, sizeof head, "flow %2zu node %4u %-4s bytes=%-8zu kbps=%-7.3f %s; ",
                          i, unsigned(f.spec.node), f.spec.uplink ? "up" : "down", bytes, kbps,
                          bytes == 0 ? "FAILED" : "ok");
            o.flowLines.push_back(head + cloudRouteVerdict(*tb_, f.spec.node));
        }
        fillTcpCounts(o.counts);
        fillSimCounts(o.counts, tb_->simulator());
        fillMeshCounts(o.counts, *tb_);
        o.runnerValues.push_back(double(o.counts.frames));
        return o;
    }

private:
    struct Flow {
        scenario::FlowSpec spec;
        std::unique_ptr<tcp::TcpStack> moteStack;
        std::unique_ptr<app::GoodputMeter> meter;
        std::unique_ptr<app::BulkSender> bulk;
        tcp::TcpSocket* sender = nullptr;
    };
    scenario::ScenarioSpec spec_;
    std::unique_ptr<harness::Testbed> tb_;
    std::unique_ptr<tcp::TcpStack> cloudStack_;
    std::vector<Flow> flows_;
};

// --- office_day ------------------------------------------------------------------

/// harness/anemometer.cpp's MSS rule: the largest MSS whose sensor->cloud
/// segment fits `frames` 802.15.4 frames.
std::uint16_t mssForFramesToCloud(std::size_t frames) {
    for (std::uint16_t mss = 1200; mss >= 40; --mss) {
        tcp::Segment seg;
        seg.timestamps = tcp::Timestamps{1, 2};
        seg.payload = patternBytes(0, mss);
        ip6::Packet p;
        p.src = ip6::Address::meshLocal(12);
        p.dst = ip6::Address::cloud(1000);
        p.nextHeader = ip6::kProtoTcp;
        p.payload = seg.encode();
        if (lowpan::frameCountFor(p, 12, 1, phy::kMaxMacPayloadBytes) <= frames) return mss;
    }
    return 40;
}

/// Checks the reading stream of one cloud-side connection: every reading
/// is byte-identical to makeReading(node, seq), and each node's sequence
/// numbers only grow (TCP delivers in order and never twice).
class ReadingChecker {
public:
    void feed(BytesView data) {
        partial_.insert(partial_.end(), data.begin(), data.end());
        std::size_t off = 0;
        while (partial_.size() - off >= app::kReadingBytes) {
            const BytesView r(partial_.data() + off, app::kReadingBytes);
            const std::uint16_t node = getU16(r, 0);
            const std::uint32_t seq = getU32(r, 2);
            const Bytes expect = app::makeReading(node, seq);
            if (!std::equal(expect.begin(), expect.end(), r.begin())) ok_ = false;
            auto [it, fresh] = lastSeq_.try_emplace(node, seq);
            if (!fresh) {
                if (seq <= it->second) ok_ = false;
                it->second = seq;
            }
            ++total_;
            ++perNode_[node];
            off += app::kReadingBytes;
        }
        partial_.erase(partial_.begin(), partial_.begin() + long(off));
    }
    bool ok() const { return ok_; }
    std::uint64_t total() const { return total_; }
    std::uint64_t forNode(std::uint16_t node) const {
        const auto it = perNode_.find(node);
        return it == perNode_.end() ? 0 : it->second;
    }

private:
    Bytes partial_;
    std::map<std::uint16_t, std::uint64_t> perNode_;
    std::map<std::uint16_t, std::uint32_t> lastSeq_;
    std::uint64_t total_ = 0;
    bool ok_ = true;
};

class OfficeRig final : public RigBase {
public:
    OfficeRig(std::uint64_t seed, Tracer* tracer)
        : RigBase(tracer, 60 * sim::kSecond), options_(officeOptions(seed)) {
        const std::int64_t t0 = nowNs();
        harness::TestbedConfig cfg;
        cfg.seed = options_.seed;
        cfg.scheduler = options_.scheduler;
        cfg.sleepyLeaves = {12, 13, 14, 15};
        cfg.sleepyConfig.policy = mac::PollPolicy::kTransportHint;
        cfg.nodeDefaults.macConfig.retryDelayMax = 40 * sim::kMillisecond;
        cfg.nodeDefaults.tcpCc = options_.cc;
        tb_ = harness::Testbed::office(cfg);
        for (phy::NodeId id : kSensorIds)
            tb_->findNode(id)->macLayer()->mutableConfig().sleepDuringRetryDelay = true;
        tb_->wired().setLossRate(options_.injectedLoss);
        setup_.testbedS = secondsSince(t0);
        traceRadios(*tb_);

        const std::int64_t t1 = nowNs();
        sim::Simulator& simulator = tb_->simulator();
        const std::uint16_t mss = mssForFramesToCloud(options_.mssFrames);
        app::SensorConfig sensorCfg;
        sensorCfg.batching = options_.batching;
        sensorCfg.batchThreshold = 64;
        sensorCfg.coapBlockBytes = std::size_t(mss);
        sensorCfg.queueCapacity = 64;  // §9.2, TCP

        cloudTcp_ = std::make_unique<tcp::TcpStack>(netif(tb_->cloud()));
        tcp::TcpConfig serverCfg;
        serverCfg.mss = mss;
        serverCfg.sendBufferBytes = serverCfg.recvBufferBytes = 16384;
        cloudTcp_->listen(80, serverCfg, [this](tcp::TcpSocket& s) {
            track(s);
            checkers_.push_back(std::make_unique<ReadingChecker>());
            ReadingChecker* checker = checkers_.back().get();
            s.setOnData([this, checker](BytesView d) {
                ++deliveries_;
                appBytes_ += d.size();
                appCall(tracer_, [&] {
                    collector_.feedStream(d);
                    checker->feed(d);
                });
            });
        });

        for (phy::NodeId id : kSensorIds) {
            auto sensor = std::make_unique<Sensor>();
            sensor->node = tb_->findNode(id);
            sensor->node->start();
            sensor->node->config().queueConfig.capacityPackets = 16;
            if (sensor->node->forwardQueue())
                sensor->node->forwardQueue()->mutableConfig().capacityPackets = 16;
            sensor->stack = std::make_unique<tcp::TcpStack>(netif(*sensor->node));
            tcp::TcpConfig moteCfg;
            moteCfg.mss = mss;
            moteCfg.recvBufferBytes = 4 * mss;
            moteCfg.sendBufferBytes = 4 * mss + 40 * app::kReadingBytes;
            moteCfg.cwndCapBytes = std::uint32_t(4 * mss);
            moteCfg.minRto = 2 * sim::kSecond;
            moteCfg.cc = sensor->node->config().tcpCc;
            sensor->moteCfg = moteCfg;
            sensor->socket = &track(sensor->stack->createSocket(moteCfg));
            sensor->transport =
                std::make_unique<app::TcpSensorTransport>(*sensor->socket, sensorCfg);
            sensor->app =
                std::make_unique<app::SensorNode>(simulator, id, *sensor->transport, sensorCfg);
            sensors_.push_back(std::move(sensor));
        }
        // Staggered connect + sampling start, as the product rig does.
        sim::Time stagger = 0;
        for (auto& sensor : sensors_) {
            simulator.schedule(stagger, [this, s = sensor.get()] {
                connect(*s);
                s->app->start();
            });
            stagger += 5377 * sim::kMillisecond;
        }
        setup_.stacksS = secondsSince(t1);
    }

    void run() override {
        sim::Simulator& simulator = tb_->simulator();
        drive(simulator, options_.warmup);
        for (auto& s : sensors_) {
            phy::Radio* radio = s->node->radio();
            radio->energy().resetWindow(radio->state(), simulator.now());
        }
        drive(simulator, options_.warmup + options_.duration);
        double radioDc = 0.0;
        for (auto& s : sensors_) {
            phy::Radio* radio = s->node->radio();
            radioDc += radio->energy().radioDutyCycle(radio->state(), simulator.now());
        }
        radioDc_ = radioDc / double(sensors_.size());
        const sim::Time measureEnd = simulator.now();
        for (auto& s : sensors_) s->app->stop();
        drive(simulator, measureEnd + options_.drain);
    }

    Outcome collect() override {
        Outcome o;
        sim::Simulator& simulator = tb_->simulator();
        o.rngDigest = simulator.rng().stateDigest();
        o.simSeconds = sim::toSeconds(simulator.now());
        o.appBytes = appBytes_;
        o.appDeliveries = deliveries_;
        std::uint64_t queueDrops = 0;
        bool splitAgrees = true;
        for (auto& s : sensors_) {
            const std::uint16_t id = std::uint16_t(s->node->id());
            std::uint64_t delivered = 0;
            for (const auto& c : checkers_) delivered += c->forNode(id);
            splitAgrees = splitAgrees && delivered == collector_.forNode(id);
            const app::SensorStats& st = s->app->stats();
            o.opsAttempted += st.generated;
            queueDrops += st.queueDrops;
            std::uint64_t rexmits = s->priorRexmits, rtos = s->priorTimeouts;
            rexmits += s->socket->stats().retransmissions;
            rtos += s->socket->stats().timeouts;
            char line[200];
            std::snprintf(line, sizeof line,
                          "sensor %u generated=%llu delivered=%llu queue_drops=%llu "
                          "not_arrived=%llu rexmits=%llu rtos=%llu reconnects=%llu",
                          unsigned(id), (unsigned long long)st.generated,
                          (unsigned long long)delivered, (unsigned long long)st.queueDrops,
                          (unsigned long long)(st.generated - std::min(st.generated,
                                                                       delivered + st.queueDrops)),
                          (unsigned long long)rexmits,
                          (unsigned long long)rtos, (unsigned long long)s->reconnects);
            o.flowLines.push_back(line);
        }
        if (!splitAgrees) {
            // app::ReadingCollector keeps one stream remainder for all
            // connections, so interleaved deliveries shift its per-node
            // split; its total (what reliability uses) is unaffected.
            o.flowLines.push_back(
                "note: ReadingCollector's per-node split differs from the per-connection "
                "count above (one stream remainder shared by all connections)");
        }
        const std::uint64_t delivered = collector_.total();
        o.opsFailed = o.opsAttempted - std::min(delivered, o.opsAttempted);
        o.radioDc = radioDc_;
        // Content: readings byte-exact and in order per node, and the
        // checkers and the product's ReadingCollector count the same total.
        // Readings that are missing were dropped by a full app queue, lost
        // with a connection that gave up, or were still in flight at the end.
        std::uint64_t checked = 0;
        bool inOrder = true;
        for (const auto& c : checkers_) {
            checked += c->total();
            inOrder = inOrder && c->ok();
        }
        if (!inOrder) {
            o.contentOk = false;
            o.contentNote = "a reading arrived corrupted, duplicated or out of order";
        } else if (checked != delivered || delivered + queueDrops > o.opsAttempted) {
            o.contentOk = false;
            o.contentNote = "reading totals disagree (collector vs checker vs generated)";
        }
        fillTcpCounts(o.counts);
        fillSimCounts(o.counts, simulator);
        fillMeshCounts(o.counts, *tb_);
        o.runnerValues = {double(o.opsAttempted), double(delivered), radioDc_};
        return o;
    }

private:
    struct Sensor {
        mesh::Node* node = nullptr;
        std::unique_ptr<tcp::TcpStack> stack;
        tcp::TcpSocket* socket = nullptr;
        std::unique_ptr<app::TcpSensorTransport> transport;
        std::unique_ptr<app::SensorNode> app;
        tcp::TcpConfig moteCfg;
        std::uint64_t priorRexmits = 0;  // across reconnected sockets
        std::uint64_t priorTimeouts = 0;
        std::uint64_t reconnects = 0;
    };

    /// The product rig's connectTcp: a fresh socket per (re)connect, and a
    /// reconnect 10 s after a connection fails.
    void connect(Sensor& s) {
        s.socket = &track(s.stack->createSocket(s.moteCfg));
        s.transport->setSocket(*s.socket);
        s.socket->setOnSendSpace([this, &s] { appCall(tracer_, [&s] { s.app->kick(); }); });
        s.socket->setOnConnected([this, &s] { appCall(tracer_, [&s] { s.app->kick(); }); });
        s.socket->setOnError([this, &s] {
            s.priorRexmits += s.socket->stats().retransmissions;
            s.priorTimeouts += s.socket->stats().timeouts;
            ++s.reconnects;
            s.node->simulator().schedule(10 * sim::kSecond, [this, &s] { connect(s); });
        });
        s.socket->connect(tb_->cloud().address(), 80);
    }

    harness::AnemometerOptions options_;
    std::unique_ptr<harness::Testbed> tb_;
    app::ReadingCollector collector_;
    std::vector<std::unique_ptr<ReadingChecker>> checkers_;
    std::unique_ptr<tcp::TcpStack> cloudTcp_;
    std::vector<std::unique_ptr<Sensor>> sensors_;
    std::uint64_t appBytes_ = 0;
    double radioDc_ = 0.0;
};

}  // namespace

void setRunDeadline(std::int64_t deadlineNs) { g_runDeadlineNs = deadlineNs; }

bool parseWorkload(const std::string& name, Workload& out) {
    for (Workload w : {Workload::kPipeBdp, Workload::kCityMesh, Workload::kOfficeDay}) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

const char* workloadName(Workload w) {
    switch (w) {
        case Workload::kPipeBdp: return "pipe_bdp";
        case Workload::kCityMesh: return "city_mesh";
        case Workload::kOfficeDay: return "office_day";
    }
    return "?";
}

Counts& Counts::operator+=(const Counts& other) {
    for (std::uint64_t Counts::*field : kSummedCounts) this->*field += other.*field;
    tcpRecvBufPeakBytes = std::max(tcpRecvBufPeakBytes, other.tcpRecvBufPeakBytes);
    poolPeak = std::max(poolPeak, other.poolPeak);
    return *this;
}

std::string Outcome::fingerprint() const {
    std::ostringstream s;
    s.precision(17);
    s << std::hex << rngDigest << std::dec << ' ' << simSeconds << ' ' << appBytes << ' '
      << appDeliveries << ' ' << opsAttempted << ' ' << opsFailed << ' ' << contentOk << ' '
      << radioDc << ' ' << counts.tcpRecvBufPeakBytes << ' '
      << counts.tcpRttP50Ms << ' ' << counts.poolPeak;
    for (std::uint64_t Counts::*field : kSummedCounts) s << ' ' << counts.*field;
    for (double v : runnerValues) s << ' ' << v;
    for (const std::string& line : flowLines) s << '\n' << line;
    return s.str();
}

std::unique_ptr<Rig> makeRig(Workload w, std::uint64_t seed, Tracer* tracer) {
    switch (w) {
        case Workload::kPipeBdp: return std::make_unique<PipeRig>(seed, tracer);
        case Workload::kCityMesh: return std::make_unique<CityRig>(seed, tracer);
        case Workload::kOfficeDay: return std::make_unique<OfficeRig>(seed, tracer);
    }
    return nullptr;
}

std::string checkAgainstProduct(Workload w, std::uint64_t seed, const Outcome& rig) {
    std::uint64_t digest = 0;
    std::vector<double> values;
    const char* runner = "";
    switch (w) {
        case Workload::kPipeBdp: {
            runner = "runPipeBulk";
            const scenario::PipeRunResult r = scenario::runPipeBulk(pipeSpec(), seed);
            digest = r.rngDigest;
            values = {r.goodputKbps};
            break;
        }
        case Workload::kCityMesh: {
            runner = "runMultiFlow";
            const scenario::MultiFlowResult r = scenario::runMultiFlow(citySpec(), seed);
            digest = r.rngDigest;
            for (const auto& f : r.flows) values.push_back(f.goodputKbps);
            values.push_back(double(r.framesTransmitted));
            break;
        }
        case Workload::kOfficeDay: {
            runner = "runAnemometer";
            const harness::AnemometerResult r = harness::runAnemometer(officeOptions(seed));
            digest = r.rngDigest;
            values = {double(r.generated), double(r.delivered), r.radioDutyCycle};
            break;
        }
    }
    if (digest != rig.rngDigest) return std::string("rng_digest differs from ") + runner;
    if (values.size() != rig.runnerValues.size())
        return std::string("output count differs from ") + runner;
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (values[i] != rig.runnerValues[i]) {
            char buf[200];
            std::snprintf(buf, sizeof buf, "output %zu: rig %.17g vs %s %.17g", i,
                          rig.runnerValues[i], runner, values[i]);
            return buf;
        }
    }
    return "";
}

}  // namespace perfbench
