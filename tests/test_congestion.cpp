// Pluggable congestion control (tcp/congestion.hpp).
//
// Three layers of coverage:
//
//  1. Direct-hook tests: each strategy driven on a bare Tcb with scripted
//     hook sequences — NewReno's window arithmetic, CERL's noise-vs-queue
//     loss classification, Westwood's bandwidth-estimate cut.
//
//  2. Scripted-ACK socket tests: a real TcpSocket over a pipe whose wire is
//     cut after the handshake, fed hand-crafted ACK segments through
//     input(). Pins the socket->strategy integration at every historical
//     mutation site (slow start, 3-dupack recovery entry, partial-ACK
//     deflation, RTO collapse) and the cwndCapBytes clamp.
//
//  3. NewReno equivalence: the strategy extraction replays the pre-refactor
//     engine byte-for-byte. The constants below were captured from the
//     engine as it stood BEFORE the CongestionControl refactor (same
//     scenario specs, same seeds); Rng::stateDigest equality proves the
//     refactored socket consumes the identical RNG stream.
#include <gtest/gtest.h>

#include <algorithm>

#include "tcplp/harness/pipe.hpp"
#include "tcplp/scenario/workloads.hpp"
#include "tcplp/tcp/congestion.hpp"
#include "tcplp/tcp/tcp.hpp"

using namespace tcplp;
using namespace tcplp::tcp;

namespace {

// --- 1. Direct-hook strategy tests -----------------------------------------

/// A bare Tcb mid-connection: mss 500, 4000 bytes in flight.
Tcb flightTcb() {
    Tcb tcb;
    tcb.mss = 500;
    tcb.sndUna = 1000;
    tcb.sndNxt = 5000;
    tcb.sndMax = 5000;
    return tcb;
}

constexpr CcEnv kWideEnv{kMaxWindow, 2};

TEST(CongestionControl, FactoryBuildsEveryKindWithMatchingName) {
    Tcb tcb = flightTcb();
    for (CcKind kind : {CcKind::kNewReno, CcKind::kCerl, CcKind::kWestwood}) {
        auto cc = makeCongestionControl(kind, tcb, kWideEnv);
        ASSERT_NE(cc, nullptr);
        EXPECT_EQ(cc->kind(), kind);
        EXPECT_STREQ(cc->name(), ccName(kind));
    }
}

TEST(CongestionControl, OpenSetsInitialWindowAndClearsSsthresh) {
    Tcb tcb = flightTcb();
    auto cc = makeCongestionControl(CcKind::kNewReno, tcb, kWideEnv);
    cc->onOpen();
    EXPECT_EQ(tcb.cwnd, 1000u);  // 2 segments
    EXPECT_EQ(tcb.ssthresh, kMaxWindow);
    cc->onIdleRestart();
    EXPECT_EQ(tcb.cwnd, 1000u);
}

TEST(CongestionControl, NewRenoSlowStartAndCongestionAvoidance) {
    Tcb tcb = flightTcb();
    auto cc = makeCongestionControl(CcKind::kNewReno, tcb, kWideEnv);
    cc->onOpen();
    // Slow start: +min(acked, mss) per ACK.
    cc->onAck(0, 500);
    EXPECT_EQ(tcb.cwnd, 1500u);
    cc->onAck(0, 2000);  // a stretch ACK still adds at most one MSS
    EXPECT_EQ(tcb.cwnd, 2000u);
    // Congestion avoidance: +mss^2/cwnd per ACK.
    tcb.ssthresh = 1000;
    cc->onAck(0, 500);
    EXPECT_EQ(tcb.cwnd, 2000u + 500u * 500u / 2000u);
}

TEST(CongestionControl, NewRenoRecoveryEntryPartialAckAndExit) {
    Tcb tcb = flightTcb();
    auto cc = makeCongestionControl(CcKind::kNewReno, tcb, kWideEnv);
    cc->onOpen();
    tcb.cwnd = 4000;

    cc->onEnterRecovery(0);
    EXPECT_EQ(tcb.ssthresh, 2000u);  // flight/2
    EXPECT_EQ(tcb.cwnd, 2000u + 3 * 500u);
    EXPECT_TRUE(tcb.inFastRecovery);
    EXPECT_EQ(tcb.recover, tcb.sndMax);
    EXPECT_EQ(cc->stats().lossCuts, 1u);
    EXPECT_EQ(cc->stats().cutsSkipped, 0u);

    cc->onDupAckInflate();
    EXPECT_EQ(tcb.cwnd, 4000u);

    // Partial ACK of 800 bytes: deflate by 800, re-inflate by one MSS.
    cc->onPartialAck(0, 800);
    EXPECT_EQ(tcb.cwnd, 4000u - 800u + 500u);

    cc->onExitRecovery(0);
    EXPECT_EQ(tcb.cwnd, tcb.ssthresh);
    EXPECT_FALSE(tcb.inFastRecovery);
    EXPECT_EQ(tcb.dupAcks, 0u);
}

TEST(CongestionControl, NewRenoRtoCollapsesToOneSegment) {
    Tcb tcb = flightTcb();
    auto cc = makeCongestionControl(CcKind::kNewReno, tcb, kWideEnv);
    cc->onOpen();
    tcb.cwnd = 4000;
    tcb.inFastRecovery = true;
    tcb.dupAcks = 3;
    cc->onRtoFire(0);
    EXPECT_EQ(tcb.ssthresh, 2000u);  // flight/2
    EXPECT_EQ(tcb.cwnd, 500u);       // one segment
    EXPECT_FALSE(tcb.inFastRecovery);
    EXPECT_EQ(tcb.dupAcks, 0u);
    EXPECT_EQ(cc->stats().lossCuts, 1u);
}

TEST(CongestionControl, NewRenoCutFloorsAtTwoSegments) {
    Tcb tcb = flightTcb();
    tcb.sndNxt = tcb.sndMax = tcb.sndUna + 600;  // tiny flight
    auto cc = makeCongestionControl(CcKind::kNewReno, tcb, kWideEnv);
    cc->onOpen();
    cc->onEnterRecovery(0);
    EXPECT_EQ(tcb.ssthresh, 1000u);  // 2*mss floor, not 300
}

TEST(CongestionControl, SetCwndClampsToTheEnvCap) {
    Tcb tcb = flightTcb();
    auto cc = makeCongestionControl(CcKind::kNewReno, tcb, CcEnv{1200, 2});
    cc->onOpen();
    EXPECT_EQ(tcb.cwnd, 1000u);
    cc->onAck(0, 500);  // slow start wants 1500; cap holds at 1200
    EXPECT_EQ(tcb.cwnd, 1200u);
    cc->onDupAckInflate();
    EXPECT_EQ(tcb.cwnd, 1200u);
}

TEST(CongestionControl, CerlWithNoRttSignalTakesTheStockCut) {
    Tcb tcb = flightTcb();
    auto cc = makeCongestionControl(CcKind::kCerl, tcb, kWideEnv);
    cc->onOpen();
    tcb.cwnd = 4000;
    cc->onEnterRecovery(0);
    EXPECT_EQ(tcb.ssthresh, 2000u);  // flight/2: assume congestion
    EXPECT_EQ(cc->stats().lossCuts, 1u);
    EXPECT_EQ(cc->stats().cutsSkipped, 0u);
}

TEST(CongestionControl, CerlSkipsTheCutWhenRttSitsAtTheFloor) {
    Tcb tcb = flightTcb();
    auto cc = makeCongestionControl(CcKind::kCerl, tcb, kWideEnv);
    cc->onOpen();
    tcb.cwnd = 4000;
    // RTT barely above baseRTT: queue is empty, the loss is link noise.
    cc->onRttSample(100 * sim::kMillisecond);
    cc->onRttSample(102 * sim::kMillisecond);
    cc->onEnterRecovery(0);
    EXPECT_EQ(tcb.ssthresh, 4000u);  // held at the operating point
    EXPECT_EQ(tcb.cwnd, 4000u + 3 * 500u);
    EXPECT_TRUE(tcb.inFastRecovery);
    EXPECT_EQ(cc->stats().lossCuts, 0u);
    EXPECT_EQ(cc->stats().cutsSkipped, 1u);
}

TEST(CongestionControl, CerlCutsWhenTheQueueIsStanding) {
    Tcb tcb = flightTcb();
    auto cc = makeCongestionControl(CcKind::kCerl, tcb, kWideEnv);
    cc->onOpen();
    tcb.cwnd = 4000;
    // RTT at 2x baseRTT: half the flight (2000 B > 1.5 segments) is queued.
    cc->onRttSample(100 * sim::kMillisecond);
    cc->onRttSample(200 * sim::kMillisecond);
    EXPECT_EQ(cc->stats().cutsSkipped, 0u);
    cc->onEnterRecovery(0);
    EXPECT_EQ(tcb.ssthresh, 2000u);  // stock NewReno cut
    EXPECT_EQ(cc->stats().lossCuts, 1u);
    EXPECT_EQ(cc->stats().cutsSkipped, 0u);
}

TEST(CongestionControl, CerlNoiseRtoCollapsesCwndButKeepsSsthresh) {
    Tcb tcb = flightTcb();
    auto cc = makeCongestionControl(CcKind::kCerl, tcb, kWideEnv);
    cc->onOpen();
    tcb.cwnd = 4000;
    cc->onRttSample(100 * sim::kMillisecond);
    cc->onRttSample(101 * sim::kMillisecond);
    cc->onRtoFire(0);
    // The rewind to one segment is protocol-mandated, but ssthresh holds the
    // prior operating point so slow start regrows in one RTT.
    EXPECT_EQ(tcb.cwnd, 500u);
    EXPECT_EQ(tcb.ssthresh, 4000u);
    EXPECT_EQ(cc->stats().cutsSkipped, 1u);
    // CerlCc tracks the propagation floor, not the latest sample.
    auto* cerl = static_cast<CerlCc*>(cc.get());
    EXPECT_EQ(cerl->baseRtt(), 100 * sim::kMillisecond);
}

TEST(CongestionControl, WestwoodWithNoEstimateTakesTheStockCut) {
    Tcb tcb = flightTcb();
    auto cc = makeCongestionControl(CcKind::kWestwood, tcb, kWideEnv);
    cc->onOpen();
    tcb.cwnd = 4000;
    cc->onEnterRecovery(0);
    EXPECT_EQ(tcb.ssthresh, 2000u);  // flight/2 fallback
    EXPECT_EQ(cc->stats().lossCuts, 1u);
}

TEST(CongestionControl, WestwoodSetsSsthreshFromBandwidthTimesRttMin) {
    Tcb tcb = flightTcb();
    tcb.srtt = 100 * sim::kMillisecond;
    auto cc = makeCongestionControl(CcKind::kWestwood, tcb, kWideEnv);
    cc->onOpen();
    tcb.cwnd = 4000;
    auto* ww = static_cast<WestwoodCc*>(cc.get());

    cc->onRttSample(100 * sim::kMillisecond);
    EXPECT_EQ(ww->rttMin(), 100 * sim::kMillisecond);

    // 10000 bytes acked over 200 ms -> first BWE sample of 50 kB/s.
    cc->onAck(100 * sim::kMillisecond, 5000);
    EXPECT_DOUBLE_EQ(ww->bandwidthEstimate(), 0.0);  // interval still open
    cc->onAck(300 * sim::kMillisecond, 5000);
    EXPECT_DOUBLE_EQ(ww->bandwidthEstimate(), 50000.0);

    // A slower interval folds in via the 7/8 EWMA.
    cc->onAck(500 * sim::kMillisecond, 4000);
    EXPECT_DOUBLE_EQ(ww->bandwidthEstimate(), 0.875 * 50000.0 + 0.125 * 20000.0);

    // Loss: ssthresh = BWE x RTTmin, not flight/2.
    tcb.cwnd = 4000;
    cc->onEnterRecovery(500 * sim::kMillisecond);
    const auto pipe = std::uint32_t(ww->bandwidthEstimate() * 0.1);
    EXPECT_EQ(tcb.ssthresh, pipe);
    EXPECT_EQ(cc->stats().lossCuts, 1u);

    // RTO with an estimate: same threshold, window collapsed.
    tcb.cwnd = 4000;
    cc->onRtoFire(600 * sim::kMillisecond);
    EXPECT_EQ(tcb.ssthresh, pipe);
    EXPECT_EQ(tcb.cwnd, 500u);
}

// --- 2. Scripted-ACK socket tests ------------------------------------------

/// A client socket connected over a real pipe; after the handshake the wire
/// is cut (100% loss both ways) and the test injects crafted ACKs directly
/// through input(). Timestamps/SACK are disabled so injected segments need
/// no option bookkeeping.
struct ScriptedSocket {
    sim::Simulator simulator{7};
    harness::Pipe pipe;
    tcp::TcpStack clientStack;
    tcp::TcpStack serverStack;
    tcp::TcpSocket* client = nullptr;

    explicit ScriptedSocket(tcp::TcpConfig cfg) : pipe(simulator), clientStack(pipe.a()),
                                                  serverStack(pipe.b()) {
        tcp::TcpConfig serverCfg;
        serverCfg.mss = cfg.mss;
        serverCfg.sendBufferBytes = serverCfg.recvBufferBytes = 65535;
        serverStack.listen(80, serverCfg, [](tcp::TcpSocket&) {});
        client = &clientStack.createSocket(cfg);
        client->connect(pipe.b().address(), 80);
        simulator.runUntil(2 * sim::kSecond);
        EXPECT_EQ(client->state(), tcp::State::kEstablished);
        pipe.config().lossAtoB = pipe.config().lossBtoA = 1.0;  // cut the wire
    }

    static tcp::TcpConfig scriptedConfig() {
        tcp::TcpConfig cfg;
        cfg.mss = 100;
        cfg.sendBufferBytes = 800;
        cfg.recvBufferBytes = 800;
        cfg.timestamps = false;
        cfg.sack = false;
        return cfg;
    }

    /// Queues `bytes` of payload and lets the socket emit into the cut wire.
    void queue(std::size_t bytes) {
        const Bytes data = patternBytes(0, bytes);
        client->send(BytesView(data.data(), data.size()));
        pump();
    }

    void pump() { simulator.runUntil(simulator.now() + 10 * sim::kMillisecond); }

    /// Injects a bare ACK for `ack` (window held wide open).
    void injectAck(tcp::Seq ack) {
        tcp::Segment seg;
        seg.srcPort = 80;
        seg.dstPort = client->localPort();
        seg.seq = client->tcb().rcvNxt;
        seg.ack = ack;
        seg.window = 65535;
        seg.flags.ack = true;
        client->input(seg, ip6::Ecn::kNotCapable);
        pump();
    }

    std::uint32_t flight() const { return client->flightSize(); }
    const tcp::Tcb& tcb() const { return client->tcb(); }
};

TEST(CongestionControl, SocketSlowStartGrowsOneMssPerAck) {
    ScriptedSocket s(ScriptedSocket::scriptedConfig());
    EXPECT_EQ(s.tcb().cwnd, 200u);  // 2 x mss initial window
    s.queue(800);
    EXPECT_EQ(s.flight(), 200u);  // cwnd-limited
    s.injectAck(s.tcb().sndUna + 100);
    EXPECT_EQ(s.tcb().cwnd, 300u);
    s.injectAck(s.tcb().sndUna + 100);
    EXPECT_EQ(s.tcb().cwnd, 400u);
    // A stretch ACK covering two segments still adds at most one MSS.
    s.injectAck(s.tcb().sndUna + 200);
    EXPECT_EQ(s.tcb().cwnd, 500u);
}

TEST(CongestionControl, SocketThreeDupAcksEnterRecoveryWithHalvedSsthresh) {
    ScriptedSocket s(ScriptedSocket::scriptedConfig());
    s.queue(800);
    // Grow the window so the flight is worth halving.
    s.injectAck(s.tcb().sndUna + 100);
    s.injectAck(s.tcb().sndUna + 100);
    s.injectAck(s.tcb().sndUna + 100);
    const std::uint32_t flight = s.flight();
    ASSERT_GE(flight, 400u);
    const tcp::Seq una = s.tcb().sndUna;
    s.injectAck(una);
    s.injectAck(una);
    EXPECT_FALSE(s.tcb().inFastRecovery);
    s.injectAck(una);  // third duplicate
    EXPECT_TRUE(s.tcb().inFastRecovery);
    EXPECT_EQ(s.tcb().ssthresh, std::max(flight / 2, 200u));
    EXPECT_EQ(s.tcb().cwnd, s.tcb().ssthresh + 300u);
    EXPECT_EQ(s.client->ccStats().lossCuts, 1u);
    EXPECT_EQ(s.client->stats().fastRetransmissions, 1u);
}

TEST(CongestionControl, SocketPartialAckDeflatesThenExitRestoresSsthresh) {
    ScriptedSocket s(ScriptedSocket::scriptedConfig());
    s.queue(800);
    s.injectAck(s.tcb().sndUna + 100);
    s.injectAck(s.tcb().sndUna + 100);
    s.injectAck(s.tcb().sndUna + 100);
    const tcp::Seq una = s.tcb().sndUna;
    s.injectAck(una);
    s.injectAck(una);
    s.injectAck(una);
    ASSERT_TRUE(s.tcb().inFastRecovery);
    const tcp::Seq recover = s.tcb().recover;
    const std::uint32_t ssthresh = s.tcb().ssthresh;
    const std::uint32_t inflated = s.tcb().cwnd;

    // Partial ACK: two segments acked, still short of the recovery point.
    ASSERT_TRUE(seqGt(recover, una + 200));
    s.injectAck(una + 200);
    EXPECT_TRUE(s.tcb().inFastRecovery);
    EXPECT_EQ(s.tcb().cwnd, inflated - 200u + 100u);

    // ACK covering the recovery point: deflate to ssthresh and exit.
    s.injectAck(recover);
    EXPECT_FALSE(s.tcb().inFastRecovery);
    EXPECT_EQ(s.tcb().cwnd, ssthresh);
    EXPECT_EQ(s.tcb().dupAcks, 0u);
}

TEST(CongestionControl, SocketRtoCollapsesWindowToOneSegment) {
    ScriptedSocket s(ScriptedSocket::scriptedConfig());
    s.queue(800);
    s.injectAck(s.tcb().sndUna + 100);
    const std::uint32_t flight = s.flight();
    ASSERT_GT(flight, 0u);
    s.simulator.runUntil(s.simulator.now() + 5 * sim::kSecond);
    EXPECT_GE(s.client->stats().timeouts, 1u);
    EXPECT_EQ(s.tcb().cwnd, 100u);  // one segment
    EXPECT_EQ(s.tcb().ssthresh, std::max(flight / 2, 200u));
    EXPECT_FALSE(s.tcb().inFastRecovery);
}

TEST(CongestionControl, SocketCwndNeverExceedsCwndCapBytes) {
    // Regression: inflation sites used to push cwnd past the configured cap
    // (§9.2's backlog-vs-window split depends on it). Every mutation now
    // funnels through the strategy's capped setter.
    tcp::TcpConfig cfg = ScriptedSocket::scriptedConfig();
    cfg.cwndCapBytes = 250;
    ScriptedSocket s(cfg);
    std::uint32_t maxCwnd = 0;
    s.client->setCwndTracer(
        [&maxCwnd](sim::Time, std::uint32_t cwnd, std::uint32_t) {
            maxCwnd = std::max(maxCwnd, cwnd);
        });
    s.queue(800);
    s.injectAck(s.tcb().sndUna + 100);  // slow start wants 300
    EXPECT_EQ(s.tcb().cwnd, 250u);
    s.injectAck(s.tcb().sndUna + 100);
    EXPECT_EQ(s.tcb().cwnd, 250u);
    // Recovery entry (ssthresh + 3*mss would be 500+) and dupack inflation
    // must also respect the cap.
    const tcp::Seq una = s.tcb().sndUna;
    for (int i = 0; i < 5; ++i) s.injectAck(una);
    s.simulator.runUntil(s.simulator.now() + 5 * sim::kSecond);  // and RTO
    EXPECT_LE(maxCwnd, 250u);
}

// --- 3. NewReno equivalence against the pre-refactor engine ----------------

// Captured from the engine immediately BEFORE the CongestionControl
// extraction (same specs, same seeds, default NewReno config). Digest
// equality means the refactored socket drew the identical RNG stream —
// the strategy extraction is invisible at the byte level.
struct FrozenRun {
    std::size_t hops;
    std::optional<int> maxFrameRetries;
    double linkLoss;
    std::size_t totalBytes;
    std::size_t windowSegments;
    std::size_t mssFrames;
    sim::Time timeLimit;
    std::uint64_t seed;
    double goodputKbps;
    std::uint64_t frames;
    std::uint64_t rngDigest;
};

const FrozenRun kFrozenRuns[] = {
    // The sec72_hops hops=3 point.
    {3, std::nullopt, 0.0, 50000, 4, 5, 40 * sim::kMinute, 1,
     16.395884534606505, 6118, 4044727130047467477ULL},
    // The lossy-line regime (no link ARQ, 5% i.i.d. loss).
    {3, 0, 0.05, 60000, 8, 2, 20 * sim::kMinute, 7,
     0.41736335956185205, 10333, 8455050288062786643ULL},
};

scenario::ScenarioSpec specFor(const FrozenRun& fr) {
    scenario::ScenarioSpec s;
    s.topology.hops = fr.hops;
    s.topology.retryDelayMax = sim::fromMillis(40);
    s.topology.queueCapacityPackets = 24;
    s.topology.maxFrameRetries = fr.maxFrameRetries;
    s.topology.linkLoss = fr.linkLoss;
    s.workload.totalBytes = fr.totalBytes;
    s.workload.windowSegments = fr.windowSegments;
    s.workload.mssFrames = fr.mssFrames;
    s.workload.timeLimit = fr.timeLimit;
    return s;
}

TEST(CongestionControl, NewRenoReplaysThePreRefactorEngineByteForByte) {
    for (const FrozenRun& fr : kFrozenRuns) {
        const scenario::FlowRunResult r = scenario::runFlows(specFor(fr), fr.seed);
        EXPECT_DOUBLE_EQ(r.flows[0].goodputKbps, fr.goodputKbps);
        EXPECT_EQ(r.framesTransmitted, fr.frames);
        EXPECT_EQ(r.rngDigest, fr.rngDigest);
        EXPECT_TRUE(r.flows[0].contentOk);
    }
}

TEST(CongestionControl, VariantSelectionActuallyChangesTheByteStream) {
    // Sanity for the cc axis: a CERL run of the lossy frozen spec must NOT
    // replay NewReno's stream (otherwise the knob is dead).
    scenario::ScenarioSpec s = specFor(kFrozenRuns[1]);
    s.workload.cc = tcp::CcKind::kCerl;
    const scenario::FlowRunResult r = scenario::runFlows(s, kFrozenRuns[1].seed);
    EXPECT_NE(r.rngDigest, kFrozenRuns[1].rngDigest);
}

}  // namespace
