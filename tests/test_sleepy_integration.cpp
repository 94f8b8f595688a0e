// Integration tests for the duty-cycled (sleepy) data path: TCP and CoAP
// over a polling leaf, the §9 application loop, and Appendix C behaviors.
#include <gtest/gtest.h>

#include "tcplp/app/bulk.hpp"
#include "tcplp/app/sensor.hpp"
#include "tcplp/coap/coap.hpp"
#include "tcplp/harness/anemometer.hpp"
#include "tcplp/harness/testbed.hpp"
#include "tcplp/tcp/tcp.hpp"

using namespace tcplp;

namespace {

struct SleepyRig {
    std::unique_ptr<harness::Testbed> tb;
    mesh::Node* leaf = nullptr;

    explicit SleepyRig(mac::SleepyConfig sleepy, std::uint64_t seed = 1) {
        harness::TestbedConfig cfg;
        cfg.seed = seed;
        tb = std::make_unique<harness::Testbed>(cfg);
        tb->addBorderRouterAndCloud(1, {0.0, 0.0}, cfg.nodeDefaults);
        mesh::NodeConfig lc = cfg.nodeDefaults;
        lc.role = mesh::Role::kLeaf;
        lc.sleepyConfig = sleepy;
        leaf = &tb->addNode(10, {10.0, 0.0}, lc);
        leaf->setParent(1);
        tb->borderRouter().adoptSleepyChild(10);
        tb->borderRouter().addRoute(10, 10);
        leaf->start();
    }
};

TEST(SleepyTcp, HandshakeCompletesQuicklyWithTransportHint) {
    mac::SleepyConfig sc;
    sc.policy = mac::PollPolicy::kTransportHint;
    SleepyRig rig(sc);
    tcp::TcpStack leafStack(*rig.leaf);
    tcp::TcpStack cloudStack(rig.tb->cloud());
    cloudStack.listen(80, {}, [](tcp::TcpSocket&) {});

    tcp::TcpSocket& client = leafStack.createSocket({});
    sim::Time connectedAt = -1;
    client.setOnConnected([&] { connectedAt = rig.tb->simulator().now(); });
    client.connect(rig.tb->cloud().address(), 80);
    rig.tb->simulator().runUntil(30 * sim::kSecond);
    ASSERT_GE(connectedAt, 0);
    // The SYN-ACK rides the 100 ms rapid-poll cadence, not the 4 min idle one.
    EXPECT_LT(connectedAt, 2 * sim::kSecond);
}

TEST(SleepyTcp, UplinkRttTracksFixedSleepInterval) {
    // Appendix C.1's headline observation (self-clocking).
    mac::SleepyConfig sc;
    sc.policy = mac::PollPolicy::kFixed;
    sc.sleepInterval = 500 * sim::kMillisecond;
    SleepyRig rig(sc);
    tcp::TcpStack leafStack(*rig.leaf);
    tcp::TcpStack cloudStack(rig.tb->cloud());

    app::GoodputMeter meter(rig.tb->simulator());
    cloudStack.listen(80, {}, [&](tcp::TcpSocket& s) {
        s.setOnData([&](BytesView d) { meter.onData(d); });
        s.setOnPeerFin([&s] { s.close(); });
    });
    tcp::TcpSocket& client = leafStack.createSocket({});
    app::BulkSender sender(client, 15000);
    client.connect(rig.tb->cloud().address(), 80);
    rig.tb->simulator().runUntil(5 * sim::kMinute);

    ASSERT_EQ(meter.bytes(), 15000u);
    EXPECT_NEAR(client.stats().rttSamples.median(), 550.0, 200.0);
}

TEST(SleepyTcp, DownlinkDeliversThroughIndirectQueue) {
    mac::SleepyConfig sc;
    sc.policy = mac::PollPolicy::kFixed;
    sc.sleepInterval = 300 * sim::kMillisecond;
    SleepyRig rig(sc);
    tcp::TcpStack leafStack(*rig.leaf);
    tcp::TcpStack cloudStack(rig.tb->cloud());

    app::GoodputMeter meter(rig.tb->simulator());
    leafStack.listen(7000, {}, [&](tcp::TcpSocket& s) {
        s.setOnData([&](BytesView d) { meter.onData(d); });
        s.setOnPeerFin([&s] { s.close(); });
    });
    tcp::TcpConfig cloudCfg;
    cloudCfg.sendBufferBytes = cloudCfg.recvBufferBytes = 8192;
    tcp::TcpSocket& cloudSock = cloudStack.createSocket(cloudCfg);
    app::BulkSender sender(cloudSock, 10000);
    cloudSock.connect(rig.leaf->address(), 7000);
    rig.tb->simulator().runUntil(10 * sim::kMinute);

    EXPECT_EQ(meter.bytes(), 10000u);
    EXPECT_TRUE(meter.contentOk());
}

TEST(SleepyTcp, LeafRadioMostlyAsleepDuringIdleConnection) {
    mac::SleepyConfig sc;
    sc.policy = mac::PollPolicy::kTransportHint;
    SleepyRig rig(sc);
    tcp::TcpStack leafStack(*rig.leaf);
    tcp::TcpStack cloudStack(rig.tb->cloud());
    cloudStack.listen(80, {}, [](tcp::TcpSocket&) {});
    tcp::TcpSocket& client = leafStack.createSocket({});
    client.connect(rig.tb->cloud().address(), 80);
    rig.tb->simulator().runUntil(10 * sim::kSecond);
    ASSERT_EQ(client.state(), tcp::State::kEstablished);

    // Idle established connection: back to 4-minute polls, radio asleep.
    phy::Radio* radio = rig.leaf->radio();
    radio->energy().resetWindow(radio->state(), rig.tb->simulator().now());
    rig.tb->simulator().runUntil(rig.tb->simulator().now() + 10 * sim::kMinute);
    const double dc =
        radio->energy().radioDutyCycle(radio->state(), rig.tb->simulator().now());
    EXPECT_LT(dc, 0.005);  // < 0.5%
}

TEST(SleepyCoap, ConfirmableExchangeOverPollingLeaf) {
    mac::SleepyConfig sc;
    sc.policy = mac::PollPolicy::kTransportHint;
    SleepyRig rig(sc);
    transport::UdpStack leafUdp(*rig.leaf);
    transport::UdpStack cloudUdp(rig.tb->cloud());
    coap::CoapServer server(cloudUdp, 5683);
    coap::CoapClient client(leafUdp, rig.tb->cloud().address(), 5683, {});

    int delivered = 0;
    for (int i = 0; i < 5; ++i)
        client.postConfirmable(app::makeReading(10, std::uint32_t(i)),
                               [&](bool ok) { delivered += ok; });
    rig.tb->simulator().runUntil(2 * sim::kMinute);
    EXPECT_EQ(delivered, 5);
    EXPECT_EQ(server.requestsReceived(), 5u);
}

TEST(Anemometer, AllProtocolsReliableInFavorableConditions) {
    // §9.3: with no injected loss every setup reaches ~100% reliability.
    for (auto proto : {harness::SensorProtocol::kTcp, harness::SensorProtocol::kCoap,
                       harness::SensorProtocol::kUnreliable}) {
        harness::AnemometerOptions o;
        o.protocol = proto;
        o.duration = 8 * sim::kMinute;
        o.seed = 2;
        const auto r = harness::runAnemometer(o);
        EXPECT_GT(r.reliability, 0.97) << harness::protocolName(proto);
        EXPECT_GT(r.generated, 1500u);
    }
}

TEST(Anemometer, BatchingReducesCoapDutyCycle) {
    harness::AnemometerOptions batched;
    batched.protocol = harness::SensorProtocol::kCoap;
    batched.duration = 8 * sim::kMinute;
    harness::AnemometerOptions unbatched = batched;
    unbatched.batching = false;
    const auto rb = harness::runAnemometer(batched);
    const auto ru = harness::runAnemometer(unbatched);
    EXPECT_LT(rb.radioDutyCycle, ru.radioDutyCycle * 0.7);
}

TEST(Anemometer, HeavyInjectedLossBreaksCocoaBeforeCoap) {
    harness::AnemometerOptions o;
    o.duration = 12 * sim::kMinute;
    o.injectedLoss = 0.21;
    o.seed = 5;
    o.protocol = harness::SensorProtocol::kCoap;
    const auto coap = harness::runAnemometer(o);
    o.protocol = harness::SensorProtocol::kCocoa;
    const auto cocoa = harness::runAnemometer(o);
    EXPECT_GT(coap.reliability, cocoa.reliability);  // §9.4
}

TEST(DiurnalModel, LossHigherDuringWorkingHours) {
    const double night = harness::diurnalLossAt(3 * sim::kHour);
    EXPECT_LE(night, 0.95);  // may be a burst bucket
    // Compare the non-burst baseline by sampling several offsets.
    double nightMin = 1.0, noonMin = 1.0;
    for (int i = 0; i < 20; ++i) {
        nightMin = std::min(
            nightMin, harness::diurnalLossAt(3 * sim::kHour + i * 977 * sim::kMillisecond));
        noonMin = std::min(
            noonMin, harness::diurnalLossAt(12 * sim::kHour + i * 977 * sim::kMillisecond));
    }
    EXPECT_LT(nightMin, noonMin);
    EXPECT_NEAR(nightMin, 0.01, 0.005);
    EXPECT_NEAR(noonMin, 0.12, 0.02);
}

}  // namespace
