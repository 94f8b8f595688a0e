// Spatial-index equivalence: the grid-indexed channel must be externally
// indistinguishable from the frozen linear-scan reference — identical
// delivery sets, identical collision/fading counts, and an identical RNG
// draw sequence (so every figure bench replays byte-for-byte). Topologies
// are randomized; traffic is dense enough to exercise hidden-terminal
// collisions and same-tick batched deliveries.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "tcplp/phy/channel.hpp"
#include "tcplp/phy/radio.hpp"
#include "tcplp/sim/simulator.hpp"

using namespace tcplp;
using namespace tcplp::phy;

namespace {

struct DeliveryRecord {
    NodeId receiver;
    NodeId src;
    std::uint8_t seq;
    sim::Time at;
    bool operator==(const DeliveryRecord& o) const {
        return receiver == o.receiver && src == o.src && seq == o.seq && at == o.at;
    }
};

struct Outcome {
    std::vector<DeliveryRecord> deliveries;
    std::uint64_t transmitted = 0;
    std::uint64_t collided = 0;
    std::uint64_t faded = 0;
    std::uint64_t rngDigest = 0;
};

/// One simulated world: `n` radios at topology-RNG-chosen positions, every
/// radio periodically transmitting (directly onto the medium, so the
/// workload is identical in both modes and all randomness flows through the
/// channel's loss draws).
Outcome runWorld(Channel::DeliveryMode mode, std::uint64_t seed, std::size_t n,
                 double area, double loss) {
    sim::Simulator simulator(seed);
    Channel channel(simulator, 12.0);
    channel.setDeliveryMode(mode);
    channel.setDefaultLoss(loss);
    channel.setAmbientLoss([](sim::Time now, NodeId dst) {
        return ((now / 1000) % 7 == dst % 7) ? 0.5 : 0.0;
    });

    // Positions from a dedicated RNG so both modes build the same topology
    // without touching the simulation RNG.
    sim::Rng topo(seed * 1315423911ULL + 17);
    std::vector<std::unique_ptr<Radio>> radios;
    Outcome out;
    for (std::size_t i = 0; i < n; ++i) {
        const Position pos{double(topo.uniformInt(std::uint64_t(area * 100))) / 100.0,
                           double(topo.uniformInt(std::uint64_t(area * 100))) / 100.0};
        radios.push_back(
            std::make_unique<Radio>(simulator, channel, NodeId(i + 1), pos));
        Radio* r = radios.back().get();
        r->setAutoAck(false);
        r->setReceiveCallback([&out, r](const Frame& f) {
            out.deliveries.push_back(DeliveryRecord{r->id(), f.src, f.seq, r->simulator().now()});
        });
    }

    // Dense periodic broadcast traffic. Staggered but overlapping: stretches
    // of equal frame sizes make same-tick endings (batched deliveries)
    // common, and close transmitters exercise collisions.
    for (std::size_t i = 0; i < n; ++i) {
        const sim::Time start = sim::Time(137 * (i % 11));
        const std::size_t len = 20 + (i % 3) * 40;
        for (int burst = 0; burst < 6; ++burst) {
            simulator.schedule(start + sim::Time(burst) * 9000, [&, i, len, burst] {
                Frame f;
                f.src = radios[i]->id();
                f.dst = kBroadcast;
                f.seq = std::uint8_t(burst);
                f.payload = patternBytes(i, len);
                channel.startTransmission(radios[i].get(), f);
            });
        }
    }

    simulator.run();
    out.transmitted = channel.framesTransmitted();
    out.collided = channel.framesCollided();
    out.faded = channel.framesLostToFading();
    out.rngDigest = simulator.rng().stateDigest();
    return out;
}

}  // namespace

TEST(ChannelEquivalence, DenseRandomTopologiesMatchLinearReference) {
    for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL, 99ULL}) {
        for (const std::size_t n : {15ULL, 40ULL, 80ULL}) {
            const Outcome indexed =
                runWorld(Channel::DeliveryMode::kSpatialIndex, seed, n, 60.0, 0.05);
            const Outcome linear =
                runWorld(Channel::DeliveryMode::kLinearScan, seed, n, 60.0, 0.05);
            ASSERT_EQ(indexed.transmitted, linear.transmitted) << "seed " << seed;
            EXPECT_EQ(indexed.collided, linear.collided) << "seed " << seed << " n " << n;
            EXPECT_EQ(indexed.faded, linear.faded) << "seed " << seed << " n " << n;
            ASSERT_EQ(indexed.deliveries.size(), linear.deliveries.size())
                << "seed " << seed << " n " << n;
            for (std::size_t i = 0; i < indexed.deliveries.size(); ++i) {
                ASSERT_TRUE(indexed.deliveries[i] == linear.deliveries[i])
                    << "delivery " << i << " differs at seed " << seed << " n " << n;
            }
            // Same final RNG state == the loss draws happened in the same
            // order for the same listeners (one draw per in-range listener).
            EXPECT_EQ(indexed.rngDigest, linear.rngDigest) << "seed " << seed << " n " << n;
        }
    }
}

TEST(ChannelEquivalence, SpatialModeDoesFarLessWork) {
    const std::size_t n = 80;
    const auto visits = [&](Channel::DeliveryMode mode) {
        sim::Simulator simulator(5);
        Channel channel(simulator, 12.0);
        channel.setDeliveryMode(mode);
        sim::Rng topo(42);
        std::vector<std::unique_ptr<Radio>> radios;
        for (std::size_t i = 0; i < n; ++i) {
            radios.push_back(std::make_unique<Radio>(
                simulator, channel, NodeId(i + 1),
                Position{double(topo.uniformInt(8000)) / 100.0,
                         double(topo.uniformInt(8000)) / 100.0}));
        }
        Frame f;
        f.dst = kBroadcast;
        f.payload = patternBytes(1, 30);
        for (std::size_t i = 0; i < n; ++i) {
            f.src = radios[i]->id();
            simulator.schedule(sim::Time(i) * 7001, [&, i, f] {
                channel.startTransmission(radios[i].get(), f);
            });
        }
        simulator.run();
        return channel.channelStats().listenerVisits;
    };
    const std::uint64_t indexed = visits(Channel::DeliveryMode::kSpatialIndex);
    const std::uint64_t linear = visits(Channel::DeliveryMode::kLinearScan);
    // 80 radios spread over an 80x80 m area with 12 m cells: the 3x3
    // neighborhood holds a small fraction of the network.
    EXPECT_LT(indexed * 4, linear);
}

TEST(ChannelEquivalence, MovedRadioIsReindexed) {
    sim::Simulator simulator;
    Channel channel(simulator, 12.0);
    Radio a(simulator, channel, 1, {0, 0});
    Radio b(simulator, channel, 2, {100, 100});  // far outside a's neighborhood

    int got = 0;
    b.setReceiveCallback([&](const Frame&) { ++got; });

    Frame f;
    f.src = 1;
    f.dst = kBroadcast;
    f.payload = toBytes("x");
    a.transmit(f, nullptr);
    simulator.run();
    EXPECT_EQ(got, 0);

    b.setPosition({10, 0});  // walks into range; the grid must re-file it
    a.transmit(f, nullptr);
    simulator.run();
    EXPECT_EQ(got, 1);

    b.setPosition({100, 100});  // walks away again
    a.transmit(f, nullptr);
    simulator.run();
    EXPECT_EQ(got, 1);
}

// Regression for the retired (transmitter, end-time) erase: transmissions
// are keyed by txId, so two frames from ONE transmitter whose carriers drop
// at the same tick retire independently and both deliver. (The old linear
// erase matched the first entry with that transmitter+end pair.)
TEST(ChannelRegression, SameTransmitterSameEndTickRetiresBoth) {
    sim::Simulator simulator;
    Channel channel(simulator, 12.0);
    // Pin the batched path: this test exercises its txId bookkeeping, and
    // the kAuto default resolves to the linear scan at this radio count.
    channel.setDeliveryMode(Channel::DeliveryMode::kSpatialIndex);
    Radio tx(simulator, channel, 1, {0, 0});
    Radio rx(simulator, channel, 2, {10, 0});

    Frame f1;
    f1.src = 1;
    f1.dst = kBroadcast;
    f1.seq = 10;
    f1.payload = patternBytes(0, 24);
    Frame f2 = f1;
    f2.seq = 11;

    // Drive the medium directly: same instant, same air time -> same end
    // tick, one transmitter. (The radio state machine cannot produce this,
    // which is exactly why the bookkeeping must not rely on it.)
    channel.startTransmission(&tx, f1);
    channel.startTransmission(&tx, f2);
    EXPECT_EQ(channel.activeTransmissionCount(), 2u);
    EXPECT_FALSE(channel.clearAt(&rx));

    simulator.run();
    // Both entries retired — nothing leaks in the active list, and the
    // overlapping carriers were observed as a collision at the receiver.
    EXPECT_EQ(channel.activeTransmissionCount(), 0u);
    EXPECT_TRUE(channel.clearAt(&rx));
    EXPECT_EQ(channel.framesTransmitted(), 2u);
    EXPECT_EQ(channel.framesCollided(), 1u);
    // The pair shared one pooled delivery event (batched by end tick).
    EXPECT_EQ(channel.channelStats().deliveryEvents, 1u);
}

TEST(ChannelRegression, BackToBackFramesStaggeredEndsRetireInOrder) {
    sim::Simulator simulator;
    Channel channel(simulator, 12.0);
    Radio tx(simulator, channel, 1, {0, 0});
    Radio rx(simulator, channel, 2, {10, 0});

    Frame shortFrame;
    shortFrame.src = 1;
    shortFrame.dst = kBroadcast;
    shortFrame.payload = patternBytes(0, 8);
    Frame longFrame = shortFrame;
    longFrame.payload = patternBytes(0, 80);

    channel.startTransmission(&tx, longFrame);
    channel.startTransmission(&tx, shortFrame);
    EXPECT_EQ(channel.activeTransmissionCount(), 2u);

    simulator.runUntil(shortFrame.airTime());
    // The short frame's entry (started second) retired first — the txId
    // keying picked the right one even though transmitter+start matched.
    EXPECT_EQ(channel.activeTransmissionCount(), 1u);
    EXPECT_FALSE(channel.clearAt(&rx));

    simulator.run();
    EXPECT_EQ(channel.activeTransmissionCount(), 0u);
    EXPECT_TRUE(channel.clearAt(&rx));
}

// --- One event per frame edge --------------------------------------------
// The channel folds the transmitter's air-end into the delivery event and
// reads same-instant listeners out through one shared event. Both folds
// must replay the exact (time, listener, callback) order that one event per
// listener produced, on either scheduler backend.

namespace {

struct Readout {
    sim::Time at;
    NodeId listener;
    FrameType type;
    std::uint64_t acksSentByDst;  // orders readouts against the auto-ACK
    bool operator==(const Readout& o) const {
        return at == o.at && listener == o.listener && type == o.type &&
               acksSentByDst == o.acksSentByDst;
    }
};

/// Transmitter 1 at the origin and `listeners` listeners in range, every
/// receive callback logged. The frame carries `payload` bytes (MPDU =
/// 23 + payload), so every timing below is plain arithmetic.
struct ReadoutWorld {
    ReadoutWorld(sim::SchedulerKind kind, std::size_t listeners)
        : simulator(sim::SimConfig{3, kind}), channel(simulator, 12.0) {
        for (std::size_t i = 0; i <= listeners; ++i) {
            radios.push_back(std::make_unique<Radio>(simulator, channel, NodeId(i + 1),
                                                     Position{double(i), 1.0}));
        }
        for (auto& r : radios) {
            Radio* radio = r.get();
            radio->setReceiveCallback([this, radio](const Frame& f) {
                log.push_back(Readout{simulator.now(), radio->id(), f.type,
                                      radios[dst - 1]->autoAcksSent()});
            });
        }
    }
    Radio& radio(NodeId id) { return *radios[id - 1]; }
    /// Sends one data frame from radio 1 to `to` (kBroadcast: no ACK).
    void send(NodeId to, std::size_t payload) {
        dst = to == kBroadcast ? 1 : to;
        Frame f;
        f.src = 1;
        f.dst = to;
        f.ackRequest = to != kBroadcast;
        f.payload = patternBytes(0, payload);
        radio(1).transmit(f, [this](bool radiated) {
            doneAt = radiated ? simulator.now() : -1;
        });
        simulator.run();
    }

    sim::Simulator simulator;
    Channel channel;
    std::vector<std::unique_ptr<Radio>> radios;
    std::vector<Readout> log;
    NodeId dst = 1;
    sim::Time doneAt = -1;
};

constexpr sim::SchedulerKind kBackends[] = {sim::SchedulerKind::kBinaryHeap,
                                            sim::SchedulerKind::kTimerWheel};

}  // namespace

TEST(ChannelReadout, ListenersOnDifferentSpiRatesReadOutInTimeThenNodeIdOrder) {
    for (const sim::SchedulerKind kind : kBackends) {
        ReadoutWorld w(kind, 4);
        w.radio(3).setSpiMicrosPerByte(10.0);
        // MPDU 50 B: SPI load 1050 us, air (50 + 6) * 32 = 1792 us, so the
        // carrier drops at 2842. Readouts: 500 us at 10 us/B, 1050 at 21.
        w.send(kBroadcast, 27);
        const std::vector<Readout> expected{
            {3342, 3, FrameType::kData, 0},
            {3892, 2, FrameType::kData, 0},
            {3892, 4, FrameType::kData, 0},
            {3892, 5, FrameType::kData, 0},
        };
        EXPECT_EQ(w.log, expected) << sim::schedulerKindName(kind);
        EXPECT_EQ(w.doneAt, 2842) << sim::schedulerKindName(kind);
        // SPI load, delivery (which also drops the carrier), and three
        // readout events: 2 opens one at 3892, 3 opens one at 3342, and 4
        // opens a second one at 3892 that 5 joins.
        EXPECT_EQ(w.simulator.stats().fired, 5u) << sim::schedulerKindName(kind);
        EXPECT_EQ(w.radio(1).state(), RadioState::kListen);
    }
}

TEST(ChannelReadout, AutoAckAtTheReadoutInstantSplitsTheGroup) {
    for (const sim::SchedulerKind kind : kBackends) {
        ReadoutWorld w(kind, 3);
        // 24 B MPDU at 8 us/B: the readout takes exactly the 192 us ACK
        // turnaround. Load 504 us, air 960 us: carrier down at 1464, and
        // listener 3's auto-ACK is scheduled for 1656 between the readouts
        // of 2 and 3 — it must fire between them, as one event per
        // listener would have it.
        for (NodeId id = 2; id <= 4; ++id) w.radio(id).setSpiMicrosPerByte(8.0);
        w.send(3, 1);
        // The ACK (5 + 6) * 32 = 352 us on air ends at 2008; ACK readout 32 us.
        const std::vector<Readout> expected{
            {1656, 2, FrameType::kData, 0},
            {1656, 3, FrameType::kData, 1},
            {1656, 4, FrameType::kData, 1},
            {2040, 1, FrameType::kAck, 1},
            {2040, 2, FrameType::kAck, 1},
            {2040, 4, FrameType::kAck, 1},
        };
        EXPECT_EQ(w.log, expected) << sim::schedulerKindName(kind);
        // Load, delivery, readout {2}, ACK, readout {3, 4}, ACK delivery,
        // ACK readout {1, 2, 4}.
        EXPECT_EQ(w.simulator.stats().fired, 7u) << sim::schedulerKindName(kind);
        EXPECT_EQ(w.radio(3).state(), RadioState::kListen);
    }
}

TEST(ChannelReadout, UnicastFramePlusAutoAckCostsSixEvents) {
    for (const sim::SchedulerKind kind : kBackends) {
        ReadoutWorld w(kind, 3);
        w.send(3, 1);
        // 24 B MPDU at 21 us/B: load 504, carrier down at 1464, readout
        // 504 us; the ACK goes up at 1656 and its carrier drops at 2008.
        const std::vector<Readout> expected{
            {1968, 2, FrameType::kData, 1},
            {1968, 3, FrameType::kData, 1},
            {1968, 4, FrameType::kData, 1},
            {2040, 1, FrameType::kAck, 1},
            {2040, 2, FrameType::kAck, 1},
            {2040, 4, FrameType::kAck, 1},
        };
        EXPECT_EQ(w.log, expected) << sim::schedulerKindName(kind);
        EXPECT_EQ(w.doneAt, 1464) << sim::schedulerKindName(kind);
        // SPI load, data delivery + carrier end, auto-ACK, one data readout,
        // ACK delivery + carrier end, one ACK readout. One event per
        // listener and per air-end made this 12.
        EXPECT_EQ(w.simulator.stats().fired, 6u) << sim::schedulerKindName(kind);
    }
}
