// App-level connection survival for the chaos workloads: a bulk sender that
// reconnects with deterministic exponential backoff when its connection
// fails (app::GoodputMeter follows the resulting resumed sessions).
//
// The paper's deployment argument (§9) is that TCP's failure handling plus a
// thin application layer is enough for multi-week LLN lifetimes: when R2
// gives up on a dead path the application reopens the connection and resumes
// from its durable log. ReconnectingBulkSender models exactly that — resume
// offset is the acked high-water mark across all previous sessions (bytes
// the peer's TCP provably delivered; anything offered-but-unacked is re-sent
// on the new connection, so the receiver may see an overlapping prefix).
// Backoff draws no RNG: fault-injection policy must never perturb the
// simulation's own random stream.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

#include "tcplp/common/bytes.hpp"
#include "tcplp/sim/simulator.hpp"
#include "tcplp/tcp/tcp.hpp"

namespace tcplp::app {

/// Saturating pattern-byte sender that survives connection failures: the
/// n-th replacement connection opens after min(2 s x 2^(n-1), 30 s), and
/// the sender gives up after 8 of them.
class ReconnectingBulkSender {
public:
    /// Fires just before each (re)connect with the absolute stream offset
    /// the new session resumes at — the receiver-side meter aligns its
    /// pattern check through this (the rigs run in one process, standing in
    /// for an app-level resume header).
    using SessionHook = std::function<void(std::size_t resumeOffset)>;

    ReconnectingBulkSender(tcp::TcpStack& stack, tcp::TcpConfig config,
                           ip6::Address dst, std::uint16_t port,
                           std::size_t totalBytes, bool reconnect)
        : stack_(stack),
          config_(config),
          dst_(dst),
          port_(port),
          total_(totalBytes),
          reconnect_(reconnect) {}

    void setOnSession(SessionHook hook) { onSession_ = std::move(hook); }

    void start() { open(); }

    /// Crash notification (reboot listener recovery edge): the stack dropped
    /// every socket silently, so no onError ever fires — treat the in-flight
    /// session as dead and start the reconnect ladder.
    void noteCrash() {
        if (socket_ == nullptr) return;
        const tcp::State s = socket_->state();
        if (s == tcp::State::kClosed || s == tcp::State::kFailed) onDead();
    }

    /// Completed re-establishments (a replacement connection that reached
    /// ESTABLISHED); the acceptance metric for the chaos scenarios.
    int reconnects() const { return reconnects_; }
    /// Replacement connections opened (a SYN that dies during an outage
    /// counts here but not in reconnects()).
    int reconnectAttempts() const { return attempts_; }
    bool gaveUp() const { return gaveUp_; }

    /// Bytes the peer's TCP has acknowledged across every session.
    std::size_t ackedBytes() const {
        return base_ + (socket_ != nullptr ? socket_->stats().bytesAcked : 0);
    }

    const tcp::TcpSocket* socket() const { return socket_; }

    /// Transport stats summed over every dead session plus the live one.
    tcp::TcpStats aggregateStats() const {
        tcp::TcpStats out = dead_;
        if (socket_ != nullptr) accumulate(out, socket_->stats());
        return out;
    }

private:
    void open() {
        if (onSession_) onSession_(base_);
        offered_ = 0;
        closed_ = false;
        const bool isReconnect = attempts_ > 0;
        socket_ = &stack_.createSocket(config_);
        socket_->setOnConnected([this, isReconnect] {
            if (isReconnect) ++reconnects_;
            pump();
        });
        socket_->setOnSendSpace([this] { pump(); });
        socket_->setOnError([this] { onDead(); });
        socket_->connect(dst_, port_);
    }

    void pump() {
        while (base_ + offered_ < total_) {
            const std::size_t chunk =
                std::min<std::size_t>(512, total_ - base_ - offered_);
            std::uint8_t data[512];
            patternBytesInto(base_ + offered_, chunk, data);
            const std::size_t n = socket_->send(BytesView(data, chunk));
            if (n == 0) return;
            offered_ += n;
        }
        if (!closed_) {
            closed_ = true;
            socket_->close();
        }
    }

    void onDead() {
        if (socket_ == nullptr) return;
        accumulate(dead_, socket_->stats());
        base_ += socket_->stats().bytesAcked;
        // The failed socket stays parked in the stack (kClosed/kFailed is
        // ignored by demux); destroying it here would free the object whose
        // callback frame we may be inside.
        socket_ = nullptr;
        if (!reconnect_ || attempts_ >= kMaxReconnects || base_ >= total_) {
            gaveUp_ = base_ < total_;
            return;
        }
        ++attempts_;
        sim::Time backoff = kBackoffInitial;
        for (int i = 1; i < attempts_ && backoff < kBackoffMax; ++i)
            backoff = std::min(backoff * 2, kBackoffMax);
        stack_.simulator().schedule(backoff, [this] {
            if (socket_ == nullptr) open();
        });
    }

    static void accumulate(tcp::TcpStats& into, const tcp::TcpStats& s) {
        into.segsSent += s.segsSent;
        into.segsReceived += s.segsReceived;
        into.bytesSent += s.bytesSent;
        into.bytesAcked += s.bytesAcked;
        into.retransmissions += s.retransmissions;
        into.fastRetransmissions += s.fastRetransmissions;
        into.sackRetransmissions += s.sackRetransmissions;
        into.timeouts += s.timeouts;
        into.dupAcksReceived += s.dupAcksReceived;
        into.zeroWindowProbes += s.zeroWindowProbes;
        into.rexmitNotifications += s.rexmitNotifications;
        into.rexmitGiveUps += s.rexmitGiveUps;
        into.persistGiveUps += s.persistGiveUps;
        into.keepAliveProbesSent += s.keepAliveProbesSent;
        into.keepAliveGiveUps += s.keepAliveGiveUps;
    }

    static constexpr sim::Time kBackoffInitial = 2 * sim::kSecond;
    static constexpr sim::Time kBackoffMax = 30 * sim::kSecond;
    static constexpr int kMaxReconnects = 8;

    tcp::TcpStack& stack_;
    tcp::TcpConfig config_;
    ip6::Address dst_;
    std::uint16_t port_;
    std::size_t total_;
    bool reconnect_;
    SessionHook onSession_;

    tcp::TcpSocket* socket_ = nullptr;
    std::size_t base_ = 0;     // absolute offset the current session starts at
    std::size_t offered_ = 0;  // bytes queued into the current session
    bool closed_ = false;
    int attempts_ = 0;
    int reconnects_ = 0;
    bool gaveUp_ = false;
    tcp::TcpStats dead_;  // summed stats of every failed session
};

}  // namespace tcplp::app
