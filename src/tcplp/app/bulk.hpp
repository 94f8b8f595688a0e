// Bulk-transfer workloads for the throughput studies (§6, §7): a sender that
// keeps the TCP send buffer full of pattern bytes, and a receiver that
// verifies content and measures goodput, across resumed sessions too.
#pragma once

#include <cstdint>
#include <functional>

#include "tcplp/common/bytes.hpp"
#include "tcplp/sim/simulator.hpp"
#include "tcplp/tcp/tcp.hpp"
#include "tcplp/transport/embedded_tcp.hpp"

namespace tcplp::app {

/// Saturating sender over full-scale TCP.
class BulkSender {
public:
    BulkSender(tcp::TcpSocket& socket, std::size_t totalBytes)
        : socket_(socket), total_(totalBytes) {
        socket_.setOnSendSpace([this] { pump(); });
        socket_.setOnConnected([this] { pump(); });
    }

    void pump() {
        while (offset_ < total_) {
            const std::size_t chunk = std::min<std::size_t>(512, total_ - offset_);
            std::uint8_t data[512];
            patternBytesInto(offset_, chunk, data);
            const std::size_t n = socket_.send(BytesView(data, chunk));
            if (n == 0) return;
            offset_ += n;
        }
        if (offset_ >= total_ && !closed_) {
            closed_ = true;
            socket_.close();
        }
    }

    std::size_t offered() const { return offset_; }

private:
    tcp::TcpSocket& socket_;
    std::size_t total_;
    std::size_t offset_ = 0;
    bool closed_ = false;
};

/// Saturating sender over the stop-and-wait embedded baselines.
class EmbeddedBulkSender {
public:
    EmbeddedBulkSender(transport::EmbeddedTcpSocket& socket, std::size_t totalBytes)
        : socket_(socket), total_(totalBytes) {
        socket_.setOnConnected([this] { pump(); });
    }

    /// Must be called periodically (the simple stack has no space callback).
    void pump() {
        while (offset_ < total_) {
            const std::size_t chunk = std::min<std::size_t>(256, total_ - offset_);
            std::uint8_t data[256];
            patternBytesInto(offset_, chunk, data);
            const std::size_t n = socket_.send(BytesView(data, chunk));
            if (n == 0) return;
            offset_ += n;
        }
    }

    std::size_t offered() const { return offset_; }

private:
    transport::EmbeddedTcpSocket& socket_;
    std::size_t total_;
    std::size_t offset_ = 0;
};

/// Receiver-side goodput meter: verifies application bytes against the
/// pattern stream and measures goodput between the first delivery and the
/// last fresh byte. A reconnecting transfer (app/reconnect.hpp) resumes each
/// session at the sender's acked offset, which may sit below bytes already
/// delivered (delivered-but-unacked data is re-sent): content is verified
/// against the absolute pattern offset, and only bytes above the high-water
/// mark count as fresh progress.
class GoodputMeter {
public:
    explicit GoodputMeter(sim::Simulator& simulator) : simulator_(simulator) {}

    /// Next session's data starts at absolute stream offset `offset`.
    void beginSession(std::size_t offset) { at_ = offset; }

    /// Fires whenever the high-water mark advances, with the fresh byte
    /// count (drives the chaos runner's recovery metrics and watchdog).
    void setOnProgress(std::function<void(std::size_t freshBytes)> cb) {
        onProgress_ = std::move(cb);
    }

    void onData(BytesView data) {
        if (!started_) {
            started_ = true;
            first_ = simulator_.now();
        }
        contentOk_ = contentOk_ && matchesPattern(at_, data);
        at_ += data.size();
        if (at_ > highWater_) {
            const std::size_t fresh = at_ - highWater_;
            highWater_ = at_;
            last_ = simulator_.now();
            if (onProgress_) onProgress_(fresh);
        }
    }

    /// Unique application bytes delivered (the high-water mark).
    std::size_t bytes() const { return highWater_; }
    bool contentOk() const { return contentOk_; }
    sim::Time firstAt() const { return first_; }
    sim::Time lastAt() const { return last_; }

    /// Goodput in kb/s over the delivery interval.
    double goodputKbps() const {
        const sim::Time span = last_ - first_;
        if (span <= 0) return 0.0;
        return double(highWater_) * 8.0 / 1000.0 / sim::toSeconds(span);
    }

private:
    sim::Simulator& simulator_;
    std::function<void(std::size_t)> onProgress_;
    std::size_t at_ = 0;         // absolute offset of the next expected byte
    std::size_t highWater_ = 0;  // unique bytes delivered
    bool contentOk_ = true;
    bool started_ = false;
    sim::Time first_ = 0;
    sim::Time last_ = 0;
};

}  // namespace tcplp::app
