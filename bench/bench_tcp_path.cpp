// TCP data-path cost bench: host ns per delivered segment at small and
// large buffers (own main, not a registry scenario — its rows are wall
// clock only).
//
// One bulk flow crosses harness::Pipe (100 Mb/s, 5 ms one way, MSS 1220,
// SACK + timestamps + window scaling) with the send and receive buffers both
// at 16 KiB, then both at 1 MiB. Two streams run at each size:
//
//  - in order: the pipe delivers every segment in sequence;
//  - reordered: every 100th data segment swaps places with the data segment
//    sent after it (1% of segments, deterministic), so the receiver parks
//    out-of-order bytes, emits SACK blocks and commits runs that wrap the
//    ring — the paths that used to cost O(buffer) per segment.
//
// Segments are counted by delivered payload, so retransmissions would show
// up as cost. Per-segment cost must not grow with the buffer: CI asserts
// ns_per_seg_1MiB / ns_per_seg_16KiB <= 2.0 for both streams, a ratio that
// does not depend on the host. Each configuration runs `kRepeats` times,
// interleaved; the best run is reported with the spread (max - best) / best.
//
// The last stdout line is the BENCH_tcp.json format:
//
//   {"bench":"tcp_path","host":{...},"inorder_ns_per_seg_16KiB":...,...}
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "tcplp/app/bulk.hpp"
#include "tcplp/harness/pipe.hpp"
#include "tcplp/tcp/tcp.hpp"

#ifndef TCPLP_BUILD_TYPE
#define TCPLP_BUILD_TYPE "unknown"
#endif

namespace {

using namespace tcplp;

constexpr std::uint16_t kMss = 1220;
constexpr std::size_t kTotalBytes = 16u << 20;
constexpr std::uint64_t kSwapEvery = 100;
constexpr int kRepeats = 5;

/// Sender-side NetIf that swaps every `every`-th data segment with the next
/// data segment. A held segment with no successor within `kMaxHold` (the
/// sender ran out of window) goes out alone.
class SwappingNetIf final : public ip6::NetIf {
public:
    SwappingNetIf(ip6::NetIf& inner, std::uint64_t every)
        : inner_(inner), every_(every), flush_(inner.simulator(), [this] { release(); }) {}

    ip6::Address address() const override { return inner_.address(); }
    sim::Simulator& simulator() override { return inner_.simulator(); }
    void registerProtocol(std::uint8_t nextHeader, ProtocolHandler handler) override {
        inner_.registerProtocol(nextHeader, std::move(handler));
    }

    void sendPacket(ip6::Packet packet) override {
        // A TCP header is at most 60 bytes: anything longer carries data.
        const bool data = packet.payload.size() > 60;
        if (data && held_) {
            inner_.sendPacket(std::move(packet));
            release();
        } else if (data && every_ > 0 && ++dataPackets_ % every_ == 0) {
            held_ = std::move(packet);
            flush_.start(kMaxHold);
        } else {
            inner_.sendPacket(std::move(packet));
        }
    }

private:
    static constexpr sim::Time kMaxHold = sim::kMillisecond;

    void release() {
        flush_.stop();
        if (!held_) return;
        ip6::Packet p = std::move(*held_);
        held_.reset();
        inner_.sendPacket(std::move(p));
    }

    ip6::NetIf& inner_;
    std::uint64_t every_;
    std::uint64_t dataPackets_ = 0;
    std::optional<ip6::Packet> held_;
    sim::Timer flush_;
};

struct RunResult {
    double nsPerSeg = 0.0;
    std::uint64_t dupAcks = 0;
    std::uint64_t rexmits = 0;
};

RunResult runFlow(std::size_t bufferBytes, bool reorder) {
    sim::Simulator simulator(sim::SimConfig{1});
    harness::PipeConfig pc;
    pc.bandwidthBps = 100e6;
    pc.oneWayDelay = 5 * sim::kMillisecond;
    harness::Pipe pipe(simulator, pc);
    SwappingNetIf clientIf(pipe.a(), reorder ? kSwapEvery : 0);
    tcp::TcpStack clientStack(clientIf);
    tcp::TcpStack serverStack(pipe.b());

    tcp::TcpConfig cfg;
    cfg.mss = kMss;
    cfg.windowScaling = true;
    cfg.sendBufferBytes = bufferBytes;
    cfg.recvBufferBytes = bufferBytes;

    // Counts delivered bytes and spot-checks each chunk's first byte
    // against the stream pattern (a full check would cost more per segment
    // than the TCP path being measured).
    std::size_t delivered = 0;
    bool contentOk = true;
    serverStack.listen(80, cfg, [&](tcp::TcpSocket& s) {
        s.setOnData([&](BytesView d) {
            contentOk = contentOk && !d.empty() && d[0] == patternByteAt(delivered);
            delivered += d.size();
        });
        s.setOnPeerFin([&s] { s.close(); });
    });
    tcp::TcpSocket& client = clientStack.createSocket(cfg);
    app::BulkSender sender(client, kTotalBytes);
    client.connect(pipe.b().address(), 80);

    const auto t0 = std::chrono::steady_clock::now();
    simulator.run();
    const double ns = double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count());
    if (delivered != kTotalBytes || !contentOk) {
        std::fprintf(stderr, "tcp_path: flow at %zu B buffers (%s) delivered %zu of %zu bytes%s\n",
                     bufferBytes, reorder ? "reordered" : "in order", delivered, kTotalBytes,
                     contentOk ? "" : ", content off the pattern");
        std::exit(1);
    }
    RunResult r;
    r.nsPerSeg = ns / (double(kTotalBytes) / kMss);
    r.dupAcks = client.stats().dupAcksReceived;
    r.rexmits = client.stats().retransmissions;
    return r;
}

std::string cpuModel() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0) continue;
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos && colon + 2 <= line.size()) return line.substr(colon + 2);
    }
    return "unknown";
}

std::string compiler() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

struct Config {
    const char* stream;
    const char* size;
    std::size_t bytes;
    bool reorder;
};

}  // namespace

int main() {
    const Config configs[] = {
        {"inorder", "16KiB", 16u << 10, false},
        {"inorder", "1MiB", 1u << 20, false},
        {"reorder", "16KiB", 16u << 10, true},
        {"reorder", "1MiB", 1u << 20, true},
    };
    constexpr std::size_t kConfigs = std::size(configs);
    std::vector<double> samples[kConfigs];
    RunResult last[kConfigs];
    for (int rep = 0; rep < kRepeats; ++rep) {
        for (std::size_t c = 0; c < kConfigs; ++c) {
            last[c] = runFlow(configs[c].bytes, configs[c].reorder);
            samples[c].push_back(last[c].nsPerSeg);
        }
    }

    std::printf("%-8s %-6s %12s %8s %8s %8s\n", "stream", "buffer", "best ns/seg", "spread",
                "dupacks", "rexmits");
    double best[kConfigs];
    double spread[kConfigs];
    for (std::size_t c = 0; c < kConfigs; ++c) {
        const auto [lo, hi] = std::minmax_element(samples[c].begin(), samples[c].end());
        best[c] = *lo;
        spread[c] = (*hi - *lo) / *lo;
        std::printf("%-8s %-6s %12.1f %7.1f%% %8llu %8llu\n", configs[c].stream, configs[c].size,
                    best[c], spread[c] * 100.0, (unsigned long long)last[c].dupAcks,
                    (unsigned long long)last[c].rexmits);
    }

    std::string json = "{\"bench\":\"tcp_path\",\"host\":{\"cpu\":\"" + cpuModel() +
                       "\",\"cores\":" + std::to_string(std::thread::hardware_concurrency()) +
                       ",\"compiler\":\"" + compiler() + "\",\"build\":\"" TCPLP_BUILD_TYPE "\"}";
    char buf[256];
    std::snprintf(buf, sizeof buf, ",\"repeats\":%d,\"mss\":%u,\"bytes\":%zu", kRepeats,
                  unsigned(kMss), kTotalBytes);
    json += buf;
    for (std::size_t c = 0; c < kConfigs; ++c) {
        std::snprintf(buf, sizeof buf,
                      ",\"%s_ns_per_seg_%s\":%.1f,\"%s_spread_%s\":%.3f,"
                      "\"%s_dupacks_%s\":%llu,\"%s_rexmits_%s\":%llu",
                      configs[c].stream, configs[c].size, best[c], configs[c].stream,
                      configs[c].size, spread[c], configs[c].stream, configs[c].size,
                      (unsigned long long)last[c].dupAcks, configs[c].stream, configs[c].size,
                      (unsigned long long)last[c].rexmits);
        json += buf;
    }
    for (std::size_t c = 0; c < kConfigs; c += 2) {
        std::snprintf(buf, sizeof buf, ",\"%s_ratio\":%.3f", configs[c].stream,
                      best[c + 1] / best[c]);
        json += buf;
    }
    std::printf("%s}\n", json.c_str());
    return 0;
}
