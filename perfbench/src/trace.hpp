// Span tracing from outside the library.
//
// The traced run wraps the public boundaries between layers: an ip6::NetIf
// decorator between a TcpStack and its node or pipe endpoint (tcp.input
// around the stack's protocol handler, net.send around sendPacket), the
// MAC receive callback of every radio node (mesh.rx around
// Node::macInput), and the socket callbacks the rig installs (app). Spans
// nest mesh.rx -> tcp.input -> app -> net.send; each one's self time is its
// duration minus the time its children cover. Spans stay in memory until
// the run ends. Nothing here changes what the simulation does: the
// decorators forward every call, and the rigs check that traced and
// untraced runs end with the same RNG digest.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "tcplp/ip6/netif.hpp"
#include "tcplp/mesh/node.hpp"

namespace perfbench {

enum class Layer : std::uint8_t { kMeshRx, kTcpInput, kApp, kNetSend };
constexpr std::size_t kLayerCount = 4;
const char* layerName(Layer layer);

inline std::int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span {
    std::int64_t startNs = 0;  // relative to the tracer's origin
    std::int64_t durNs = 0;
    std::int64_t selfNs = 0;   // durNs minus the time child spans cover
    std::int32_t parent = -1;  // index of the enclosing span, -1 at the root
    Layer layer = Layer::kApp;
};

class Tracer {
public:
    Tracer() : origin_(nowNs()) {}

    void begin(Layer layer) {
        Span s;
        s.layer = layer;
        s.parent = open_.empty() ? -1 : open_.back().index;
        open_.push_back(Open{std::int32_t(spans_.size()), 0, 0});
        spans_.push_back(s);
        open_.back().startNs = nowNs();
    }

    void end() {
        const std::int64_t t = nowNs();
        const Open o = open_.back();
        open_.pop_back();
        Span& s = spans_[std::size_t(o.index)];
        s.startNs = o.startNs - origin_;
        s.durNs = t - o.startNs;
        s.selfNs = s.durNs - o.childNs;
        if (!open_.empty()) open_.back().childNs += s.durNs;
    }

    class Scope {
    public:
        Scope(Tracer& tracer, Layer layer) : tracer_(tracer) { tracer_.begin(layer); }
        ~Scope() { tracer_.end(); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer& tracer_;
    };

    const std::vector<Span>& spans() const { return spans_; }
    void reserve(std::size_t n) { spans_.reserve(n); }

    /// Writes every span as one CSV row (index, parent, layer, start, dur,
    /// self, all in ns). Returns false if the file cannot be written.
    bool writeCsv(const std::string& path) const;

private:
    struct Open {
        std::int32_t index;
        std::int64_t startNs;
        std::int64_t childNs;
    };
    std::int64_t origin_;
    std::vector<Open> open_;
    std::vector<Span> spans_;
};

/// Per-layer digest of one traced run.
struct LayerTimes {
    std::array<std::int64_t, kLayerCount> selfNs{};
    std::array<std::uint64_t, kLayerCount> calls{};
    std::array<std::vector<double>, kLayerCount> durNs{};  // sorted
    std::int64_t rootNs = 0;  // time covered by root spans (= all self time)
};
LayerTimes summarize(const Tracer& tracer);

/// NetIf decorator placed between a TcpStack and the interface it would
/// otherwise use. Forwards every call; adds the tcp.input and net.send spans.
class TracedNetIf final : public tcplp::ip6::NetIf {
public:
    TracedNetIf(tcplp::ip6::NetIf& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

    tcplp::ip6::Address address() const override { return inner_.address(); }
    void sendPacket(tcplp::ip6::Packet packet) override {
        Tracer::Scope span(tracer_, Layer::kNetSend);
        inner_.sendPacket(std::move(packet));
    }
    void registerProtocol(std::uint8_t nextHeader, ProtocolHandler handler) override {
        inner_.registerProtocol(
            nextHeader, [tracer = &tracer_, handler = std::move(handler)](
                            const tcplp::ip6::Packet& p) {
                Tracer::Scope span(*tracer, Layer::kTcpInput);
                handler(p);
            });
    }
    tcplp::sim::Simulator& simulator() override { return inner_.simulator(); }
    void setExpectingResponse(bool expecting) override {
        inner_.setExpectingResponse(expecting);
    }

private:
    tcplp::ip6::NetIf& inner_;
    Tracer& tracer_;
};

/// Points the node's MAC receive callback (the SleepyMac's on a leaf, the
/// CsmaMac's on a router) at a mesh.rx span around Node::macInput. No-op on
/// the radio-less cloud host.
void traceMeshRx(tcplp::mesh::Node& node, Tracer& tracer);

/// Runs `fn` inside an app span when traced, bare otherwise.
template <typename F>
void appCall(Tracer* tracer, F&& fn) {
    if (tracer == nullptr) {
        fn();
        return;
    }
    Tracer::Scope span(*tracer, Layer::kApp);
    fn();
}

}  // namespace perfbench
