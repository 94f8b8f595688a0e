#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

const char* layerName(Layer layer) {
    switch (layer) {
        case Layer::kMeshRx: return "mesh.rx";
        case Layer::kTcpInput: return "tcp.input";
        case Layer::kApp: return "app";
        case Layer::kNetSend: return "net.send";
    }
    return "?";
}

bool Tracer::writeCsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "index,parent,layer,start_ns,dur_ns,self_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f, "%zu,%d,%s,%lld,%lld,%lld\n", i, s.parent, layerName(s.layer),
                     static_cast<long long>(s.startNs), static_cast<long long>(s.durNs),
                     static_cast<long long>(s.selfNs));
    }
    return std::fclose(f) == 0;
}

LayerTimes summarize(const Tracer& tracer) {
    LayerTimes t;
    for (const Span& s : tracer.spans()) {
        const std::size_t l = std::size_t(s.layer);
        t.selfNs[l] += s.selfNs;
        ++t.calls[l];
        t.durNs[l].push_back(double(s.durNs));
        if (s.parent < 0) t.rootNs += s.durNs;
    }
    for (auto& d : t.durNs) std::sort(d.begin(), d.end());
    return t;
}

void traceMeshRx(tcplp::mesh::Node& node, Tracer& tracer) {
    auto rx = [&node, &tracer](tcplp::phy::NodeId src, const tcplp::PacketBuffer& payload) {
        Tracer::Scope span(tracer, Layer::kMeshRx);
        node.macInput(src, payload);
    };
    if (tcplp::mac::SleepyMac* sleepy = node.sleepyMac()) {
        sleepy->setReceiveCallback(rx);
    } else if (tcplp::mac::CsmaMac* mac = node.macLayer()) {
        mac->setReceiveCallback(rx);
    }
}

}  // namespace perfbench
