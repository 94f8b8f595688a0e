#include "tcplp/tcp/segment.hpp"

#include "tcplp/common/assert.hpp"

namespace tcplp::tcp {
namespace {
constexpr std::uint8_t kOptEnd = 0;
constexpr std::uint8_t kOptNop = 1;
constexpr std::uint8_t kOptMss = 2;
constexpr std::uint8_t kOptWindowScale = 3;
constexpr std::uint8_t kOptSackPermitted = 4;
constexpr std::uint8_t kOptSack = 5;
constexpr std::uint8_t kOptTimestamps = 8;
}  // namespace

std::size_t Segment::optionBytes() const {
    std::size_t n = 0;
    if (mssOption) n += 4;
    if (windowScale) n += 3;
    if (sackPermitted) n += 2;
    if (timestamps) n += 10;
    if (!sackBlocks.empty()) n += 2 + sackBlocks.size() * 8;
    return (n + 3) & ~std::size_t(3);  // pad to 32-bit boundary
}

PacketBuffer Segment::encode() const {
    // The wire header is at most 60 bytes (headerWords <= 15, asserted
    // below), so stage it on the stack: segment encode runs once per TCP
    // transmission and must not allocate on the datapath. The buffer is
    // sized for the raw sum of every option (64) so its bound holds even on
    // the option combinations the assert rejects.
    std::uint8_t out[64];
    std::size_t n = 0;
    auto put8 = [&](std::uint8_t v) { out[n++] = v; };
    auto put16 = [&](std::uint16_t v) {
        put8(std::uint8_t(v >> 8));
        put8(std::uint8_t(v));
    };
    auto put32 = [&](std::uint32_t v) {
        put16(std::uint16_t(v >> 16));
        put16(std::uint16_t(v));
    };
    put16(srcPort);
    put16(dstPort);
    put32(seq);
    put32(ack);
    const std::size_t headerWords = headerBytes() / 4;
    TCPLP_ASSERT(headerWords <= 15);
    put8(std::uint8_t(headerWords << 4));
    put8(flags.encode());
    put16(window);
    put16(0);  // checksum: the simulated medium models corruption as loss
    put16(0);  // urgent pointer: unsupported, as in TCPlp (§4.1)

    const std::size_t optStart = n;
    if (mssOption) {
        put8(kOptMss);
        put8(4);
        put16(*mssOption);
    }
    if (windowScale) {
        put8(kOptWindowScale);
        put8(3);
        put8(*windowScale);
    }
    if (sackPermitted) {
        put8(kOptSackPermitted);
        put8(2);
    }
    if (timestamps) {
        put8(kOptTimestamps);
        put8(10);
        put32(timestamps->value);
        put32(timestamps->echo);
    }
    if (!sackBlocks.empty()) {
        TCPLP_ASSERT(sackBlocks.size() <= 3);
        put8(kOptSack);
        put8(std::uint8_t(2 + sackBlocks.size() * 8));
        // The constant bound restates the assert for the compiler, which
        // cannot carry it into the loop and would otherwise warn that the
        // writes may run past `out`.
        for (std::size_t i = 0; i < sackBlocks.size() && i < 3; ++i) {
            put32(sackBlocks[i].begin);
            put32(sackBlocks[i].end);
        }
    }
    while ((n - optStart) % 4 != 0) put8(kOptNop);
    TCPLP_ASSERT(n == headerBytes());
    return PacketBuffer::compose(BytesView(out, n), payload.view());
}

namespace {
/// Parses header fields into `s`; returns the header length, or 0 on a
/// malformed header. Payload handling is left to the caller.
std::size_t decodeHeader(BytesView in, Segment& s) {
    if (in.size() < 20) return 0;
    s.srcPort = getU16(in, 0);
    s.dstPort = getU16(in, 2);
    s.seq = getU32(in, 4);
    s.ack = getU32(in, 8);
    const std::size_t headerLen = std::size_t(in[12] >> 4) * 4;
    if (headerLen < 20 || headerLen > in.size()) return 0;
    s.flags = Flags::decode(in[13]);
    s.window = getU16(in, 14);

    std::size_t off = 20;
    while (off < headerLen) {
        const std::uint8_t kind = in[off];
        if (kind == kOptEnd) break;
        if (kind == kOptNop) {
            ++off;
            continue;
        }
        if (off + 1 >= headerLen) return 0;
        const std::uint8_t len = in[off + 1];
        if (len < 2 || off + len > headerLen) return 0;
        switch (kind) {
            case kOptMss:
                if (len != 4) return 0;
                s.mssOption = getU16(in, off + 2);
                break;
            case kOptWindowScale:
                if (len != 3) return 0;
                s.windowScale = in[off + 2];
                break;
            case kOptSackPermitted:
                if (len != 2) return 0;
                s.sackPermitted = true;
                break;
            case kOptTimestamps:
                if (len != 10) return 0;
                s.timestamps = Timestamps{getU32(in, off + 2), getU32(in, off + 6)};
                break;
            case kOptSack: {
                if ((len - 2) % 8 != 0) return 0;
                const std::size_t count = (len - 2u) / 8;
                for (std::size_t i = 0; i < count; ++i) {
                    s.sackBlocks.push_back(SackBlock{getU32(in, off + 2 + i * 8),
                                                     getU32(in, off + 6 + i * 8)});
                }
                break;
            }
            default:
                break;  // unknown option: skip
        }
        off += len;
    }
    return headerLen;
}
}  // namespace

std::optional<Segment> Segment::decode(const PacketBuffer& in) {
    Segment s;
    const std::size_t headerLen = decodeHeader(in.view(), s);
    if (headerLen == 0) return std::nullopt;
    s.payload = in.subview(headerLen);
    return s;
}

std::optional<Segment> Segment::decode(BytesView in) {
    Segment s;
    const std::size_t headerLen = decodeHeader(in, s);
    if (headerLen == 0) return std::nullopt;
    s.payload = PacketBuffer::copyOf(in.subspan(headerLen));
    return s;
}

}  // namespace tcplp::tcp
