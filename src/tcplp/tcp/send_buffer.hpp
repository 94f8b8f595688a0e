// Zero-copy send buffer (paper §4.3.1).
//
// The buffer is a linked list of nodes, each referencing a span of
// application data. When the application hands over an immutable chunk
// (`appendShared`, the paper's Lua-string case), the node simply points at
// the caller's storage — no copy, so "the memory allocated to the send
// buffer can be very small: it only needs to contain a few nodes of a linked
// list". Mutable writes (`append`, the C-API case on RIOT/OpenThread) are
// copied into owned chunks, costing the "few kilobytes of additional memory"
// the paper reports for that platform. Owned chunks live in slab-pooled
// PacketBuffer storage and the node FIFO is a RingDeque, so a steady-state
// send/ack cycle recycles storage instead of hitting the heap.
//
// Byte addressing is stream-relative: offset 0 is the first unacknowledged
// byte (snd_una). ack() slides the origin forward and releases whole nodes.
// A cursor remembers the node the last read touched, so (re)transmissions
// walk only the nodes between it and the requested offset, not the list
// from snd_una.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>

#include "tcplp/common/assert.hpp"
#include "tcplp/common/bytes.hpp"
#include "tcplp/common/packet_buffer.hpp"
#include "tcplp/common/ring_deque.hpp"

namespace tcplp::tcp {

class SendBuffer {
public:
    explicit SendBuffer(std::size_t capacity) : capacity_(capacity) {}

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const { return size_; }
    std::size_t free() const { return capacity_ - size_; }

    /// Copies as much of `data` as fits; returns bytes accepted.
    std::size_t append(BytesView data) {
        const std::size_t n = std::min(data.size(), free());
        if (n == 0) return 0;
        Node node;
        node.owned = PacketBuffer::copyOf(BytesView(data.data(), n), /*headroom=*/0);
        node.len = n;
        nodes_.push_back(std::move(node));
        size_ += n;
        return n;
    }

    /// Zero-copy append: the node aliases `data` (which the caller promises
    /// not to mutate, mirroring immutable Lua strings). Returns bytes
    /// accepted (0 if the chunk does not fit entirely — aliased chunks are
    /// not split so the zero-copy property is preserved).
    std::size_t appendShared(std::shared_ptr<const Bytes> data) {
        const std::size_t n = data->size();
        if (n > free()) return 0;
        Node node;
        node.shared = std::move(data);
        node.len = n;
        nodes_.push_back(std::move(node));
        size_ += n;
        return n;
    }

    /// Assembles `len` bytes starting `offset` past the first unacked byte
    /// (for [re]transmission). Clamps to available data.
    Bytes read(std::size_t offset, std::size_t len) const {
        Bytes out;
        if (offset >= size_) return out;
        len = std::min(len, size_ - offset);
        out.resize(len);
        gather(offset, len, out.data());
        return out;
    }

    /// read() into slab-pooled PacketBuffer storage — the transmission path
    /// uses this so segment payload assembly allocates nothing once the
    /// per-simulation pool is warm.
    PacketBuffer readSegment(std::size_t offset, std::size_t len) const {
        if (offset >= size_) return PacketBuffer::allocate(0);
        len = std::min(len, size_ - offset);
        PacketBuffer out = PacketBuffer::allocate(len);
        gather(offset, len, out.mutableData());
        return out;
    }

    /// Releases `n` acknowledged bytes from the front.
    void ack(std::size_t n) {
        TCPLP_ASSERT(n <= size_);
        size_ -= n;
        std::size_t popped = 0;
        for (std::size_t left = n; left > 0 && !nodes_.empty();) {
            Node& head = nodes_.front();
            if (head.len <= left) {
                left -= head.len;
                nodes_.pop_front();
                ++popped;
            } else {
                head.off += left;
                head.len -= left;
                left = 0;
            }
        }
        // Nodes past the new front keep their place in the stream; the
        // front node (trimmed or not) now starts at offset 0.
        if (cursor_.node > popped) {
            cursor_.node -= popped;
            cursor_.start -= n;
        } else {
            cursor_ = Cursor{};
        }
        checkCursor();
    }

    std::size_t nodeCount() const { return nodes_.size(); }

    /// Bytes of storage owned by the buffer itself (copied chunks only) —
    /// the quantity the zero-copy design minimizes.
    std::size_t ownedBytes() const {
        std::size_t n = 0;
        for (const Node& node : nodes_)
            if (node.owned.valid()) n += node.owned.size();
        return n;
    }

private:
    struct Node {
        // Exactly one of these holds the chunk: `owned` for copied data
        // (slab-pooled), `shared` for aliased application storage.
        PacketBuffer owned;
        std::shared_ptr<const Bytes> shared;
        std::size_t off = 0;
        std::size_t len = 0;
        const std::uint8_t* bytes() const {
            return owned.valid() ? owned.data() : shared->data();
        }
    };

    /// A node index and the stream offset at which that node starts.
    struct Cursor {
        std::size_t node = 0;
        std::size_t start = 0;
    };

    /// Copies [offset, offset + len) into `dst`; requires offset + len <=
    /// size(). Moves the cursor from wherever the last read left it, so a
    /// read costs the nodes between the two offsets plus the nodes copied.
    void gather(std::size_t offset, std::size_t len, std::uint8_t* dst) const {
        if (len == 0) return;
        TCPLP_ASSERT(offset + len <= size_);
        while (cursor_.start > offset) cursor_.start -= nodes_[--cursor_.node].len;
        while (cursor_.start + nodes_[cursor_.node].len <= offset)
            cursor_.start += nodes_[cursor_.node++].len;
        std::size_t written = 0;
        for (;;) {
            const Node& node = nodes_[cursor_.node];
            const std::size_t skip = offset + written - cursor_.start;
            const std::size_t want = std::min(node.len - skip, len - written);
            if (want > 0) std::memcpy(dst + written, node.bytes() + node.off + skip, want);
            written += want;
            if (written == len) break;
            cursor_.start += node.len;
            ++cursor_.node;
        }
        checkCursor();
    }

    /// Debug builds check that the cursor's offset is the sum of the node
    /// lengths before it (O(nodes), so Release builds compile it out).
    void checkCursor() const {
#ifndef NDEBUG
        std::size_t start = 0;
        for (std::size_t i = 0; i < cursor_.node; ++i) start += nodes_[i].len;
        TCPLP_ASSERT(start == cursor_.start);
        TCPLP_ASSERT(cursor_.node <= nodes_.size());
#endif
    }

    std::size_t capacity_;
    std::size_t size_ = 0;
    RingDeque<Node> nodes_;
    mutable Cursor cursor_;  // moved by const reads; rebased by ack()
};

}  // namespace tcplp::tcp
