// Receive buffer with in-place reassembly queue (paper §4.3.2, Figure 1b).
//
// A flat circular buffer sized at compile/construct time holds the
// in-sequence stream; out-of-order segments are written directly into the
// space past the received data — their eventual position — and a bitmap
// records which of those bytes are valid. When the gap fills, the contiguous
// run is "committed" into the in-sequence region without any copying.
//
// This gives deterministic memory use (the paper's motivation for rejecting
// FreeBSD's mbuf-chain buffers): buffer space is reserved up front and no
// packet-heap allocation happens on the receive path.
//
// The bitmap is indexed by the ring's physical slot, not by offset from
// rcv_nxt, so committing a run only clears its bits — nothing shifts — and
// a running count of parked bytes makes outOfOrderBytes() O(1). Every
// per-segment operation costs O(segment bytes / 64) plus, for SACK, the
// distance to the last parked byte / 64; none grows with the capacity.
#pragma once

#include <array>
#include <cstdint>

#include "tcplp/common/bitmap.hpp"
#include "tcplp/common/ring_buffer.hpp"

namespace tcplp::tcp {

struct RecvRange {
    std::size_t begin;  // offset past rcv_nxt
    std::size_t end;
};

/// Up to three SACK ranges (RFC 2018 fits at most three blocks beside the
/// timestamp option), filled in place so emitting a segment allocates
/// nothing.
struct SackRanges {
    static constexpr std::size_t kMax = 3;
    std::array<RecvRange, kMax> ranges{};
    std::size_t count = 0;

    std::size_t size() const { return count; }
    const RecvRange& operator[](std::size_t i) const { return ranges[i]; }
    const RecvRange* begin() const { return ranges.data(); }
    const RecvRange* end() const { return ranges.data() + count; }
};

class RecvBuffer {
public:
    explicit RecvBuffer(std::size_t capacity) : ring_(capacity), oooMap_(capacity) {}

    std::size_t capacity() const { return ring_.capacity(); }
    /// In-sequence bytes awaiting the application.
    std::size_t readable() const { return ring_.size(); }
    /// Advertisable receive window: free space not holding in-seq data.
    std::size_t window() const { return ring_.capacity() - ring_.size(); }

    /// Inserts segment data whose first byte is `offset` bytes past rcv_nxt
    /// (offset 0 = exactly the next expected byte). Data beyond the window
    /// is trimmed. Returns the number of bytes newly in sequence (the amount
    /// rcv_nxt advances).
    std::size_t insert(std::size_t offset, BytesView data) {
        const std::size_t win = window();
        if (offset >= win) return 0;
        const std::size_t n = std::min(data.size(), win - offset);
        if (n == 0) return 0;

        ring_.writeAt(offset, BytesView(data.data(), n));
        forEachSlotRange(offset, offset + n, [this](std::size_t b, std::size_t e) {
            oooBytes_ += oooMap_.setRange(b, e);
        });

        const std::size_t run = findPast(0, win, /*set=*/false);
        if (run > 0) {
            forEachSlotRange(0, run, [this](std::size_t b, std::size_t e) {
                oooMap_.clearRange(b, e);
            });
            oooBytes_ -= run;
            ring_.commit(run);
        }
        checkInvariants();
        return run;
    }

    /// Application read: removes up to `n` in-sequence bytes.
    Bytes read(std::size_t n) { return ring_.read(n); }

    /// read() into a reusable scratch vector (allocation-free once warm).
    std::size_t readInto(std::size_t n, Bytes& out) { return ring_.readInto(n, out); }

    /// SACK blocks describing buffered out-of-order data, as offsets past
    /// rcv_nxt (most recently useful first is approximated by lowest-offset
    /// first). The scan stops once the ranges found cover every parked byte.
    SackRanges sackRanges() const {
        SackRanges out;
        forEachParkedRun([&out](std::size_t b, std::size_t e) {
            out.ranges[out.count++] = RecvRange{b, e};
            return out.count < SackRanges::kMax;
        });
        return out;
    }

    /// Total out-of-order bytes currently parked past the in-seq data.
    std::size_t outOfOrderBytes() const { return oooBytes_; }

    /// Grows the buffer in place (receive-buffer autotuning). In-sequence
    /// bytes and parked out-of-order bytes are preserved at their offsets
    /// past rcv_nxt; only the advertisable window gets larger. No-op if
    /// `newCapacity` does not exceed the current capacity.
    void grow(std::size_t newCapacity) {
        if (newCapacity <= capacity()) return;
        // RingBuffer::grow re-linearises the ring from its front, so the
        // byte `o` past rcv_nxt moves to slot readable() + o; its bit moves
        // with it.
        Bitmap next(newCapacity);
        forEachParkedRun([this, &next](std::size_t b, std::size_t e) {
            next.setRange(readable() + b, readable() + e);
            return true;
        });
        ring_.grow(newCapacity);
        oooMap_ = std::move(next);
        checkInvariants();
    }

private:
    /// Calls fn(slotBegin, slotEnd) for the one or two physical slot ranges
    /// holding the bytes [begin, end) past rcv_nxt.
    template <typename Fn>
    void forEachSlotRange(std::size_t begin, std::size_t end, Fn&& fn) const {
        if (begin < end) forEachSlot(ring_.slot(readable() + begin), end - begin, fn);
    }

    /// Calls fn(slotBegin, slotEnd) for the `len` slots from `first` on,
    /// split where the ring wraps.
    template <typename Fn>
    void forEachSlot(std::size_t first, std::size_t len, Fn&& fn) const {
        const std::size_t head = std::min(len, capacity() - first);
        fn(first, first + head);
        if (head < len) fn(0, len - head);
    }

    /// Calls fn(begin, end) for each run of parked bytes, as offsets past
    /// rcv_nxt, lowest first, until fn returns false or the runs visited
    /// cover every parked byte.
    template <typename Fn>
    void forEachParkedRun(Fn&& fn) const {
        const std::size_t limit = window();
        std::size_t covered = 0;
        for (std::size_t i = 0; covered < oooBytes_;) {
            const std::size_t b = findPast(i, limit, /*set=*/true);
            TCPLP_ASSERT(b < limit);
            const std::size_t e = findPast(b, limit, /*set=*/false);
            if (!fn(b, e)) return;
            covered += e - b;
            i = e;
        }
    }

    /// First offset in [from, limit) past rcv_nxt whose bit equals `set`,
    /// or `limit` if there is none.
    std::size_t findPast(std::size_t from, std::size_t limit, bool set) const {
        std::size_t found = limit;
        std::size_t done = from;
        forEachSlotRange(from, limit, [&](std::size_t b, std::size_t e) {
            if (found != limit) return;
            const std::size_t at =
                set ? oooMap_.findNextSet(b, e) : oooMap_.findNextClear(b, e);
            if (at < e) found = done + (at - b);
            done += e - b;
        });
        return found;
    }

    /// Debug builds check the buffer's accounting after every mutation;
    /// the checks cost O(capacity), so Release builds compile them out.
    void checkInvariants() const {
#ifndef NDEBUG
        TCPLP_ASSERT(oooBytes_ == oooMap_.popcount());
        // No bit is set in the readable (committed) region of the ring.
        if (readable() == 0) return;
        forEachSlot(ring_.slot(0), readable(), [this](std::size_t b, std::size_t e) {
            TCPLP_ASSERT(oooMap_.findNextSet(b, e) == e);
        });
#endif
    }

    RingBuffer ring_;
    Bitmap oooMap_;        // indexed by ring slot; set = parked out-of-order byte
    std::size_t oooBytes_ = 0;  // == oooMap_.popcount()
};

}  // namespace tcplp::tcp
