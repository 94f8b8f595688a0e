// Fixed-capacity circular byte buffer.
//
// This is the storage primitive behind TCPlp's receive buffer (the paper's
// "flat array-based circular buffer", section 4.3.2): capacity is reserved
// up front, so memory use is deterministic regardless of how fragmented the
// arriving byte stream is.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "tcplp/common/assert.hpp"
#include "tcplp/common/bytes.hpp"

namespace tcplp {

class RingBuffer {
public:
    explicit RingBuffer(std::size_t capacity) : data_(capacity) {}

    std::size_t capacity() const { return data_.size(); }
    std::size_t size() const { return size_; }
    std::size_t free() const { return capacity() - size_; }
    bool empty() const { return size_ == 0; }

    /// Appends up to `src.size()` bytes; returns the number written.
    std::size_t write(BytesView src) {
        const std::size_t n = std::min(src.size(), free());
        copyIn(size_, src.first(n));
        size_ += n;
        return n;
    }

    /// Writes `src` at byte offset `off` past the current tail, without
    /// advancing size. Used by the in-place reassembly queue to deposit
    /// out-of-order data into its eventual position (paper Figure 1b).
    void writeAt(std::size_t off, BytesView src) {
        TCPLP_ASSERT(size_ + off + src.size() <= capacity());
        copyIn(size_ + off, src);
    }

    /// Marks `n` bytes previously deposited via writeAt() as in-sequence.
    void commit(std::size_t n) {
        TCPLP_ASSERT(size_ + n <= capacity());
        size_ += n;
    }

    /// Copies up to `dst.size()` bytes from the front without consuming.
    std::size_t peek(std::span<std::uint8_t> dst) const {
        const std::size_t n = std::min(dst.size(), size_);
        copyOut(dst.data(), n);
        return n;
    }

    /// Removes and returns up to `n` bytes from the front.
    Bytes read(std::size_t n) {
        Bytes out;
        readInto(n, out);
        return out;
    }

    /// read() into a caller-provided vector whose capacity is reused —
    /// the auto-drain delivery path calls this once per committed run, so
    /// reusing the scratch keeps the receive path allocation-free.
    std::size_t readInto(std::size_t n, Bytes& out) {
        n = std::min(n, size_);
        out.resize(n);
        copyOut(out.data(), n);
        consume(n);
        return n;
    }

    /// Drops `n` bytes from the front.
    void consume(std::size_t n) {
        TCPLP_ASSERT(n <= size_);
        head_ = wrap(head_ + n);
        size_ -= n;
    }

    /// Random access relative to the front (0 = oldest byte).
    std::uint8_t at(std::size_t i) const {
        TCPLP_ASSERT(i < size_);
        return data_[wrap(head_ + i)];
    }

    void clear() {
        head_ = 0;
        size_ = 0;
    }

    /// Physical slot of the byte `off` positions past the front. `off` may
    /// reach past size() into the writeAt() deposit area; the in-place
    /// reassembly queue indexes its bitmap by these slots.
    std::size_t slot(std::size_t off) const {
        TCPLP_ASSERT(off < capacity());
        return wrap(head_ + off);
    }

    /// Grows capacity, preserving the readable bytes AND any bytes deposited
    /// past the tail via writeAt() (the in-place reassembly queue): the whole
    /// old ring is re-linearized starting at head_, so every tail-relative
    /// offset is unchanged afterwards. Shrinking is not supported.
    void grow(std::size_t newCapacity) {
        TCPLP_ASSERT(newCapacity >= capacity());
        if (newCapacity == capacity()) return;
        Bytes next(newCapacity, 0);
        copyOut(next.data(), capacity());
        data_ = std::move(next);
        head_ = 0;
    }

private:
    std::size_t wrap(std::size_t i) const { return i % data_.size(); }

    /// Copies `src` to the bytes starting `off` past the front: at most two
    /// memcpy calls, split at the physical end of the ring.
    void copyIn(std::size_t off, BytesView src) {
        if (src.empty()) return;
        const std::size_t start = wrap(head_ + off);
        const std::size_t first = std::min(src.size(), data_.size() - start);
        std::memcpy(data_.data() + start, src.data(), first);
        std::memcpy(data_.data(), src.data() + first, src.size() - first);
    }

    /// Copies the first `n` bytes past the front into `dst`.
    void copyOut(std::uint8_t* dst, std::size_t n) const {
        if (n == 0) return;
        const std::size_t first = std::min(n, data_.size() - head_);
        std::memcpy(dst, data_.data() + head_, first);
        std::memcpy(dst + first, data_.data(), n - first);
    }

    Bytes data_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

}  // namespace tcplp
