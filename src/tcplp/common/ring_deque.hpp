// Capacity-retaining double-ended FIFO.
//
// std::deque allocates a ~512-byte chunk every time it grows from empty to
// one element and frees it when drained — and a MAC send queue (or a packet
// queue) cycles through empty constantly, so the chunk churn lands on the
// simulation hot path. RingDeque keeps its slots in one circular vector
// whose capacity only grows: after warm-up, the push/pop cycle allocates
// nothing.
//
// Requirements on T: default-constructible and move-assignable. pop_front()
// resets the vacated slot to T{} so owned resources (buffers, callbacks)
// are released at pop time, not when the slot is eventually overwritten.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "tcplp/common/assert.hpp"

namespace tcplp {

template <typename T>
class RingDeque {
public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    T& front() { return slots_[head_]; }
    const T& front() const { return slots_[head_]; }

    /// Element `i` positions from the front (0 = front).
    const T& operator[](std::size_t i) const {
        TCPLP_ASSERT(i < size_);
        return slots_[wrap(head_ + i)];
    }

    void push_back(T v) {
        reserveOne();
        slots_[wrap(head_ + size_)] = std::move(v);
        ++size_;
    }

    void push_front(T v) {
        reserveOne();
        head_ = wrap(head_ + slots_.size() - 1);
        slots_[head_] = std::move(v);
        ++size_;
    }

    void pop_front() {
        slots_[head_] = T{};
        head_ = wrap(head_ + 1);
        --size_;
    }

    /// Destroys the elements' contents but keeps the slot capacity.
    void clear() {
        for (std::size_t i = 0; i < size_; ++i) slots_[wrap(head_ + i)] = T{};
        head_ = 0;
        size_ = 0;
    }

    /// Front-to-back const iteration (input-iterator subset: range-for).
    class const_iterator {
    public:
        const_iterator(const RingDeque* d, std::size_t i) : d_(d), i_(i) {}
        const T& operator*() const { return d_->slots_[d_->wrap(d_->head_ + i_)]; }
        const_iterator& operator++() {
            ++i_;
            return *this;
        }
        bool operator==(const const_iterator& o) const { return i_ == o.i_; }
        bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

    private:
        const RingDeque* d_;
        std::size_t i_;
    };
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

private:
    std::size_t wrap(std::size_t i) const {
        return slots_.empty() ? 0 : i % slots_.size();
    }

    void reserveOne() {
        if (size_ < slots_.size()) return;
        const std::size_t grown = slots_.empty() ? 8 : slots_.size() * 2;
        std::vector<T> next(grown);
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = std::move(slots_[wrap(head_ + i)]);
        slots_ = std::move(next);
        head_ = 0;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

}  // namespace tcplp
