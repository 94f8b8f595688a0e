// Dynamic bitmap with word-level range operations.
//
// TCPlp's in-place reassembly queue (paper section 4.3.2, Figure 1b) records
// which bytes past the in-sequence data are valid out-of-order data using a
// bitmap; this is that bitmap. The receive path touches it on every segment,
// so every range operation and search works a 64-bit word at a time: its
// cost is O(range / 64), never O(size). The size is fixed at construction,
// so the words live in a plain array (no vector capacity field): the bitmap
// is part of every socket's footprint (paper Tables 3/4).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "tcplp/common/assert.hpp"

namespace tcplp {

class Bitmap {
public:
    explicit Bitmap(std::size_t bits)
        : bits_(bits), words_(std::make_unique<std::uint64_t[]>(wordCount())) {}

    std::size_t size() const { return bits_; }

    bool test(std::size_t i) const {
        TCPLP_ASSERT(i < bits_);
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    void set(std::size_t i) {
        TCPLP_ASSERT(i < bits_);
        words_[i >> 6] |= std::uint64_t(1) << (i & 63);
    }

    void clear(std::size_t i) {
        TCPLP_ASSERT(i < bits_);
        words_[i >> 6] &= ~(std::uint64_t(1) << (i & 63));
    }

    /// Sets bits [begin, end); returns how many of them were clear before.
    std::size_t setRange(std::size_t begin, std::size_t end) {
        std::size_t added = 0;
        forEachWord(begin, end, [&added](std::uint64_t& w, std::uint64_t mask) {
            added += std::size_t(std::popcount(mask & ~w));
            w |= mask;
        });
        return added;
    }

    void clearRange(std::size_t begin, std::size_t end) {
        forEachWord(begin, end, [](std::uint64_t& w, std::uint64_t mask) { w &= ~mask; });
    }

    /// First set bit in [from, end), or `end` if there is none.
    std::size_t findNextSet(std::size_t from, std::size_t end) const {
        return find(from, end, 0);
    }

    /// First clear bit in [from, end), or `end` if there is none.
    std::size_t findNextClear(std::size_t from, std::size_t end) const {
        return find(from, end, ~std::uint64_t(0));
    }

    /// Length of the run of set bits starting at `begin`.
    std::size_t countContiguousFrom(std::size_t begin) const {
        return findNextClear(begin, bits_) - begin;
    }

    std::size_t popcount() const {
        std::size_t n = 0;
        for (std::size_t i = 0; i < wordCount(); ++i) n += std::size_t(std::popcount(words_[i]));
        return n;
    }

private:
    std::size_t wordCount() const { return (bits_ + 63) / 64; }

    /// Calls fn(word, mask) for each word overlapping [begin, end), where
    /// `mask` selects the word's bits inside the range.
    template <typename Fn>
    void forEachWord(std::size_t begin, std::size_t end, Fn&& fn) {
        TCPLP_ASSERT(begin <= end && end <= bits_);
        while (begin < end) {
            const std::size_t bit = begin & 63;
            const std::size_t n = std::min<std::size_t>(64 - bit, end - begin);
            const std::uint64_t mask =
                (n == 64 ? ~std::uint64_t(0) : (std::uint64_t(1) << n) - 1) << bit;
            fn(words_[begin >> 6], mask);
            begin += n;
        }
    }

    /// First bit in [from, end) that differs from `skip`'s bits (`skip` is
    /// all-zero to find a set bit, all-one to find a clear one), or `end`.
    std::size_t find(std::size_t from, std::size_t end, std::uint64_t skip) const {
        TCPLP_ASSERT(from <= end && end <= bits_);
        if (from >= end) return end;
        std::size_t wi = from >> 6;
        std::uint64_t w = (words_[wi] ^ skip) & (~std::uint64_t(0) << (from & 63));
        const std::size_t lastWord = (end - 1) >> 6;
        while (w == 0) {
            if (++wi > lastWord) return end;
            w = words_[wi] ^ skip;
        }
        return std::min(end, (wi << 6) + std::size_t(std::countr_zero(w)));
    }

    std::size_t bits_;
    std::unique_ptr<std::uint64_t[]> words_;  // zero-initialised
};

}  // namespace tcplp
