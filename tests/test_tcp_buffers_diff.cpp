// Differential tests: the word-level Bitmap, the slot-indexed RecvBuffer and
// the cursor-walking SendBuffer against naive references (std::vector<bool>
// for the bitmap, std::deque<std::uint8_t> for byte streams), driven by
// seeded random operation sequences.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "tcplp/common/bitmap.hpp"
#include "tcplp/sim/rng.hpp"
#include "tcplp/tcp/recv_buffer.hpp"
#include "tcplp/tcp/send_buffer.hpp"

using namespace tcplp;
using namespace tcplp::tcp;

namespace {

/// A position in [0, size], biased toward 64-bit word boundaries.
std::size_t pickPos(sim::Rng& rng, std::size_t size) {
    if (rng.uniform() < 0.5) {
        const std::size_t word = std::size_t(rng.uniformInt(size / 64 + 1));
        const std::size_t pos = word * 64 + std::size_t(rng.uniformInt(3));
        return pos == 0 ? 0 : std::min(size, pos - 1);
    }
    return std::size_t(rng.uniformInt(size + 1));
}

// --- Bitmap vs std::vector<bool> -------------------------------------------

struct RefBitmap {
    std::vector<bool> bits;

    std::size_t setRange(std::size_t b, std::size_t e) {
        std::size_t added = 0;
        for (std::size_t i = b; i < e; ++i) {
            added += !bits[i];
            bits[i] = true;
        }
        return added;
    }
    std::size_t find(std::size_t from, std::size_t end, bool value) const {
        while (from < end && bits[from] != value) ++from;
        return from;
    }
    std::size_t popcount() const {
        std::size_t n = 0;
        for (bool b : bits) n += b;
        return n;
    }
};

void expectSameBits(const Bitmap& bm, const RefBitmap& ref) {
    ASSERT_EQ(bm.size(), ref.bits.size());
    for (std::size_t i = 0; i < ref.bits.size(); ++i) ASSERT_EQ(bm.test(i), ref.bits[i]) << i;
    EXPECT_EQ(bm.popcount(), ref.popcount());
}

TEST(BitmapDifferential, RandomRangeOpsMatchVectorBool) {
    for (std::size_t size : {1u, 63u, 64u, 65u, 130u, 1000u}) {
        sim::Rng rng(0xb17ULL + size);
        Bitmap bm(size);
        RefBitmap ref{std::vector<bool>(size, false)};
        for (int op = 0; op < 2000; ++op) {
            const std::size_t n = ref.bits.size();
            std::size_t a = pickPos(rng, n), b = pickPos(rng, n);
            if (a > b) std::swap(a, b);
            switch (rng.uniformInt(5)) {
                case 0:
                case 1:
                    ASSERT_EQ(bm.setRange(a, b), ref.setRange(a, b));
                    break;
                case 2:
                    bm.clearRange(a, b);
                    for (std::size_t i = a; i < b; ++i) ref.bits[i] = false;
                    break;
                case 3:
                    ASSERT_EQ(bm.findNextSet(a, b), ref.find(a, b, true));
                    ASSERT_EQ(bm.findNextClear(a, b), ref.find(a, b, false));
                    break;
                case 4:
                    ASSERT_EQ(bm.countContiguousFrom(a), ref.find(a, n, false) - a);
                    ASSERT_EQ(bm.popcount(), ref.popcount());
                    break;
            }
        }
        expectSameBits(bm, ref);
    }
}

// --- RecvBuffer vs a shift-on-commit reference ------------------------------

/// The reassembly queue as the paper draws it: parked flags indexed by
/// offset past rcv_nxt, shifted down on every commit, and a deque holding
/// the committed, unread stream.
struct RefRecv {
    std::size_t capacity;
    std::deque<std::uint8_t> readable;
    std::vector<bool> parked;  // indexed by offset past rcv_nxt

    std::size_t window() const { return capacity - readable.size(); }

    std::size_t insert(std::size_t rcvNxt, std::size_t offset, std::size_t len) {
        const std::size_t win = window();
        if (offset >= win) return 0;
        const std::size_t n = std::min(len, win - offset);
        parked.resize(capacity, false);
        for (std::size_t i = offset; i < offset + n; ++i) parked[i] = true;
        std::size_t run = 0;
        while (run < win && parked[run]) ++run;
        for (std::size_t i = 0; i < run; ++i) readable.push_back(patternByteAt(rcvNxt + i));
        parked.erase(parked.begin(), parked.begin() + std::ptrdiff_t(run));
        return run;
    }

    std::size_t parkedBytes() const {
        std::size_t n = 0;
        for (bool b : parked) n += b;
        return n;
    }

    std::vector<std::pair<std::size_t, std::size_t>> runs(std::size_t max) const {
        std::vector<std::pair<std::size_t, std::size_t>> out;
        for (std::size_t i = 0; i < parked.size() && out.size() < max;) {
            if (!parked[i]) {
                ++i;
                continue;
            }
            std::size_t j = i;
            while (j < parked.size() && parked[j]) ++j;
            out.emplace_back(i, j);
            i = j;
        }
        return out;
    }
};

TEST(TcpBuffersDifferential, RecvBufferMatchesShiftingReference) {
    std::size_t straddlingInserts = 0;
    std::size_t growsWithWrappedParking = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        sim::Rng rng(seed * 7919);
        const std::size_t initial = 100 + std::size_t(rng.uniformInt(300));
        RecvBuffer rb(initial);
        RefRecv ref{initial, {}, {}};
        std::size_t rcvNxt = 0;   // stream offset of the next expected byte
        std::size_t headSlot = 0;  // physical slot of the first unread byte
        for (int op = 0; op < 3000; ++op) {
            const std::uint64_t kind = rng.uniformInt(10);
            if (kind < 6) {
                // Mostly out-of-order arrivals, some in order; duplicates
                // and overlaps follow from the random offsets.
                const std::size_t offset =
                    rng.uniformInt(4) == 0 ? 0 : std::size_t(rng.uniformInt(rb.window() + 20));
                const std::size_t len = 1 + std::size_t(rng.uniformInt(90));
                const std::size_t tail = (headSlot + rb.readable()) % rb.capacity();
                const std::size_t n = offset < rb.window()
                                          ? std::min(len, rb.window() - offset)
                                          : 0;
                if (n > 0 && tail + offset < rb.capacity() && tail + offset + n > rb.capacity())
                    ++straddlingInserts;
                const Bytes data = patternBytes(rcvNxt + offset, len);
                const std::size_t advanced = rb.insert(offset, data);
                ASSERT_EQ(advanced, ref.insert(rcvNxt, offset, len));
                rcvNxt += advanced;
            } else if (kind < 9) {
                const std::size_t n = std::size_t(rng.uniformInt(rb.readable() + 1));
                const Bytes got = rb.read(n);
                ASSERT_EQ(got.size(), n);
                for (std::size_t i = 0; i < n; ++i) {
                    ASSERT_EQ(got[i], ref.readable.front());
                    ref.readable.pop_front();
                }
                headSlot = (headSlot + n) % rb.capacity();
            } else if (rb.capacity() < 4000) {
                const std::size_t tail = (headSlot + rb.readable()) % rb.capacity();
                if (rb.outOfOrderBytes() > 0 && tail + rb.window() > rb.capacity())
                    ++growsWithWrappedParking;
                const std::size_t grown = rb.capacity() + 1 + std::size_t(rng.uniformInt(200));
                rb.grow(grown);
                ref.capacity = grown;
                headSlot = 0;
            }
            ASSERT_EQ(rb.readable(), ref.readable.size());
            ASSERT_EQ(rb.window(), ref.window());
            ASSERT_EQ(rb.outOfOrderBytes(), ref.parkedBytes());
            const SackRanges sack = rb.sackRanges();
            const auto want = ref.runs(SackRanges::kMax);
            ASSERT_EQ(sack.size(), want.size());
            for (std::size_t i = 0; i < want.size(); ++i) {
                ASSERT_EQ(sack[i].begin, want[i].first);
                ASSERT_EQ(sack[i].end, want[i].second);
            }
        }
    }
    // The sequence must actually exercise the wrap-sensitive paths.
    EXPECT_GT(straddlingInserts, 0u);
    EXPECT_GT(growsWithWrappedParking, 0u);
}

// --- SendBuffer vs std::deque<std::uint8_t> --------------------------------

TEST(TcpBuffersDifferential, SendBufferMatchesDequeReference) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        sim::Rng rng(seed * 104729);
        const std::size_t capacity = 500 + std::size_t(rng.uniformInt(3000));
        SendBuffer sb(capacity);
        std::deque<std::uint8_t> ref;  // unacknowledged stream
        std::size_t appended = 0;      // stream offset of the next new byte
        std::size_t rewinds = 0;
        std::size_t lastOffset = 0;
        for (int op = 0; op < 4000; ++op) {
            const std::uint64_t kind = rng.uniformInt(10);
            if (kind < 2) {
                const std::size_t len = std::size_t(rng.uniformInt(300));
                const std::size_t n = sb.append(patternBytes(appended, len));
                ASSERT_EQ(n, std::min(len, capacity - ref.size()));
                for (std::size_t i = 0; i < n; ++i) ref.push_back(patternByteAt(appended + i));
                appended += n;
            } else if (kind < 4) {
                // Empty chunks included: a zero-length node must be harmless.
                const std::size_t len = std::size_t(rng.uniformInt(300));
                auto chunk = std::make_shared<const Bytes>(patternBytes(appended, len));
                const std::size_t n = sb.appendShared(chunk);
                ASSERT_EQ(n, len <= capacity - ref.size() ? len : 0);
                for (std::size_t i = 0; i < n; ++i) ref.push_back(patternByteAt(appended + i));
                appended += n;
            } else if (kind < 5) {
                const std::size_t n = std::size_t(rng.uniformInt(ref.size() / 2 + 1));
                sb.ack(n);
                ref.erase(ref.begin(), ref.begin() + std::ptrdiff_t(n));
            } else {
                // Reads at random offsets: sequential sends, and rewinds
                // below the last read, as retransmissions do.
                const std::size_t offset = std::size_t(rng.uniformInt(ref.size() + 10));
                const std::size_t len = std::size_t(rng.uniformInt(700));
                if (offset < lastOffset) ++rewinds;
                lastOffset = offset;
                const PacketBuffer seg = sb.readSegment(offset, len);
                const std::size_t want = offset >= ref.size() ? 0 : std::min(len, ref.size() - offset);
                ASSERT_EQ(seg.size(), want);
                for (std::size_t i = 0; i < want; ++i)
                    ASSERT_EQ(seg.data()[i], ref[offset + i]) << "offset " << offset << " i " << i;
                const Bytes copy = sb.read(offset, len);
                ASSERT_EQ(copy.size(), want);
                for (std::size_t i = 0; i < want; ++i) ASSERT_EQ(copy[i], ref[offset + i]);
            }
            ASSERT_EQ(sb.size(), ref.size());
        }
        EXPECT_GT(rewinds, 0u);
    }
}

}  // namespace
