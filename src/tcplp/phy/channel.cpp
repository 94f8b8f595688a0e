#include "tcplp/phy/channel.hpp"

#include <algorithm>
#include <cmath>

#include "tcplp/common/assert.hpp"
#include "tcplp/common/log.hpp"
#include "tcplp/phy/radio.hpp"

namespace tcplp::phy {

Channel::CellKey Channel::cellOf(Position p) const {
    return CellKey{std::int32_t(std::floor(p.x / range_)),
                   std::int32_t(std::floor(p.y / range_))};
}

void Channel::insertIntoGrid(Radio* radio, CellKey key) {
    // Cell order is irrelevant: neighborsOf sorts the merged candidate set.
    Cell& cell = grid_[key];
    cell.radios.push_back(radio);
    cell.epoch = gridEpoch_;
}

void Channel::addRadio(Radio* radio) {
    auto it = std::lower_bound(
        radiosById_.begin(), radiosById_.end(), radio,
        [](const Radio* a, const Radio* b) { return a->id() < b->id(); });
    radiosById_.insert(it, radio);
    ++gridEpoch_;
    insertIntoGrid(radio, cellOf(radio->position()));
    resolvedMode_ = resolveMode();
}

void Channel::radioMoved(Radio* radio, Position oldPos) {
    const CellKey oldKey = cellOf(oldPos);
    const CellKey newKey = cellOf(radio->position());
    if (oldKey == newKey) return;  // same cell: candidate sets are unchanged
    ++gridEpoch_;
    Cell& cell = grid_[oldKey];
    cell.radios.erase(std::find(cell.radios.begin(), cell.radios.end(), radio));
    cell.epoch = gridEpoch_;
    insertIntoGrid(radio, newKey);
}

const std::vector<Radio*>& Channel::neighborsOf(Radio* transmitter) {
    NeighborCache& cache = neighborCache_[transmitter];
    if (cache.epoch == gridEpoch_) return cache.radios;

    const CellKey center = cellOf(transmitter->position());
    if (cache.built && center == cache.center) {
        // Incremental revalidation: the global epoch moved, but if none of
        // the 9 cells in this transmitter's window changed membership, the
        // cached candidate set is still exact — adopt the new epoch for the
        // price of 9 integer compares instead of a rebuild + sort.
        bool unchanged = true;
        std::size_t slot = 0;
        for (std::int32_t dx = -1; dx <= 1 && unchanged; ++dx) {
            for (std::int32_t dy = -1; dy <= 1; ++dy, ++slot) {
                if (cellEpoch(CellKey{center.cx + dx, center.cy + dy}) !=
                    cache.cellEpochs[slot]) {
                    unchanged = false;
                    break;
                }
            }
        }
        if (unchanged) {
            cache.epoch = gridEpoch_;
            ++channelStats_.neighborRevalidations;
            return cache.radios;
        }
    }

    cache.epoch = gridEpoch_;
    cache.built = true;
    cache.center = center;
    cache.radios.clear();
    ++channelStats_.neighborRebuilds;
    std::size_t slot = 0;
    for (std::int32_t dx = -1; dx <= 1; ++dx) {
        for (std::int32_t dy = -1; dy <= 1; ++dy, ++slot) {
            const CellKey key{center.cx + dx, center.cy + dy};
            cache.cellEpochs[slot] = cellEpoch(key);
            const auto it = grid_.find(key);
            if (it == grid_.end()) continue;
            for (Radio* r : it->second.radios) {
                if (r != transmitter) cache.radios.push_back(r);
            }
        }
    }
    std::sort(cache.radios.begin(), cache.radios.end(),
              [](const Radio* a, const Radio* b) { return a->id() < b->id(); });
    return cache.radios;
}

template <typename Fn>
void Channel::forEachCandidate(Radio* transmitter, Fn&& fn) {
    if (effectiveMode() == DeliveryMode::kSpatialIndex) {
        for (Radio* r : neighborsOf(transmitter)) {
            ++channelStats_.listenerVisits;
            fn(r);
        }
    } else {
        for (Radio* r : radiosById_) {
            if (r == transmitter) continue;
            ++channelStats_.listenerVisits;
            fn(r);
        }
    }
}

void Channel::setLinkLoss(NodeId a, NodeId b, double probability) {
    linkLoss_[{a, b}] = probability;
    linkLoss_[{b, a}] = probability;
}

bool Channel::inRange(const Radio* a, const Radio* b) const {
    const double dx = a->position().x - b->position().x;
    const double dy = a->position().y - b->position().y;
    return std::sqrt(dx * dx + dy * dy) <= range_;
}

bool Channel::clearAt(const Radio* listener) const {
    // Mode check hoisted out of the loop (and the listener's cell computed
    // only when the spatial reject will use it): CCA runs once per CSMA
    // attempt, and the per-transmission recompute showed up as pure
    // overhead on small-n auto runs that resolve to the linear scan.
    if (resolvedMode_ != DeliveryMode::kSpatialIndex) {
        for (const Transmission& t : active_) {
            if (t.transmitter == listener) continue;
            if (inRange(listener, t.transmitter)) return false;
        }
        return true;
    }
    const CellKey lc = cellOf(listener->position());
    for (const Transmission& t : active_) {
        if (t.transmitter == listener) continue;
        // Cells >= 2 apart in either axis are strictly farther than
        // `range` (cell side == range): reject without the distance math.
        const CellKey tc = cellOf(t.transmitter->position());
        if (tc.cx - lc.cx > 1 || lc.cx - tc.cx > 1 || tc.cy - lc.cy > 1 ||
            lc.cy - tc.cy > 1) {
            continue;
        }
        if (inRange(listener, t.transmitter)) return false;
    }
    return true;
}

bool Channel::blackedOut(NodeId src, NodeId dst) const {
    if (globalBlackout_ > 0) return true;
    if (!nodeBlackout_.empty()) {
        if (auto it = nodeBlackout_.find(src); it != nodeBlackout_.end() && it->second > 0)
            return true;
        if (auto it = nodeBlackout_.find(dst); it != nodeBlackout_.end() && it->second > 0)
            return true;
    }
    if (!linkBlackout_.empty()) {
        if (auto it = linkBlackout_.find({src, dst});
            it != linkBlackout_.end() && it->second > 0)
            return true;
    }
    return false;
}

void Channel::setLinkBlackout(NodeId a, NodeId b, bool active) {
    const int delta = active ? 1 : -1;
    linkBlackout_[{a, b}] += delta;
    linkBlackout_[{b, a}] += delta;
    blackoutEntries_ += delta;
}

void Channel::setNodeBlackout(NodeId node, bool active) {
    const int delta = active ? 1 : -1;
    nodeBlackout_[node] += delta;
    blackoutEntries_ += delta;
}

void Channel::setGlobalBlackout(bool active) {
    const int delta = active ? 1 : -1;
    globalBlackout_ += delta;
    blackoutEntries_ += delta;
}

double Channel::lossFor(NodeId src, NodeId dst, sim::Time now) const {
    // Blackout fades the frame with certainty: the Bernoulli draw still
    // happens (chance(1.0) is always true — uniform() < 1.0), preserving
    // the RNG draw order of the equivalent clean run.
    if (blackoutEntries_ > 0 && blackedOut(src, dst)) return 1.0;
    double p = defaultLoss_;
    if (auto it = linkLoss_.find({src, dst}); it != linkLoss_.end()) p = it->second;
    if (ambientLoss_) {
        // Combine independent loss processes: survive both to be received.
        const double ambient = ambientLoss_(now, dst);
        p = 1.0 - (1.0 - p) * (1.0 - ambient);
    }
    return p;
}

bool Channel::startTransmission(Radio* transmitter, const Frame& frame, bool endsCarrier) {
    ++framesTransmitted_;
    const std::uint64_t txId = nextTxId_++;
    const sim::Time air = frameAirTime(frame);
    const sim::Time end = simulator_.now() + air;
    const bool linear = effectiveMode() == DeliveryMode::kLinearScan;

    // A frame that joins the pending batch for its end tick opens no event,
    // so it cannot end its carrier through one.
    Batch* pending = nullptr;
    if (!linear) {
        for (Batch& b : batches_) {
            if (b.end == end) {
                pending = &b;
                endsCarrier = false;
                break;
            }
        }
    }
    active_.push_back(Transmission{txId, transmitter, frame, end, endsCarrier});

    // Let every other in-range radio react to the rising carrier.
    forEachCandidate(transmitter, [&](Radio* r) {
        if (inRange(r, transmitter)) r->airStarted(txId);
    });

    if (linear) {
        // Frozen seed behavior: one delivery event per transmission.
        simulator_.schedule(air, [this, txId] { deliverOne(txId); });
        return endsCarrier;
    }
    if (pending != nullptr) {
        pending->txIds.push_back(txId);
        return false;
    }
    Batch batch;
    batch.end = end;
    if (!batchPool_.empty()) {
        batch.txIds = std::move(batchPool_.back());
        batchPool_.pop_back();
    }
    batch.txIds.push_back(txId);
    batches_.push_back(std::move(batch));
    simulator_.schedule(air, [this, end] { deliverBatch(end); });
    return endsCarrier;
}

Channel::Transmission Channel::retireActive(std::uint64_t txId) {
    for (std::size_t i = 0; i < active_.size(); ++i) {
        if (active_[i].txId != txId) continue;
        Transmission tx = std::move(active_[i]);
        active_[i] = std::move(active_.back());
        active_.pop_back();
        return tx;
    }
    TCPLP_ASSERT(false && "unknown txId");
    return Transmission{};
}

void Channel::deliverTransmission(const Transmission& tx) {
    forEachCandidate(tx.transmitter, [&](Radio* r) {
        if (!inRange(r, tx.transmitter)) return;
        const bool faded = simulator_.rng().chance(
            lossFor(tx.transmitter->id(), r->id(), simulator_.now()));
        if (faded) ++framesLostToFading_;
        if (deliveryTap_)
            deliveryTap_(simulator_.now(), tx.transmitter->id(), r->id(),
                         tx.frame.mpduBytes(), faded);
        if (const auto readout = r->airFinished(tx.txId, tx.frame, faded))
            queueReadout(r, tx.frame, simulator_.now() + *readout);
    });
    openReadout_ = kNoGroup;
}

void Channel::queueReadout(Radio* listener, const Frame& frame, sim::Time at) {
    // Join the open group only if no event for its instant was scheduled
    // since it opened: that event would fire between separate readouts.
    if (openReadout_ != kNoGroup && openReadoutAt_ == at && !simulator_.fenceCrossed()) {
        ReadoutGroup& open = readoutGroups_[openReadout_];
        if (open.size < ReadoutGroup::kCapacity) {
            open.radios[open.size++] = listener;
            return;
        }
    }
    std::uint32_t index = freeReadoutGroup_;
    if (index == kNoGroup) {
        index = std::uint32_t(readoutGroups_.size());
        readoutGroups_.emplace_back();
    } else {
        freeReadoutGroup_ = readoutGroups_[index].nextFree;
    }
    ReadoutGroup& group = readoutGroups_[index];
    group.frame = frame;
    group.radios[0] = listener;
    group.size = 1;
    simulator_.scheduleAt(at, [this, index] { fireReadout(index); });
    simulator_.fenceInstant(at);
    openReadout_ = index;
    openReadoutAt_ = at;
}

void Channel::fireReadout(std::uint32_t index) {
    // Only delivery events grow the pool, so the reference holds while the
    // receive callbacks run.
    ReadoutGroup& group = readoutGroups_[index];
    for (std::uint32_t i = 0; i < group.size; ++i) group.radios[i]->readOut(group.frame);
    group.size = 0;
    group.frame = Frame{};  // release the payload with the last readout
    group.nextFree = freeReadoutGroup_;
    freeReadoutGroup_ = index;
}

void Channel::deliverOne(std::uint64_t txId) {
    ++channelStats_.deliveryEvents;
    // Remove from the active list first so CCA during delivery callbacks
    // sees the carrier down.
    const Transmission tx = retireActive(txId);
    deliverTransmission(tx);
    if (tx.endsCarrier) tx.transmitter->carrierEnded();
}

void Channel::deliverBatch(sim::Time end) {
    ++channelStats_.deliveryEvents;
    std::vector<std::uint64_t> txIds;
    for (std::size_t i = 0; i < batches_.size(); ++i) {
        if (batches_[i].end != end) continue;
        txIds = std::move(batches_[i].txIds);
        batches_[i] = std::move(batches_.back());
        batches_.pop_back();
        break;
    }
    TCPLP_ASSERT(!txIds.empty());

    // Retire every transmission in the batch from the active list BEFORE
    // delivering any of them, so CCA during delivery callbacks sees all
    // same-tick carriers down. Lookup is keyed on txId: two back-to-back
    // frames from one transmitter ending the same tick retire independently.
    deliverScratch_.clear();
    for (const std::uint64_t txId : txIds) deliverScratch_.push_back(retireActive(txId));
    txIds.clear();
    batchPool_.push_back(std::move(txIds));

    // Deliver in txId (= start) order; listeners in ascending NodeId order,
    // so the per-listener RNG draws replay identically in both modes.
    for (const Transmission& tx : deliverScratch_) deliverTransmission(tx);
    // Only the batch's opener (its first txId) can own the event's carrier end.
    const Transmission& opener = deliverScratch_.front();
    Radio* const carrierOwner = opener.endsCarrier ? opener.transmitter : nullptr;
    deliverScratch_.clear();
    if (carrierOwner != nullptr) carrierOwner->carrierEnded();
}

}  // namespace tcplp::phy
