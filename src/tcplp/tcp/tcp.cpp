#include "tcplp/tcp/tcp.hpp"

#include <algorithm>

#include "tcplp/common/assert.hpp"
#include "tcplp/common/log.hpp"
#include "tcplp/tcp/congestion.hpp"

namespace tcplp::tcp {

// ---------------------------------------------------------------------------
// TcpSocket
// ---------------------------------------------------------------------------

TcpSocket::TcpSocket(TcpStack& stack, TcpConfig config)
    : stack_(stack),
      config_(config),
      sendBuf_(config.sendBufferBytes),
      recvBuf_(config.recvBufferBytes),
      rexmitTimer_(stack.simulator(), [this] { rexmitTimeout(); }),
      persistTimer_(stack.simulator(), [this] { persistTimeout(); }),
      delackTimer_(stack.simulator(), [this] { sendAckNow(); }),
      timeWaitTimer_(stack.simulator(), [this] {
          setState(State::kClosed);
          if (onClosed_) onClosed_();
      }),
      keepAliveTimer_(stack.simulator(), [this] { keepAliveTimeout(); }) {
    tcb_.mss = config.mss;
    tcb_.rto = config.initialRto;
    // The cap is constant for the socket's lifetime (the send buffer never
    // resizes; only the receive buffer can autotune, and that side has no
    // cwnd), so the strategy captures it once instead of reaching into the
    // socket.
    cc_ = makeCongestionControl(config_.cc, tcb_,
                                CcEnv{cwndCap(), config_.initialCwndSegments});
}

TcpSocket::~TcpSocket() = default;

const CcStats& TcpSocket::ccStats() const { return cc_->stats(); }

std::uint32_t TcpSocket::tsNow() const {
    return std::uint32_t(stack_.simulator().now() / sim::kMillisecond);
}

void TcpSocket::setState(State s) {
    tcb_.state = s;
}

void TcpSocket::traceCwnd() {
    if (cwndTracer_) cwndTracer_(stack_.simulator().now(), tcb_.cwnd, tcb_.ssthresh);
}

std::uint32_t TcpSocket::cwndCap() const {
    // Without RFC 7323 scaling the peer can never advertise past the 16-bit
    // field, so capping cwnd there too is free; with scaling enabled the
    // send buffer alone bounds the window.
    std::uint32_t cap = std::uint32_t(
        std::min<std::size_t>(sendBuf_.capacity(), std::size_t(0xffffffffu)));
    if (!config_.windowScaling) cap = std::min(cap, kMaxWindow);
    if (config_.cwndCapBytes > 0) cap = std::min(cap, config_.cwndCapBytes);
    return cap;
}

void TcpSocket::checkInvariants() const {
#ifndef NDEBUG
    TCPLP_ASSERT(seqLe(tcb_.sndUna, tcb_.sndNxt));
    TCPLP_ASSERT(tcb_.cwnd <= cwndCap());
#endif
}

std::uint8_t TcpSocket::desiredRcvShift() const {
    // Cover the largest window this socket could ever advertise: the
    // autotune ceiling when set, the fixed buffer otherwise.
    const std::size_t maxBuf =
        std::max(config_.recvBufferBytes, config_.recvBufferMaxBytes);
    std::uint8_t shift = 0;
    while (shift < kMaxWindowShift && (maxBuf >> shift) > 0xffff) ++shift;
    return shift;
}

std::uint32_t TcpSocket::swsThreshold() const {
    return std::min<std::uint32_t>(tcb_.mss,
                                   std::uint32_t(recvBuf_.capacity() / 2));
}

// --- Application interface --------------------------------------------------

void TcpSocket::connect(const ip6::Address& dst, std::uint16_t dstPort) {
    // kFailed is terminal: the app observes the failure via state() and
    // opens a *fresh* socket to retry (see app::ReconnectingBulkSender).
    // Rejecting the call keeps a dead TCB from being half-reinitialized.
    if (tcb_.state == State::kFailed) return;
    TCPLP_ASSERT(tcb_.state == State::kClosed);
    remoteAddr_ = dst;
    remotePort_ = dstPort;
    if (localPort_ == 0) localPort_ = stack_.allocatePort();

    tcb_.iss = stack_.nextIss();
    tcb_.sndUna = tcb_.iss;
    tcb_.sndNxt = tcb_.iss;
    tcb_.sndMax = tcb_.iss;
    cc_->onOpen();
    setState(State::kSynSent);
    output();
}

std::size_t TcpSocket::send(BytesView data) {
    if (tcb_.finQueued || tcb_.state == State::kFailed) return 0;
    const std::size_t n = sendBuf_.append(data);
    if (n > 0 && (tcb_.state == State::kEstablished || tcb_.state == State::kCloseWait))
        output();
    return n;
}

std::size_t TcpSocket::sendZeroCopy(std::shared_ptr<const Bytes> data) {
    if (tcb_.finQueued || tcb_.state == State::kFailed) return 0;
    const std::size_t n = sendBuf_.appendShared(std::move(data));
    if (n > 0 && (tcb_.state == State::kEstablished || tcb_.state == State::kCloseWait))
        output();
    return n;
}

void TcpSocket::close() {
    switch (tcb_.state) {
        case State::kClosed:
        case State::kListen:
            setState(State::kClosed);
            return;
        case State::kSynSent:
            setState(State::kClosed);
            rexmitTimer_.stop();
            return;
        case State::kSynReceived:
        case State::kEstablished:
            tcb_.finQueued = true;
            setState(State::kFinWait1);
            output();
            return;
        case State::kCloseWait:
            tcb_.finQueued = true;
            setState(State::kLastAck);
            output();
            return;
        default:
            return;  // already closing
    }
}

void TcpSocket::abort() {
    if (tcb_.state != State::kClosed && tcb_.state != State::kListen &&
        tcb_.state != State::kSynSent && tcb_.state != State::kFailed) {
        Segment rst;
        rst.flags.rst = true;
        rst.flags.ack = true;
        rst.seq = tcb_.sndNxt;
        rst.ack = tcb_.rcvNxt;
        emit(rst);
    }
    rexmitTimer_.stop();
    persistTimer_.stop();
    delackTimer_.stop();
    keepAliveTimer_.stop();
    setState(State::kClosed);
}

void TcpSocket::dropSilently() {
    rexmitTimer_.stop();
    persistTimer_.stop();
    delackTimer_.stop();
    timeWaitTimer_.stop();
    keepAliveTimer_.stop();
    setState(State::kClosed);
}

// --- Output path -------------------------------------------------------------

std::uint32_t TcpSocket::effSndWindow() const {
    return std::min<std::uint32_t>(tcb_.cwnd, tcb_.sndWnd);
}

std::size_t TcpSocket::unsentBytes() const {
    const std::uint32_t offset = std::uint32_t(tcb_.sndNxt - tcb_.sndUna);
    // The FIN, once sent, occupies sequence space past the buffer; clamp.
    const std::size_t dataOffset = std::min<std::size_t>(offset, sendBuf_.size());
    return sendBuf_.size() - dataOffset;
}

void TcpSocket::output() {
    const InvariantCheck check{*this};
    switch (tcb_.state) {
        case State::kSynSent: {
            sendSegment(tcb_.iss, 0, false, true);
            if (seqLe(tcb_.sndNxt, tcb_.iss)) tcb_.sndNxt = tcb_.iss + 1;
            tcb_.sndMax = seqMax(tcb_.sndMax, tcb_.sndNxt);
            armRexmit();
            // A SYN-ACK is expected: a duty-cycled MAC must poll rapidly.
            stack_.netif().setExpectingResponse(true);
            return;
        }
        case State::kSynReceived: {
            sendSegment(tcb_.iss, 0, false, true);  // SYN+ACK (ACK added in emit)
            if (seqLe(tcb_.sndNxt, tcb_.iss)) tcb_.sndNxt = tcb_.iss + 1;
            tcb_.sndMax = seqMax(tcb_.sndMax, tcb_.sndNxt);
            armRexmit();
            stack_.netif().setExpectingResponse(true);
            return;
        }
        case State::kEstablished:
        case State::kCloseWait:
        case State::kFinWait1:
        case State::kClosing:
        case State::kLastAck:
            break;
        default:
            return;
    }

    const std::uint32_t wnd = effSndWindow();
    bool sentSomething = false;

    for (;;) {
        const std::uint32_t flight = std::uint32_t(tcb_.sndNxt - tcb_.sndUna);
        const std::size_t available = unsentBytes();
        const std::uint32_t usable = wnd > flight ? wnd - flight : 0;
        std::size_t len = std::min<std::size_t>({tcb_.mss, available, usable});

        const bool wantFin = tcb_.finQueued && !tcb_.finSent && available == len;
        if (len == 0 && !wantFin) break;
        if (len == 0 && wantFin && flight >= wnd && flight > 0) break;

        const Seq seq = tcb_.sndNxt;
        sendSegment(seq, len, wantFin && len == available, false);
        tcb_.sndNxt += std::uint32_t(len);
        if (wantFin && len == available) {
            finSeq_ = tcb_.sndNxt;
            tcb_.finSent = true;
            tcb_.sndNxt += 1;
        }
        tcb_.sndMax = seqMax(tcb_.sndMax, tcb_.sndNxt);
        sentSomething = true;
        if (len == 0) break;  // bare FIN
    }

    // Zero-window handling: data waiting, nothing in flight, window shut.
    if (!sentSomething && unsentBytes() > 0 && tcb_.sndWnd == 0 &&
        tcb_.sndNxt == tcb_.sndUna && !persistTimer_.running()) {
        tcb_.persisting = true;
        // Snapshot the un-backed-off RTO as the probe-backoff base. `rto`
        // itself may already be doubled by retransmit backoff (entering
        // persist from rexmitTimeout -> output), and shifting that doubled
        // value double-scaled the probe schedule.
        if (tcb_.persistRtoBase == 0) tcb_.persistRtoBase = baseRto();
        rexmitTimer_.stop();  // persist replaces the retransmit timer
        persistTimer_.start(persistDelay());
    }

    if (tcb_.sndNxt != tcb_.sndUna) armRexmit();
    stack_.netif().setExpectingResponse(tcb_.sndNxt != tcb_.sndUna);
}

void TcpSocket::sendSegment(Seq seq, std::size_t len, bool fin, bool syn) {
    Segment seg;
    seg.seq = seq;
    seg.flags.syn = syn;
    seg.flags.fin = fin;
    if (syn) {
        seg.mssOption = config_.mss;
        // WSopt (RFC 7323 §2.2): offered on our SYN when configured; echoed
        // on a SYN-ACK only if the peer's SYN carried it (tcb_.wsEnabled was
        // decided in beginPassiveOpen).
        if (tcb_.state == State::kSynSent ? config_.windowScaling : tcb_.wsEnabled)
            seg.windowScale = desiredRcvShift();
        seg.sackPermitted = config_.sack;
        if (config_.timestamps) seg.timestamps = Timestamps{tsNow(), 0};
        if (config_.ecn && tcb_.state == State::kSynSent) {
            // RFC 3168 negotiation: SYN carries ECE+CWR.
            seg.flags.ece = true;
            seg.flags.cwr = true;
        }
        if (config_.ecn && tcb_.state == State::kSynReceived && tcb_.ecnEnabled)
            seg.flags.ece = true;
    }
    if (len > 0) {
        const std::uint32_t offset = std::uint32_t(seq - tcb_.sndUna);
        seg.payload = sendBuf_.readSegment(offset, len);
        TCPLP_ASSERT(seg.payload.size() == len);
        if (offset + len >= sendBuf_.size()) seg.flags.psh = true;
        if (seqLt(seq, tcb_.sndMax)) ++stats_.retransmissions;
    }
    emit(seg);
}

void TcpSocket::emit(Segment& seg) {
    seg.srcPort = localPort_;
    seg.dstPort = remotePort_;
    // Everything after the initial SYN carries an ACK.
    if (!(seg.flags.syn && tcb_.state == State::kSynSent)) {
        seg.flags.ack = true;
        seg.ack = tcb_.rcvNxt;
    }
    const std::uint32_t maxAdv = std::uint32_t(
        std::min<std::uint64_t>(std::uint64_t(kMaxWindow) << tcb_.rcvWndShift, 0xffffffffu));
    std::uint32_t advWnd = std::uint32_t(std::min<std::size_t>(recvBuf_.window(), maxAdv));
    // Receiver-side SWS avoidance (RFC 1122 §4.2.3.3): once a zero window
    // was advertised, keep it shut until at least min(MSS, capacity/2) has
    // opened — a trickle-reading application must not pull the peer into
    // a 1-byte probe/ACK oscillation.
    if (sentAdvWndZero_ && !seg.flags.syn && advWnd < swsThreshold()) advWnd = 0;
    seg.setWindowBytes(advWnd, tcb_.rcvWndShift);
    sentAdvWndZero_ = (advWnd == 0);

    if (tcb_.tsEnabled && !seg.timestamps)
        seg.timestamps = Timestamps{tsNow(), tcb_.tsRecent};
    if (tcb_.sackEnabled && !seg.flags.syn) {
        const auto ranges = recvBuf_.sackRanges();
        for (const RecvRange& r : ranges)
            seg.sackBlocks.push_back(
                SackBlock{tcb_.rcvNxt + std::uint32_t(r.begin), tcb_.rcvNxt + std::uint32_t(r.end)});
    }
    if (tcb_.ecnEnabled) {
        if (tcb_.ecnEchoPending) seg.flags.ece = true;
        if (tcb_.cwrPending && !seg.payload.empty()) {
            seg.flags.cwr = true;
            tcb_.cwrPending = false;
        }
    }

    // Sending any ACK quashes the delayed-ACK state.
    if (seg.flags.ack) {
        tcb_.delAckPending = 0;
        delackTimer_.stop();
    }

    ++stats_.segsSent;
    stats_.bytesSent += seg.payload.size();
    stack_.transmit(*this, seg);
}

void TcpSocket::sendAckNow() {
    Segment seg;
    seg.seq = tcb_.sndNxt;
    emit(seg);
}

Bytes TcpSocket::read(std::size_t n) {
    Bytes out = recvBuf_.read(n);
    // If the last advertised window was zero and enough space opened (the
    // SWS threshold — not just one byte), send a window update so the
    // peer's persist timer can stand down.
    if (!out.empty() && sentAdvWndZero_ && recvBuf_.window() >= swsThreshold())
        sendAckNow();
    return out;
}

void TcpSocket::scheduleDelack() {
    if (!delackTimer_.running()) delackTimer_.start(config_.delAckTimeout);
}

// --- Timers -------------------------------------------------------------------

sim::Time TcpSocket::baseRto() const {
    if (tcb_.srtt == 0) return config_.initialRto;
    return std::clamp<sim::Time>(
        tcb_.srtt + std::max<sim::Time>(4 * tcb_.rttvar, 10 * sim::kMillisecond),
        config_.minRto, config_.maxRto);
}

sim::Time TcpSocket::persistDelay() const {
    const sim::Time base = std::max<sim::Time>(tcb_.persistRtoBase, 1);
    // Clamp before shifting: once base << shift would pass persistMax the
    // exact product no longer matters (and must not overflow).
    if (base > (config_.persistMax >> tcb_.persistShift)) return config_.persistMax;
    return std::clamp<sim::Time>(base << tcb_.persistShift, config_.persistMin,
                                 config_.persistMax);
}

void TcpSocket::armRexmit() {
    // Persist mode owns the timer slot: window probes are paced by the
    // persist timer and must not count against the retransmission limit
    // (a peer is allowed to advertise a zero window indefinitely).
    if (tcb_.persisting) return;
    if (!rexmitTimer_.running()) rexmitTimer_.start(tcb_.rto);
}

void TcpSocket::rexmitTimeout() {
    if (tcb_.state == State::kClosed || tcb_.state == State::kTimeWait ||
        tcb_.state == State::kFailed)
        return;

    ++stats_.timeouts;
    ++tcb_.rxtShift;
    // RFC 1122 §4.2.3.5 R1: warn the application that delivery is in
    // trouble, but keep trying until R2.
    if (config_.rexmitNotifyThreshold > 0 &&
        int(tcb_.rxtShift) == config_.rexmitNotifyThreshold) {
        ++stats_.rexmitNotifications;
        if (onRexmitTrouble_) onRexmitTrouble_();
        if (tcb_.state == State::kClosed || tcb_.state == State::kFailed)
            return;  // callback tore the connection down
    }
    // R2: give up. kFailed is terminal and visibly distinct from a close.
    if (tcb_.rxtShift > config_.maxRetransmits) {
        ++stats_.rexmitGiveUps;
        connectionFailed();
        return;
    }
    tcb_.rto = std::min<sim::Time>(tcb_.rto * 2, config_.maxRto);

    if (tcb_.state == State::kSynSent || tcb_.state == State::kSynReceived) {
        output();  // retransmit SYN / SYN+ACK
        rexmitTimer_.start(tcb_.rto);
        return;
    }

    // Loss response (RFC 5681 §3.1 on timeout): the strategy decides the
    // ssthresh, the cwnd collapse to one segment is protocol-mandated.
    cc_->onRtoFire(stack_.simulator().now());
    traceCwnd();

    // Rewind and retransmit from the oldest unacknowledged byte.
    tcb_.sndNxt = tcb_.sndUna;
    if (tcb_.finSent && seqLe(tcb_.sndNxt, finSeq_)) tcb_.finSent = false;
    output();
    // output() may have handed the connection to the persist machinery
    // (zero window): probes are not retransmissions and must not expire it.
    if (!tcb_.persisting) rexmitTimer_.start(tcb_.rto);
}

void TcpSocket::persistTimeout() {
    if (unsentBytes() == 0 || tcb_.sndWnd > 0) {
        tcb_.persisting = false;
        tcb_.persistShift = 0;
        tcb_.persistRtoBase = 0;
        return;
    }
    // Collapse the probe path into the same give-up logic as R2: a live peer
    // answering probes resets the count (notePeerActivity), so only an
    // unreachable one accumulates unanswered probes.
    if (config_.maxPersistProbes > 0 &&
        persistProbesUnanswered_ >= config_.maxPersistProbes) {
        ++stats_.persistGiveUps;
        connectionFailed();
        return;
    }
    // Send a one-byte window probe past the advertised window. The probe is
    // re-sent by the persist timer itself, never by the retransmit timer.
    ++stats_.zeroWindowProbes;
    ++persistProbesUnanswered_;
    sendSegment(tcb_.sndUna, 1, false, false);
    if (tcb_.persistShift < 10) ++tcb_.persistShift;
    persistTimer_.start(persistDelay());
}

void TcpSocket::armKeepAlive() {
    if (config_.keepAliveIdle == 0) return;
    keepAliveUnanswered_ = 0;
    keepAliveTimer_.stop();
    keepAliveTimer_.start(config_.keepAliveIdle);
}

void TcpSocket::keepAliveTimeout() {
    if (tcb_.state != State::kEstablished && tcb_.state != State::kCloseWait) return;
    const sim::Time idle = stack_.simulator().now() - lastRecvAt_;
    if (idle < config_.keepAliveIdle) {
        // The peer spoke since the timer was armed; re-arm for the remainder.
        keepAliveTimer_.start(config_.keepAliveIdle - idle);
        return;
    }
    if (keepAliveUnanswered_ >= config_.keepAliveProbes) {
        ++stats_.keepAliveGiveUps;
        connectionFailed();
        return;
    }
    sendKeepAliveProbe();
    ++keepAliveUnanswered_;
    keepAliveTimer_.start(config_.keepAliveInterval);
}

void TcpSocket::sendKeepAliveProbe() {
    // BSD-style probe: zero-length segment at sndNxt-1. The sequence number
    // is below the peer's rcvNxt, so the acceptability test rejects it and
    // the peer answers with a bare ACK — exactly the liveness signal needed.
    ++stats_.keepAliveProbesSent;
    Segment seg;
    seg.seq = tcb_.sndNxt - 1;
    emit(seg);
}

void TcpSocket::notePeerActivity() {
    lastRecvAt_ = stack_.simulator().now();
    keepAliveUnanswered_ = 0;
    persistProbesUnanswered_ = 0;
}

void TcpSocket::enterTimeWait() {
    setState(State::kTimeWait);
    rexmitTimer_.stop();
    persistTimer_.stop();
    keepAliveTimer_.stop();
    timeWaitTimer_.start(2 * config_.msl);
}

void TcpSocket::connectionDropped() {
    rexmitTimer_.stop();
    persistTimer_.stop();
    delackTimer_.stop();
    keepAliveTimer_.stop();
    setState(State::kClosed);
    stack_.netif().setExpectingResponse(false);
    if (onError_) onError_();
}

void TcpSocket::connectionFailed() {
    rexmitTimer_.stop();
    persistTimer_.stop();
    delackTimer_.stop();
    keepAliveTimer_.stop();
    setState(State::kFailed);
    stack_.netif().setExpectingResponse(false);
    if (onError_) onError_();
}

// --- Input path ----------------------------------------------------------------

void TcpSocket::beginPassiveOpen(const Segment& syn, const ip6::Address& peer) {
    remoteAddr_ = peer;
    remotePort_ = syn.srcPort;

    tcb_.irs = syn.seq;
    tcb_.rcvNxt = syn.seq + 1;
    tcb_.iss = stack_.nextIss();
    tcb_.sndUna = tcb_.iss;
    tcb_.sndNxt = tcb_.iss;
    tcb_.sndMax = tcb_.iss;
    tcb_.sndWnd = syn.windowBytes(0);  // a SYN's window is never scaled
    tcb_.sndWl1 = syn.seq;
    tcb_.sndWl2 = 0;

    if (syn.mssOption) tcb_.mss = std::min(config_.mss, *syn.mssOption);
    if (config_.windowScaling && syn.windowScale) {
        // RFC 7323 §2.2: scaling is on only when both SYNs carry WSopt; a
        // peer shift above 14 is clamped, not rejected.
        tcb_.wsEnabled = true;
        tcb_.sndWndShift = std::min(*syn.windowScale, kMaxWindowShift);
        tcb_.rcvWndShift = desiredRcvShift();
    }
    tcb_.sackEnabled = config_.sack && syn.sackPermitted;
    if (config_.timestamps && syn.timestamps) {
        tcb_.tsEnabled = true;
        tcb_.tsRecent = syn.timestamps->value;
    }
    tcb_.ecnEnabled = config_.ecn && syn.flags.ece && syn.flags.cwr;
    cc_->onOpen();

    setState(State::kSynReceived);
    output();
}

void TcpSocket::input(const Segment& seg, ip6::Ecn ipEcn) {
    const InvariantCheck check{*this};
    ++stats_.segsReceived;
    if (tcb_.state == State::kClosed || tcb_.state == State::kFailed) return;
    notePeerActivity();

    // ECN: remember congestion marks to echo (receiver role).
    if (tcb_.ecnEnabled && ipEcn == ip6::Ecn::kCongestionExperienced)
        tcb_.ecnEchoPending = true;
    if (tcb_.ecnEnabled && seg.flags.cwr) tcb_.ecnEchoPending = false;

    if (tcb_.state == State::kSynSent) {
        if (seg.flags.rst) {
            if (seg.flags.ack && seg.ack == tcb_.iss + 1) connectionDropped();
            return;
        }
        if (seg.flags.syn && seg.flags.ack) {
            if (seg.ack != tcb_.iss + 1) {
                sendChallengeAck();
                return;
            }
            tcb_.irs = seg.seq;
            tcb_.rcvNxt = seg.seq + 1;
            tcb_.sndUna = seg.ack;
            tcb_.sndWnd = seg.windowBytes(0);  // SYN-ACK window is unscaled
            tcb_.sndWl1 = seg.seq;
            tcb_.sndWl2 = seg.ack;
            if (seg.mssOption) tcb_.mss = std::min(config_.mss, *seg.mssOption);
            if (config_.windowScaling && seg.windowScale) {
                tcb_.wsEnabled = true;
                tcb_.sndWndShift = std::min(*seg.windowScale, kMaxWindowShift);
                tcb_.rcvWndShift = desiredRcvShift();
            }
            tcb_.sackEnabled = config_.sack && seg.sackPermitted;
            if (config_.timestamps && seg.timestamps) {
                tcb_.tsEnabled = true;
                tcb_.tsRecent = seg.timestamps->value;
            }
            tcb_.ecnEnabled = config_.ecn && seg.flags.ece;
            cc_->onIdleRestart();  // MSS renegotiated: restart the window
            rexmitTimer_.stop();
            tcb_.rxtShift = 0;
            setState(State::kEstablished);
            armKeepAlive();
            sendAckNow();
            if (onConnected_) onConnected_();
            output();
            return;
        }
        if (seg.flags.syn) {
            // Simultaneous open.
            tcb_.irs = seg.seq;
            tcb_.rcvNxt = seg.seq + 1;
            if (seg.mssOption) tcb_.mss = std::min(config_.mss, *seg.mssOption);
            setState(State::kSynReceived);
            output();
        }
        return;
    }

    // --- Sequence acceptability (RFC 793 p.69) -------------------------
    const std::uint32_t segLen =
        std::uint32_t(seg.payload.size()) + (seg.flags.syn ? 1 : 0) + (seg.flags.fin ? 1 : 0);
    const std::uint32_t rcvWnd = std::uint32_t(recvBuf_.window());
    const bool okStart = seqGe(seg.seq, tcb_.rcvNxt) && seqLt(seg.seq, tcb_.rcvNxt + rcvWnd);
    const bool okEnd = segLen > 0 && seqGt(seg.seq + segLen, tcb_.rcvNxt) &&
                       seqLe(seg.seq + segLen, tcb_.rcvNxt + rcvWnd + tcb_.mss);
    const bool zeroLenOk = segLen == 0 && (rcvWnd > 0 ? okStart : seg.seq == tcb_.rcvNxt);
    const bool overlapsWindow =
        okStart || okEnd || zeroLenOk ||
        (segLen > 0 && seqLe(seg.seq, tcb_.rcvNxt) && seqGt(seg.seq + segLen, tcb_.rcvNxt));
    if (!overlapsWindow) {
        // RFC 7323: even an unacceptable segment (e.g. a fully duplicate
        // retransmission) refreshes the timestamp echo state when it covers
        // rcvNxt and its TSval is not older than the current one (R4's
        // monotonicity guard — reordered duplicates must not move the echo
        // backwards). Skipping this left tsRecent frozen at the pre-loss
        // value, and the eventual ACK's stale echo injected a multi-second
        // RTT sample that blew up srtt/rttvar (and with them RTO and the
        // persist-probe base) right when the path healed.
        if (tcb_.tsEnabled && seg.timestamps && seqLe(seg.seq, tcb_.rcvNxt) &&
            seqGe(seg.timestamps->value, tcb_.tsRecent))
            tcb_.tsRecent = seg.timestamps->value;
        if (!seg.flags.rst) sendAckNow();  // keep the peer synchronized
        return;
    }

    if (seg.flags.rst) {
        // RFC 5961: only an exact-match RST kills the connection; in-window
        // but inexact elicits a challenge ACK.
        if (seg.seq == tcb_.rcvNxt) {
            handleRst();
        } else {
            sendChallengeAck();
        }
        return;
    }

    if (seg.flags.syn) {
        // SYN on a synchronized connection: challenge ACK (RFC 5961).
        sendChallengeAck();
        return;
    }

    if (!seg.flags.ack) return;

    // Timestamp bookkeeping (RFC 7323): echo the most recent in-window TSval.
    // R4's monotonicity guard keeps a reordered old duplicate from moving
    // the echo backwards (a stale echo becomes an inflated RTT sample).
    if (tcb_.tsEnabled && seg.timestamps && seqLe(seg.seq, tcb_.rcvNxt) &&
        seqGe(seg.timestamps->value, tcb_.tsRecent))
        tcb_.tsRecent = seg.timestamps->value;

    tryHeaderPrediction(seg);

    if (tcb_.state == State::kSynReceived) {
        if (seqGt(seg.ack, tcb_.sndUna) && seqLe(seg.ack, tcb_.sndMax)) {
            tcb_.sndUna = seg.ack;
            tcb_.sndWnd = seg.windowBytes(tcb_.sndWndShift);
            tcb_.sndWl1 = seg.seq;
            tcb_.sndWl2 = seg.ack;
            rexmitTimer_.stop();
            tcb_.rxtShift = 0;
            setState(State::kEstablished);
            armKeepAlive();
            if (onConnected_) onConnected_();
        } else {
            return;
        }
    }

    if (tcb_.sackEnabled) processSackBlocks(seg.sackBlocks);
    if (tcb_.ecnEnabled && seg.flags.ece && cc_->onEce()) {
        ++stats_.ecnResponses;
        traceCwnd();
    }
    processAck(seg);
    updateWindow(seg);
    if (!seg.payload.empty()) processData(seg);
    if (seg.flags.fin) processFin(seg);
}

bool TcpSocket::tryHeaderPrediction(const Segment& seg) {
    // FreeBSD-style fast path check (§4.1 "header prediction"): established
    // state, no exotic flags, in-order, window unchanged. The slow path is
    // always taken afterwards for correctness; this counter documents how
    // often the fast path would short-circuit processing.
    if (tcb_.state != State::kEstablished) return false;
    if (seg.flags.syn || seg.flags.fin || seg.flags.rst || seg.flags.ece) return false;
    if (seg.seq != tcb_.rcvNxt) return false;
    // "Window unchanged": compare in bytes through the shift-aware decode —
    // the raw 16-bit field must never be compared against the 32-bit
    // tcb_.sndWnd directly (it silently truncates once scaling is on).
    if (seg.windowBytes(tcb_.sndWndShift) != tcb_.sndWnd) return false;
    const bool pureAck = seg.payload.empty() && seqGt(seg.ack, tcb_.sndUna) &&
                         seqLe(seg.ack, tcb_.sndMax) && !tcb_.inFastRecovery;
    const bool pureData = !seg.payload.empty() && seg.ack == tcb_.sndUna &&
                          recvBuf_.outOfOrderBytes() == 0;
    if (pureAck || pureData) {
        ++stats_.headerPredictions;
        return true;
    }
    return false;
}

void TcpSocket::processAck(const Segment& seg) {
    if (seqGt(seg.ack, tcb_.sndMax)) {
        // Acking data we never sent.
        sendChallengeAck();
        return;
    }

    if (seqLe(seg.ack, tcb_.sndUna)) {
        // Duplicate ACK detection (RFC 5681): no payload, no window change,
        // outstanding data.
        const bool dup = seg.payload.empty() && seg.ack == tcb_.sndUna &&
                         seg.windowBytes(tcb_.sndWndShift) == tcb_.sndWnd &&
                         tcb_.sndNxt != tcb_.sndUna && !seg.flags.fin;
        if (!dup) return;
        ++stats_.dupAcksReceived;
        ++tcb_.dupAcks;
        if (tcb_.dupAcks == 3) {
            enterFastRecovery();
        } else if (tcb_.dupAcks > 3 && tcb_.inFastRecovery) {
            cc_->onDupAckInflate();  // window inflation (RFC 5681)
            traceCwnd();
            // SACK-driven hole filling (Table 1: Selective ACKs).
            if (tcb_.sackEnabled) {
                if (auto hole = nextSackHole()) {
                    const std::size_t len = std::min<std::size_t>(
                        tcb_.mss, sendBuf_.size() - std::uint32_t(*hole - tcb_.sndUna));
                    if (len > 0) {
                        ++stats_.sackRetransmissions;
                        sendSegment(*hole, len, false, false);
                    }
                }
            }
            output();
        }
        return;
    }

    // Forward ACK.
    const std::uint32_t acked = std::uint32_t(seg.ack - tcb_.sndUna);
    const std::size_t bufferedAcked = std::min<std::size_t>(acked, sendBuf_.size());
    sendBuf_.ack(bufferedAcked);
    stats_.bytesAcked += bufferedAcked;

    // RTT sampling: timestamps make retransmitted segments measurable —
    // the property §9.4 contrasts with CoCoA's inflated estimates.
    if (tcb_.tsEnabled && seg.timestamps && seg.timestamps->echo != 0) {
        const std::uint32_t nowMs = tsNow();
        const std::uint32_t rttMs = nowMs - seg.timestamps->echo;
        if (std::int32_t(rttMs) >= 0 && rttMs < 120000) updateRtt(sim::Time(rttMs) * sim::kMillisecond);
    }
    // RFC 6298 §5.7: a fresh ACK after a retransmit backoff re-initializes
    // the RTO from srtt/rttvar instead of leaving it at the doubled value —
    // without timestamps no RTT sample would ever repair it (Karn's rule
    // forbids sampling retransmitted segments).
    if (tcb_.rxtShift > 0) tcb_.rto = baseRto();
    tcb_.rxtShift = 0;

    const bool finWasAcked = tcb_.finSent && seqGe(seg.ack, finSeq_ + 1);
    bool partialAck = false;

    if (tcb_.inFastRecovery) {
        if (seqGe(seg.ack, tcb_.recover)) {
            exitFastRecovery(seg.ack);
        } else {
            // NewReno partial ACK (RFC 6582): retransmit the next hole,
            // deflate by the amount acked, stay in recovery.
            partialAck = true;
            tcb_.sndUna = seg.ack;
            if (seqLt(tcb_.sndNxt, tcb_.sndUna)) tcb_.sndNxt = tcb_.sndUna;
            dropSackedBelow(seg.ack);
            Seq rexmitFrom = seg.ack;
            if (tcb_.sackEnabled) {
                if (auto hole = nextSackHole()) rexmitFrom = *hole;
            }
            const std::uint32_t off = std::uint32_t(rexmitFrom - tcb_.sndUna);
            if (sendBuf_.size() > off) {
                const std::size_t holeLen =
                    std::min<std::size_t>(tcb_.mss, sendBuf_.size() - off);
                sendSegment(rexmitFrom, holeLen, false, false);
            }
            cc_->onPartialAck(stack_.simulator().now(), acked);
            traceCwnd();
        }
    } else if (acked > 0) {
        cc_->onAck(stack_.simulator().now(), acked);
        traceCwnd();
    }

    if (!partialAck) {
        tcb_.sndUna = seg.ack;
        if (seqLt(tcb_.sndNxt, tcb_.sndUna)) tcb_.sndNxt = tcb_.sndUna;
        dropSackedBelow(seg.ack);
        tcb_.dupAcks = 0;
    }

    rexmitTimer_.stop();
    if (tcb_.sndNxt != tcb_.sndUna) armRexmit();
    stack_.netif().setExpectingResponse(tcb_.sndNxt != tcb_.sndUna);

    if (finWasAcked) tcb_.ourFinAcked = true;
    maybeFinishClose(finWasAcked);

    if (onSendSpace_ && bufferedAcked > 0) onSendSpace_();
    output();
}

void TcpSocket::maybeFinishClose(bool finAcked) {
    (void)finAcked;
    if (!tcb_.ourFinAcked) return;
    switch (tcb_.state) {
        case State::kFinWait1:
            setState(State::kFinWait2);
            break;
        case State::kClosing:
            enterTimeWait();
            break;
        case State::kLastAck:
            rexmitTimer_.stop();
            persistTimer_.stop();
            setState(State::kClosed);
            if (onClosed_) onClosed_();
            break;
        default:
            break;
    }
}

void TcpSocket::updateWindow(const Segment& seg) {
    // A segment acking data we never sent already drew a challenge ACK in
    // processAck; its window field is just as untrustworthy. Without this
    // guard it would pass the WL1/WL2 check below (its bogus future ack
    // exceeds sndWl2), overwrite sndWnd, AND park sndWl2 at the bogus ack —
    // blocking every legitimate window update until sndUna catches up.
    if (seqGt(seg.ack, tcb_.sndMax)) return;
    // RFC 793 SND.WL1/SND.WL2 ordering: only a segment at least as recent
    // as the last window update may change the window — a reordered old
    // segment must not overwrite sndWnd with its stale value.
    if (seqLt(tcb_.sndWl1, seg.seq) ||
        (tcb_.sndWl1 == seg.seq && seqLe(tcb_.sndWl2, seg.ack))) {
        const std::uint32_t oldWnd = tcb_.sndWnd;
        tcb_.sndWnd = seg.windowBytes(tcb_.sndWndShift);
        tcb_.sndWl1 = seg.seq;
        tcb_.sndWl2 = seg.ack;
        if (oldWnd == 0 && tcb_.sndWnd > 0) {
            // Window opened: cancel persist mode and push data.
            persistTimer_.stop();
            tcb_.persisting = false;
            tcb_.persistShift = 0;
            tcb_.persistRtoBase = 0;
            output();
        }
    }
}

void TcpSocket::processData(const Segment& seg) {
    const std::int32_t rel = seqDiff(seg.seq, tcb_.rcvNxt);
    BytesView data(seg.payload);
    std::size_t offset = 0;
    if (rel < 0) {
        const std::size_t skip = std::size_t(-rel);
        if (skip >= data.size()) {
            // Entirely duplicate data: ACK immediately to repair peer state.
            sendAckNow();
            return;
        }
        data = data.subspan(skip);
    } else {
        offset = std::size_t(rel);
    }

    if (config_.dropOutOfOrder && offset != 0) {
        sendAckNow();  // dup ACK; the data itself is discarded
        return;
    }

    // Receiver-side RTT for the autotune stop condition. A pure receiver
    // never ACK-clocks its own data, so srtt stays 0 here; but with RFC 7323
    // timestamps the peer echoes the tsval of our latest ACK, making
    // now - echo a round-trip sample. Min-tracked so the early, unbloated
    // segments pin the *base* RTT before autotune growth can fill queues.
    if (config_.recvBufferMaxBytes > recvBuf_.capacity() && tcb_.tsEnabled &&
        seg.timestamps && seg.timestamps->echo != 0) {
        const std::uint32_t rttMs = tsNow() - seg.timestamps->echo;
        if (std::int32_t(rttMs) >= 0 && rttMs < 120000) {
            const sim::Time sample = sim::Time(rttMs) * sim::kMillisecond;
            if (autotuneBaseRtt_ == 0 || sample < autotuneBaseRtt_)
                autotuneBaseRtt_ = sample;
        }
    }

    const std::size_t advanced = recvBuf_.insert(offset, data);
    tcb_.rcvNxt += std::uint32_t(advanced);
    if (advanced > 0) maybeAutotune();

    // Deliver in-sequence bytes to the application (auto-drain). The scratch
    // vector is a member so its capacity is reused delivery after delivery.
    if (advanced > 0 && onData_) {
        recvBuf_.readInto(recvBuf_.readable(), drainScratch_);
        onData_(drainScratch_);
    }

    const bool outOfOrder = offset != 0 || recvBuf_.outOfOrderBytes() > 0;
    if (outOfOrder) {
        // Immediate duplicate ACK carrying SACK blocks.
        sendAckNow();
    } else if (!config_.delayedAck) {
        sendAckNow();
    } else {
        ++tcb_.delAckPending;
        if (tcb_.delAckPending >= 2) {
            sendAckNow();  // ACK every other full-sized segment (RFC 1122)
        } else {
            scheduleDelack();
        }
    }
}

void TcpSocket::maybeAutotune() {
    // DRS-style receive-buffer autotuning (Fisk & Feng): a sender limited by
    // our advertised window delivers exactly one buffer's worth per RTT, so
    // the time for rcvNxt to advance one capacity past the mark *is* the
    // RTT whenever the buffer binds. Target twice the bytes delivered per
    // measured interval — a buffer-limited flow doubles each round until
    // the buffer stops binding or the budget is reached.
    if (config_.recvBufferMaxBytes <= recvBuf_.capacity()) return;
    const sim::Time now = stack_.simulator().now();
    if (!autotuneArmed_) {
        autotuneArmed_ = true;
        autotuneMark_ = tcb_.rcvNxt;
        autotuneMarkAt_ = now;
        return;
    }
    const std::uint32_t delivered = std::uint32_t(tcb_.rcvNxt - autotuneMark_);
    if (delivered < recvBuf_.capacity()) return;  // buffer has not turned over
    const sim::Time interval = now - autotuneMarkAt_;
    autotuneLastRtt_ = interval;
    autotuneMark_ = tcb_.rcvNxt;
    autotuneMarkAt_ = now;
    // DRS's stop condition: growth helps only while the buffer *binds* —
    // the sender then turns the whole buffer over in about one RTT. Slower
    // turnover means the flow is cwnd- or loss-limited, and growing the
    // window further would only bloat queues. The comparison must use the
    // *base* (minimum-seen) RTT — sampled passively from timestamp echoes
    // in processData — not a smoothed current estimate: once queues build,
    // a smoothed RTT inflates in lockstep with the turnover interval and
    // the bound would chase its own tail, growing to the budget regardless
    // of path BDP (the trap the bdp_line radio sweep pins against the
    // genuinely window-starved bdp_pipe grid).
    if (autotuneBaseRtt_ > 0 && interval > 2 * autotuneBaseRtt_) return;
    const std::size_t target = std::min<std::size_t>(
        2 * std::size_t(delivered), config_.recvBufferMaxBytes);
    if (target > recvBuf_.capacity()) recvBuf_.grow(target);
}

void TcpSocket::processFin(const Segment& seg) {
    const Seq finSeq = seg.seq + std::uint32_t(seg.payload.size());
    if (finSeq != tcb_.rcvNxt) return;  // data before the FIN still missing
    tcb_.rcvNxt += 1;
    sendAckNow();
    switch (tcb_.state) {
        case State::kEstablished:
            setState(State::kCloseWait);
            if (onPeerFin_) onPeerFin_();
            break;
        case State::kFinWait1:
            if (tcb_.ourFinAcked) {
                enterTimeWait();
            } else {
                setState(State::kClosing);
            }
            if (onPeerFin_) onPeerFin_();
            break;
        case State::kFinWait2:
            enterTimeWait();
            if (onPeerFin_) onPeerFin_();
            break;
        default:
            break;
    }
}

void TcpSocket::handleRst() {
    connectionDropped();
}

void TcpSocket::sendChallengeAck() {
    ++stats_.challengeAcks;
    sendAckNow();
}

void TcpSocket::updateRtt(sim::Time sample) {
    stats_.rttSamples.add(sim::toMillis(sample));
    if (tcb_.srtt == 0) {
        tcb_.srtt = sample;
        tcb_.rttvar = sample / 2;
    } else {
        const sim::Time err = sample - tcb_.srtt;
        tcb_.srtt += err / 8;
        tcb_.rttvar += ((err < 0 ? -err : err) - tcb_.rttvar) / 4;
    }
    tcb_.rto = baseRto();
    cc_->onRttSample(sample);
}

// --- Congestion control ---------------------------------------------------
// Window policy lives in the strategy (tcp/congestion.hpp); the socket keeps
// the protocol side — what to retransmit and when to restart the timer.

void TcpSocket::enterFastRecovery() {
    if (tcb_.inFastRecovery) return;
    // The strategy cuts (or holds) ssthresh, arms the recovery point and
    // inflates cwnd; retransmission below never reads cwnd/ssthresh.
    cc_->onEnterRecovery(stack_.simulator().now());
    ++stats_.fastRetransmissions;

    // Retransmit the presumed-lost segment (first SACK hole if known).
    Seq from = tcb_.sndUna;
    if (tcb_.sackEnabled) {
        if (auto hole = nextSackHole()) from = *hole;
    }
    const std::uint32_t off = std::uint32_t(from - tcb_.sndUna);
    const std::size_t len =
        std::min<std::size_t>(tcb_.mss, sendBuf_.size() > off ? sendBuf_.size() - off : 0);
    if (len > 0) {
        sendSegment(from, len, false, false);
    } else if (tcb_.finSent) {
        sendSegment(finSeq_, 0, true, false);  // lost FIN
    }

    traceCwnd();
    rexmitTimer_.stop();
    armRexmit();
}

void TcpSocket::exitFastRecovery(Seq ack) {
    (void)ack;
    cc_->onExitRecovery(stack_.simulator().now());
    traceCwnd();
}

// --- SACK scoreboard --------------------------------------------------------

void TcpSocket::mergeSack(SackBlock block) {
    if (seqGe(block.begin, block.end)) return;
    if (seqLe(block.end, tcb_.sndUna)) return;
    if (seqLt(block.begin, tcb_.sndUna)) block.begin = tcb_.sndUna;

    // The scoreboard is sorted by begin and coalesced (no two blocks touch),
    // so the blocks the new one touches are adjacent: absorb them into the
    // first and erase the rest, or insert the block where it sorts.
    auto first = std::find_if(scoreboard_.begin(), scoreboard_.end(),
                              [&](const SackBlock& b) { return seqGe(b.end, block.begin); });
    auto last = first;
    for (; last != scoreboard_.end() && seqLe(last->begin, block.end); ++last) {
        block.begin = seqMin(block.begin, last->begin);
        block.end = seqMax(block.end, last->end);
    }
    if (first == last) {
        scoreboard_.insert(first, block);
    } else {
        *first = block;
        scoreboard_.erase(first + 1, last);
    }
}

void TcpSocket::processSackBlocks(const std::vector<SackBlock>& blocks) {
    for (const SackBlock& b : blocks) mergeSack(b);
}

bool TcpSocket::isSacked(Seq from, Seq to) const {
    for (const SackBlock& b : scoreboard_) {
        if (seqLe(b.begin, from) && seqGe(b.end, to)) return true;
    }
    return false;
}

std::optional<Seq> TcpSocket::nextSackHole() const {
    if (scoreboard_.empty()) return std::nullopt;
    Seq cursor = tcb_.sndUna;
    for (const SackBlock& b : scoreboard_) {
        if (seqLt(cursor, b.begin)) return cursor;  // hole before this block
        cursor = seqMax(cursor, b.end);
    }
    if (seqLt(cursor, tcb_.sndNxt)) return cursor;  // hole after last block
    return std::nullopt;
}

void TcpSocket::dropSackedBelow(Seq seq) {
    for (auto it = scoreboard_.begin(); it != scoreboard_.end();) {
        if (seqLe(it->end, seq)) {
            it = scoreboard_.erase(it);
        } else {
            if (seqLt(it->begin, seq)) it->begin = seq;
            ++it;
        }
    }
}

// ---------------------------------------------------------------------------
// TcpStack
// ---------------------------------------------------------------------------

TcpStack::TcpStack(ip6::NetIf& netif) : netif_(netif) {
    netif_.registerProtocol(ip6::kProtoTcp,
                            [this](const ip6::Packet& p) { packetInput(p); });
}

TcpSocket& TcpStack::createSocket(TcpConfig config) {
    sockets_.push_back(std::make_unique<TcpSocket>(*this, config));
    return *sockets_.back();
}

PassiveSocket& TcpStack::listen(std::uint16_t port, TcpConfig config,
                                PassiveSocket::AcceptCallback cb) {
    listeners_.push_back(
        std::make_unique<PassiveSocket>(*this, port, config, std::move(cb)));
    return *listeners_.back();
}

void TcpStack::destroySocket(TcpSocket& socket) {
    for (auto it = sockets_.begin(); it != sockets_.end(); ++it) {
        if (it->get() == &socket) {
            sockets_.erase(it);
            return;
        }
    }
}

void TcpStack::dropAllConnectionsSilently() {
    for (auto& s : sockets_) s->dropSilently();
}

void TcpStack::transmit(TcpSocket& socket, Segment& seg) {
    ip6::Packet packet;
    packet.src = netif_.address();
    packet.dst = socket.remoteAddr_;
    packet.nextHeader = ip6::kProtoTcp;
    if (socket.tcb_.ecnEnabled && !seg.payload.empty())
        packet.setEcn(ip6::Ecn::kCapable0);
    packet.payload = seg.encode();
    netif_.sendPacket(std::move(packet));
}

void TcpStack::packetInput(const ip6::Packet& packet) {
    const auto seg = Segment::decode(packet.payload);
    if (!seg) return;

    // Exact four-tuple match.
    for (auto& s : sockets_) {
        if (s->tcb_.state == State::kClosed || s->tcb_.state == State::kFailed) continue;
        if (s->localPort_ == seg->dstPort && s->remotePort_ == seg->srcPort &&
            s->remoteAddr_ == packet.src) {
            s->input(*seg, packet.ecn());
            return;
        }
    }
    // Listener match: new connection.
    if (seg->flags.syn && !seg->flags.ack) {
        for (auto& l : listeners_) {
            if (l->port_ == seg->dstPort) {
                TcpSocket& child = createSocket(l->config_);
                child.localPort_ = seg->dstPort;
                if (l->accept_) l->accept_(child);
                child.beginPassiveOpen(*seg, packet.src);
                return;
            }
        }
    }
    sendRst(*seg, packet.src);
}

void TcpStack::sendRst(const Segment& toSeg, const ip6::Address& dst) {
    if (toSeg.flags.rst) return;
    Segment rst;
    rst.srcPort = toSeg.dstPort;
    rst.dstPort = toSeg.srcPort;
    rst.flags.rst = true;
    if (toSeg.flags.ack) {
        rst.seq = toSeg.ack;
    } else {
        rst.flags.ack = true;
        rst.ack = toSeg.seq + std::uint32_t(toSeg.payload.size()) + (toSeg.flags.syn ? 1 : 0) +
                  (toSeg.flags.fin ? 1 : 0);
    }
    ip6::Packet packet;
    packet.src = netif_.address();
    packet.dst = dst;
    packet.nextHeader = ip6::kProtoTcp;
    packet.payload = rst.encode();
    netif_.sendPacket(std::move(packet));
}

}  // namespace tcplp::tcp
