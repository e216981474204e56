#include "transport/transport.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/system.hpp"
#include "obs/observer.hpp"

namespace fdgm::transport {

namespace {

/// Initial retransmission timeout per channel (ms).
constexpr double kRtoMs = 50.0;
/// RTO multiplier applied after every timer-driven retransmission round.
constexpr double kBackoff = 2.0;
/// Backoff ceiling (ms).
constexpr double kMaxRtoMs = 3200.0;
/// Base spacing between NACKs of one receiving channel (ms).  While the
/// same gap frontier persists, the spacing doubles per re-NACK (capped at
/// 16x) and resets when the frontier advances: re-NACKs exist to cover a
/// *lost* NACK, so their steady rate must track the loss probability, not
/// the arrival rate — every NACK burns a wire slot the recovery is trying
/// to free.
constexpr double kNackMinGapMs = 10.0;
/// Quiet-channel factor: the timer does not blindly retransmit an unacked
/// frame younger than kQuietFactor times the channel's observed
/// reverse-gap envelope (plus the instantaneous pipeline backlog) — a
/// piggybacked cumulative ack is still plausibly on its way, and on the
/// paper's shared-medium network (one wire slot per message, multicast or
/// not) blind per-destination retransmissions of delivered frames are
/// what saturates the bus at large n.  The timer postpones instead (a
/// pure scheduler event, no traffic); genuinely lost frames are recovered
/// much earlier by NACKs.
constexpr double kQuietFactor = 2.0;
/// A frame is not retransmitted again within this window of its previous
/// transmission (ms) — long enough for an in-flight copy to land on an
/// idle pipeline (one network RTT is 2(2λ+1) = 6 ms at the paper's
/// λ = 1), so re-triggered NACKs don't duplicate a recovery already
/// under way.
constexpr double kMinRetxSpacingMs = 10.0;

// Records one causal edge (stall interval or, with t0 == t1, a point
// marker) per application message the frame carries.  Callers guard on
// obs->causal().
inline void causal_edges(obs::Observer* o, obs::EdgeKind kind, net::ProcessId node,
                         const net::Message& m, double t0, double t1) {
  obs::MsgRefList refs;
  obs::classify_payload(m.payload, refs);
  if (!refs.empty()) o->trace_stall(kind, node, refs, t0, t1);
}

}  // namespace

Transport::Transport(net::System& sys, int num_processes)
    : sys_(&sys),
      sched_(&sys.scheduler()),
      net_(&sys.network()),
      arena_(&sys.arena()),
      n_(num_processes) {
  if (num_processes <= 0) throw std::invalid_argument("Transport: need at least one process");
  const std::size_t pairs =
      static_cast<std::size_t>(num_processes) * static_cast<std::size_t>(num_processes);
  send_.resize(pairs);
  recv_.resize(pairs);
  retx_by_src_.assign(static_cast<std::size_t>(num_processes), 0);
}

std::size_t Transport::outstanding(net::ProcessId a, net::ProcessId b) const {
  const SendState& s = send_.at(idx(a, b));
  return s.ring.size() - s.ring_head;
}

std::uint32_t Transport::expected_seq(net::ProcessId a, net::ProcessId b) const {
  return recv_.at(idx(a, b)).expected;
}

void Transport::stamp_frame(net::Message& m, net::ProcessId dst) {
  if (m.proto == net::ProtocolId::kTransport) return;  // control frames are unsequenced
  SendState& s = send_[idx(m.src, dst)];
  if (!m.frame.stamped()) {
    if (s.next_seq > net::FrameHeader::kSeqMask)
      throw std::logic_error("Transport: channel sequence space exhausted");
    m.frame.seq = s.next_seq++;
    ++stats_.data_frames;
    // Only a frame that might fail to arrive intact needs recovery
    // machinery: a partition holds (and re-injects in order), so with
    // loss and corruption off the frame is guaranteed to arrive and the
    // no-loss path stays free of buffering, timers and — with them — any
    // deviation from the transport-less event sequence.
    if (net_->can_drop()) {
      s.ring.push_back(RingEntry{m, sched_->now()});
      arm_timer(m.src, dst, s);
    }
  }
  // Refresh the piggybacked cumulative ack of the reverse channel on
  // every transmission, retransmissions included.
  m.frame.ack = recv_[idx(dst, m.src)].expected - 1;
}

void Transport::frame_dropped(const net::Message& m, net::ProcessId dst) {
  if (m.proto == net::ProtocolId::kTransport || !m.frame.stamped()) return;
  SendState& s = send_[idx(m.src, dst)];
  const std::uint32_t seq = m.frame.seq_no();
  if (seq <= s.acked) return;  // already confirmed via an earlier copy
  // The common case — the frame was stamped inside a loss window — finds
  // its ring entry already present.  The insert path covers frames that
  // were stamped loss-free, then *held* by a (possibly asymmetric)
  // partition and dropped when the heal re-ran the filter inside a loss
  // window: without an entry the channel would deadlock on the missing
  // sequence number (NACKs would request a frame no ring holds).
  const auto it = std::lower_bound(
      s.ring.begin() + static_cast<std::ptrdiff_t>(s.ring_head), s.ring.end(), seq,
      [](const RingEntry& e, std::uint32_t v) { return e.msg.frame.seq_no() < v; });
  if (it != s.ring.end() && it->msg.frame.seq_no() == seq) return;
  net::Message f = m;
  f.frame.seq = seq;  // store the clean copy; retransmit() re-applies the retx bit
  s.ring.insert(it, RingEntry{f, sched_->now()});
  arm_timer(m.src, dst, s);
}

void Transport::note_heard(net::ProcessId self, net::ProcessId peer, bool data) {
  SendState& s = send_[idx(self, peer)];
  const sim::Time now = sched_->now();
  if (s.heard >= 0.0) {
    const double gap = now - s.heard;
    // Decaying maximum: tracks the upper envelope of the peer's sending
    // gaps (a mean would be dragged down by multicast bursts and make
    // the blind timer fire before the peer's next piggyback is due).
    s.rx_gap = std::max(gap, 0.875 * s.rx_gap);
  }
  s.heard = now;
  if (data) s.rto = 0.0;  // live peer: backoff restarts from the base RTO
}

void Transport::on_frame(const net::Message& m, net::ProcessId dst) {
  // Checksum verify first: a frame damaged in transit carries nothing
  // trustworthy — not the piggybacked ack, not even the source identity —
  // so it is dropped wholesale before any channel state is touched.  The
  // sender's ring still holds a clean copy (the corruption filter reports
  // the drop like a loss), and the NACK/timer machinery recovers it.
  if (net_->checksums_enabled() && !net::frame_checksum_ok(m)) {
    ++stats_.corrupt_dropped;
    if (obs_ != nullptr) obs_->count(dst, obs::Counter::kCorruptionDetected, sched_->now());
    return;
  }
  note_heard(dst, m.src, m.proto != net::ProtocolId::kTransport);
  if (m.proto == net::ProtocolId::kTransport) {
    handle_ctrl(m, dst);
    return;
  }
  // Piggybacked cumulative ack for the reverse channel, processed even on
  // duplicates — an old frame still carries fresh ack state.
  ack_channel(dst, m.src, m.frame.ack);

  RecvState& r = recv_[idx(m.src, dst)];
  const std::uint32_t seq = m.frame.seq_no();
  const bool retx = m.frame.is_retx();

  if (seq < r.expected) {  // duplicate of an already-released frame
    ++stats_.duplicates;
    if (obs_ != nullptr) obs_->count(dst, obs::Counter::kTransportDups, sched_->now());
    if (retx) send_ctrl(dst, m.src, TransportCtrl::Kind::kAck, 0);
    return;
  }
  if (seq == r.expected) {
    ++r.expected;
    r.nack_gap = 0.0;  // frontier advanced: re-NACK backoff resets
    sys_->node(dst).deliver(m);
    // Release buffered successors now contiguous with the new frontier.
    std::size_t k = 0;
    while (k < r.buffer.size() && r.buffer[k].frame.seq_no() == r.expected) {
      ++r.expected;
      // Causal marker: this frame's reorder-buffer hold ends here (the
      // matching kReorderEnq was recorded when it was parked).
      if (obs_ != nullptr && obs_->causal()) {
        causal_edges(obs_, obs::EdgeKind::kReorderRel, dst, r.buffer[k], sched_->now(),
                     sched_->now());
      }
      sys_->node(dst).deliver(r.buffer[k]);
      ++k;
    }
    if (k > 0)
      r.buffer.erase(r.buffer.begin(), r.buffer.begin() + static_cast<std::ptrdiff_t>(k));
    // An in-order retransmission means the original was lost and the
    // sender is already backing off: confirm receipt explicitly so a
    // channel without reverse traffic still converges (tail loss).
    // First transmissions are never acked explicitly — the piggyback on
    // reverse data traffic prunes the sender's ring for free, and the
    // sender's timer waits out that cadence before retransmitting.
    if (retx) send_ctrl(dst, m.src, TransportCtrl::Kind::kAck, 0);
    return;
  }

  // Gap: park the frame (seq-sorted, duplicates suppressed) and NACK the
  // missing prefix, rate-limited per channel.
  const auto it = std::lower_bound(
      r.buffer.begin(), r.buffer.end(), seq,
      [](const net::Message& e, std::uint32_t s) { return e.frame.seq_no() < s; });
  if (it != r.buffer.end() && it->frame.seq_no() == seq) {
    ++stats_.duplicates;
    if (obs_ != nullptr) obs_->count(dst, obs::Counter::kTransportDups, sched_->now());
    if (retx) send_ctrl(dst, m.src, TransportCtrl::Kind::kAck, 0);
    return;
  }
  r.buffer.insert(it, m);
  ++stats_.buffered;
  if (obs_ != nullptr) {
    obs_->count(dst, obs::Counter::kTransportBuffered, sched_->now());
    // Causal marker: parked out of order; the hold lasts until the
    // matching kReorderRel when the gap closes.
    if (obs_->causal()) {
      causal_edges(obs_, obs::EdgeKind::kReorderEnq, dst, m, sched_->now(), sched_->now());
    }
  }
  // Re-NACK spacing: exponential per stalled frontier, and never shorter
  // than the current pipeline backlog — the requested retransmission has
  // to work its way through the same queues, and re-NACKing into a loaded
  // wire only deepens the load the recovery is waiting on.
  if (r.nack_gap == 0.0) r.nack_gap = kNackMinGapMs;
  const double nack_wait =
      std::max(r.nack_gap, net_->wire_backlog() + net_->cpu_backlog(dst) +
                               net_->cpu_backlog(m.src));
  if (sched_->now() - r.last_nack >= nack_wait) {
    r.last_nack = sched_->now();
    r.nack_gap = std::min(r.nack_gap * 2.0, 16.0 * kNackMinGapMs);
    send_ctrl(dst, m.src, TransportCtrl::Kind::kNack, r.buffer.front().frame.seq_no());
  }
  if (retx) send_ctrl(dst, m.src, TransportCtrl::Kind::kAck, 0);
}

void Transport::handle_ctrl(const net::Message& m, net::ProcessId dst) {
  const TransportCtrl* c = net::payload_cast<TransportCtrl>(m);
  if (c == nullptr) throw std::logic_error("Transport: foreign control payload");
  ack_channel(dst, m.src, c->ack);
  if (c->kind != TransportCtrl::Kind::kNack) return;
  // Retransmit the unacked frames of the missing range (ack, hi) right
  // away.  The spacing guard includes the instantaneous pipeline backlog:
  // a copy submitted into a loaded wire takes that long to arrive, and a
  // repeated NACK in the meantime is not evidence it was lost again.
  SendState& s = send_[idx(dst, m.src)];
  const double guard = kMinRetxSpacingMs + net_->wire_backlog() +
                       net_->cpu_backlog(dst) + net_->cpu_backlog(m.src);
  for (std::size_t i = s.ring_head; i < s.ring.size(); ++i) {
    RingEntry& e = s.ring[i];
    const std::uint32_t seq = e.msg.frame.seq_no();
    if (seq <= c->ack) continue;
    if (seq >= c->hi) break;  // ring is seq-sorted
    if (sched_->now() - e.last_tx < guard) continue;
    // Causal stall: this frame's content waited [last_tx, now) for a
    // NACK-triggered retransmission.
    if (obs_ != nullptr && obs_->causal()) {
      causal_edges(obs_, obs::EdgeKind::kStallNack, dst, e.msg, e.last_tx, sched_->now());
    }
    retransmit(m.src, e);
    ++stats_.retx_nack;
    if (obs_ != nullptr) obs_->count(dst, obs::Counter::kTransportRetxNack, sched_->now());
  }
}

void Transport::ack_channel(net::ProcessId a, net::ProcessId b, std::uint32_t ack) {
  SendState& s = send_[idx(a, b)];
  if (ack > s.acked) {
    s.acked = ack;
    while (s.ring_head < s.ring.size() && s.ring[s.ring_head].msg.frame.seq_no() <= ack)
      ++s.ring_head;
  }
  if (s.ring_head == s.ring.size()) {
    s.ring.clear();  // capacity retained; rto decays only via data contact
    s.ring_head = 0;
    if (s.timer != 0) {
      sched_->cancel(s.timer);
      s.timer = 0;
    }
    return;
  }
  if (s.ring_head > 64 && s.ring_head * 2 > s.ring.size()) {
    s.ring.erase(s.ring.begin(), s.ring.begin() + static_cast<std::ptrdiff_t>(s.ring_head));
    s.ring_head = 0;
  }
}

void Transport::arm_timer(net::ProcessId a, net::ProcessId b, SendState& s) {
  if (s.timer != 0) return;
  if (s.rto == 0.0) s.rto = kRtoMs;
  s.timer = sched_->schedule_after(s.rto, [this, a, b] { on_timer(a, b); });
}

void Transport::on_timer(net::ProcessId a, net::ProcessId b) {
  SendState& s = send_[idx(a, b)];
  s.timer = 0;
  ++stats_.timer_rounds;
  if (s.ring_head == s.ring.size()) {  // everything acked meanwhile
    s.rto = 0.0;
    return;
  }
  // Quiet-channel postponement: a blind retransmission is only justified
  // once (a) the oldest unacked frame is older than the peer's observed
  // reverse-gap envelope — a piggybacked ack is no longer plausibly on
  // its way — AND (b) the current pipeline backlog (wire + both host
  // CPUs) has been waited out: under congestion frames sit in FIFO
  // queues far longer than any fixed RTO, and timeout duplicates are
  // exactly what turns a loaded network into a collapsed one.  Deferral
  // is one scheduler event, no traffic, floored at a coarse quantum (the
  // postponed deadline lands exactly on age == patience, where rounding
  // can leave `age` one ulp short — an unfloored re-deferral of ~1e-13 ms
  // would not even advance simulated time, a same-instant event loop).
  const double backlog = net_->wire_backlog() + net_->cpu_backlog(a) + net_->cpu_backlog(b);
  const double patience = std::max(s.rto, kQuietFactor * s.rx_gap) + backlog;
  const double age = sched_->now() - s.ring[s.ring_head].last_tx;
  if (age + 0.125 <= patience) {
    ++stats_.postponed;
    const double wait = std::max(patience - age, 0.125);
    // Causal stall: the oldest frame's recovery is deliberately postponed
    // for [now, now + wait) on a quiet-channel judgement.
    if (obs_ != nullptr && obs_->causal()) {
      causal_edges(obs_, obs::EdgeKind::kStallBackoff, a, s.ring[s.ring_head].msg,
                   sched_->now(), sched_->now() + wait);
    }
    s.timer = sched_->schedule_after(wait, [this, a, b] { on_timer(a, b); });
    return;
  }
  // Probe with the oldest frame only: if everything was in fact delivered
  // (the peer just had nothing to piggyback on), the duplicate-triggered
  // cumulative ACK prunes the whole ring at the cost of one unicast; if
  // it was genuinely lost, its in-order arrival both repairs the channel
  // and acks everything buffered behind it.
  RingEntry& e = s.ring[s.ring_head];
  if (sched_->now() - e.last_tx >= kMinRetxSpacingMs) {
    // Causal stall: waited [last_tx, now) before a blind timer probe.
    if (obs_ != nullptr && obs_->causal()) {
      causal_edges(obs_, obs::EdgeKind::kStallTimer, a, e.msg, e.last_tx, sched_->now());
    }
    retransmit(b, e);
    ++stats_.retx_timer;
    if (obs_ != nullptr) obs_->count(a, obs::Counter::kTransportRetxTimer, sched_->now());
  }
  s.rto = std::min(std::max(s.rto, kRtoMs) * kBackoff, kMaxRtoMs);
  arm_timer(a, b, s);
}

void Transport::retransmit(net::ProcessId b, RingEntry& e) {
  net::Message f = e.msg;
  f.frame.seq |= net::FrameHeader::kRetxBit;
  e.last_tx = sched_->now();
  ++stats_.retransmits;
  // Attribute the retransmission to the frame's *original sender* — the
  // node whose outbound channel needed recovery.  This per-origin tally
  // is what exposes the GM sequencer as a retransmission hotspot.
  ++retx_by_src_[static_cast<std::size_t>(e.msg.src)];
  if (obs_ != nullptr) obs_->on_retransmit(e.msg.src, sched_->now());
  net_->submit(f, &b, 1);
}

void Transport::send_ctrl(net::ProcessId from, net::ProcessId to, TransportCtrl::Kind kind,
                          std::uint32_t hi) {
  const std::uint32_t ack = recv_[idx(to, from)].expected - 1;
  const TransportCtrl* c = arena_->make<TransportCtrl>(kind, ack, hi);
  if (kind == TransportCtrl::Kind::kNack) {
    ++stats_.nacks;
    if (obs_ != nullptr) obs_->count(from, obs::Counter::kTransportNacks, sched_->now());
  } else {
    ++stats_.acks;
  }
  net::Message m{from, net::ProtocolId::kTransport, {}, c};
  net_->submit(m, &to, 1);
}

}  // namespace fdgm::transport
