#include "abcast/gm_abcast.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/observer.hpp"

namespace fdgm::abcast {

// -------------------------------------------------------------- wire types
// Payload kinds on kAtomicBroadcast: the GM stack uses 8..15 (the FD
// stack owns 0..7 — see fd_abcast.cpp).  DATA is an application payload
// on the same protocol: the base's data_payload, read back with
// for_each_message.

class GmAbcastProcess::SeqnumMsg final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kAtomicBroadcast;
  static constexpr std::uint8_t kKind = 9;
  SeqnumMsg(std::uint64_t view_id, std::vector<std::pair<MsgId, std::int64_t>> pairs)
      : Payload(kProto, kKind), view_id(view_id), pairs(std::move(pairs)) {}
  std::uint64_t view_id;
  std::vector<std::pair<MsgId, std::int64_t>> pairs;
};

class GmAbcastProcess::AckMsg final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kAtomicBroadcast;
  static constexpr std::uint8_t kKind = 10;
  AckMsg(std::uint64_t view_id, std::int64_t cum)
      : Payload(kProto, kKind), view_id(view_id), cum(cum) {}
  std::uint64_t view_id;
  std::int64_t cum;
};

class GmAbcastProcess::DeliverMsg final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kAtomicBroadcast;
  static constexpr std::uint8_t kKind = 11;
  DeliverMsg(std::uint64_t view_id, std::int64_t cum, std::int64_t stable)
      : Payload(kProto, kKind), view_id(view_id), cum(cum), stable(stable) {}
  std::uint64_t view_id;
  std::int64_t cum;
  /// Every view member holds content+order up to here (min cumulative
  /// ack): recently-delivered retention can be pruned up to this point.
  std::int64_t stable;
};

/// Repair request: "send me sequence numbers and contents in (from, to]".
/// Needed after a rejoin, when SEQNUM multicasts may have been sent to a
/// view that did not include the joiner yet.
class GmAbcastProcess::NeedMsg final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kAtomicBroadcast;
  static constexpr std::uint8_t kKind = 12;
  NeedMsg(std::uint64_t view_id, std::int64_t from, std::int64_t to)
      : Payload(kProto, kKind), view_id(view_id), from(from), to(to) {}
  std::uint64_t view_id;
  std::int64_t from;
  std::int64_t to;
};

/// State transferred to a wrongly excluded process when it rejoins.
class GmAbcastProcess::GmState final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kAtomicBroadcast;
  static constexpr std::uint8_t kKind = 13;
  GmState() : Payload(kProto, kKind) {}
  std::vector<AppMessagePtr> log_suffix;                       // missed deliveries
  std::vector<std::pair<AppMessagePtr, std::int64_t>> known;  // undelivered (+sn or -1)
  std::int64_t sn_floor = 0;
  std::int64_t settled = 0;  // sender's deliver point (joiner's new baseline)
};

// --------------------------------------------------------------- ack cover

std::int64_t AckCover::ack(net::ProcessId p, std::int64_t cum) {
  const auto i = static_cast<std::size_t>(p);
  std::int64_t& a = acks_[i];
  if (cum <= a) return a;
  const std::int64_t from = a == kNoAck ? floor_ : a;
  a = cum;
  if (!stale_ && counted_[i] != 0) {
    if (cum < from)
      stale_ = true;  // a first ACK below the floor: the point falls
    else if (cum > from)
      move(from, cum);
  }
  return a;
}

AckCover::Cover AckCover::select(const gm::View& view, net::ProcessId self, std::int64_t floor,
                                 std::int64_t own) {
  if (stale_ || view.id != view_id_ || floor != floor_ || own < own_) {
    recount(view, self, floor, own);
  } else if (own > own_) {
    move(own_, own);
    own_ = own;
  }
  return {cover_, stable_};
}

void AckCover::recount(const gm::View& view, net::ProcessId self, std::int64_t floor,
                       std::int64_t own) {
  view_id_ = view.id;
  floor_ = floor;
  own_ = own;
  k_ = view.majority();
  std::ranges::fill(counted_, 0);
  const auto point = [&](net::ProcessId p) {
    const std::int64_t a = acks_[static_cast<std::size_t>(p)];
    return a == kNoAck ? floor : a;
  };
  std::int64_t lo = own;
  std::int64_t hi = own;
  for (net::ProcessId p : view.members) {
    if (p == self) continue;
    counted_[static_cast<std::size_t>(p)] = 1;
    lo = std::min(lo, point(p));
    hi = std::max(hi, point(p));
  }
  counts_.clear();
  ++counts_.slot(own);
  for (net::ProcessId p : view.members)
    if (p != self) ++counts_.slot(point(p));
  // The cover: the highest sn with at least k_ points at or above it.
  std::size_t at_or_above = 0;
  for (std::int64_t sn = hi;; --sn) {
    at_or_above += counts_.get(sn);
    if (at_or_above >= k_) {
      cover_ = sn;
      over_ = at_or_above - counts_.get(sn);
      break;
    }
  }
  stable_ = lo;
  stale_ = false;
}

void AckCover::move(std::int64_t from, std::int64_t to) {
  // A count that drops to 0 leaves the window, which trims from below.
  if (--*counts_.find(from) == 0) counts_.erase(from);
  ++counts_.slot(to);
  if (from <= cover_ && to > cover_) {
    // One more point above the cover: once k_ are, it moves up.
    for (++over_; over_ >= k_;) over_ -= counts_.get(++cover_);
  }
  if (from == stable_)
    while (!counts_.contains(stable_)) ++stable_;
}

// ------------------------------------------------------------ construction

GmAbcastProcess::GmAbcastProcess(net::System& sys, net::ProcessId self, fd::FailureDetector& fd,
                                 GmAbcastConfig cfg)
    : AtomicBroadcastProcess(sys, self, cfg.batching),
      fd_(&fd),
      cfg_(cfg),
      membership_(sys, self, fd, *this),
      cover_(static_cast<std::size_t>(sys.n())) {
  view_ = membership_.view();
  sys.node(self).register_handler(net::ProtocolId::kAtomicBroadcast, this);
}

GmAbcastProcess::~GmAbcastProcess() {
  sys_->node(self_).register_handler(net::ProtocolId::kAtomicBroadcast, nullptr);
}

// ------------------------------------------------------------- data plane

void GmAbcastProcess::disseminate(const AppMessagePtr* msgs, std::size_t count) {
  if (!member_) {
    // Wrongly excluded: hold the messages until we rejoin.
    own_buffer_.insert(own_buffer_.end(), msgs, msgs + count);
    return;
  }
  // One multicast carries the whole batch; the receivers (and we) admit k
  // messages and run the ordering step once, so the sequencer covers the
  // batch with a single SEQNUM assignment round.
  const net::PayloadPtr data = data_payload(msgs, count);
  sys_->node(self_).multicast_others(view_.members, net::ProtocolId::kAtomicBroadcast, data);
  handle_data(data);
}

void GmAbcastProcess::on_restart() {
  // Crash-recovery: stable storage is the base's A-delivery record, our
  // own message counter and the buffer of accepted-but-unsent own
  // messages; every piece of in-flight coordination state belonged to the
  // dead incarnation.  In particular, stale sequence assignments of a
  // dead view must not survive — they could collide with the live view's
  // assignments after the state transfer (emplace keeps the first
  // mapping), so the sn window restarts empty.  The floors stay: they are
  // monotone and apply_state raises them to the state sender's baseline
  // anyway.  own_buffer_ must survive the restart: the harness records an
  // A-broadcast the moment the application submits it, so dropping the
  // buffer would leave recorded messages undeliverable forever (and fail
  // every drain check).
  held_.clear();
  undelivered_ = 0;
  arrival_order_.clear();
  msg_at_.clear();
  batch_ends_.clear();
  cover_.reset();
  member_ = false;
  frozen_ = true;
  // Base class: re-route accepted-but-unflushed submissions; member_ is
  // already false, so they land in own_buffer_ and go out after the rejoin.
  AtomicBroadcastProcess::on_restart();
  membership_.rejoin();
}

bool GmAbcastProcess::handle_data(net::PayloadPtr data) {
  bool admitted = false;
  if (!for_each_message(data, [&](AppMessagePtr m) { admitted |= admit_data(m); })) return false;
  if (admitted) trigger_ordering();
  return true;
}

bool GmAbcastProcess::admit_data(AppMessagePtr msg) {
  if (delivered(msg->id) || !hold_content(msg)) return false;
  // Causal anchor (sequencer only): the message entered the pending queue
  // here; the walker closes the interval at the sn assignment.
  if (active_sequencer()) {
    if (auto* o = sys_->obs(); o != nullptr && o->causal()) {
      obs::MsgRefList refs;
      refs.add(msg->id.origin, msg->id.seq);
      o->trace_marker(obs::EdgeKind::kSeqEnter, self_, refs, sys_->now());
    }
  }
  return true;
}

bool GmAbcastProcess::hold_content(AppMessagePtr msg) {
  Held& h = held_.slot(msg->id);
  if (h.msg != nullptr) return false;
  h.msg = msg;
  ++undelivered_;
  arrival_order_.push_back(msg->id);
  return true;
}

void GmAbcastProcess::assign(const MsgId& id, std::int64_t sn) {
  if (!delivered(id)) {
    Held& h = held_.slot(id);
    if (h.sn == 0) h.sn = sn;
  }
  msg_at_.emplace(sn, Assigned{id, nullptr});
}

void GmAbcastProcess::drop_sn(const MsgId& id) {
  Held* h = held_.find(id);
  if (h == nullptr || h->sn == 0) return;
  h->sn = 0;
  if (h->empty()) held_.release(id);
}

void GmAbcastProcess::trigger_ordering() {
  if (active_sequencer())
    sequence_pending();
  else
    try_advance_ack();
}

void GmAbcastProcess::sequence_pending() {
  // Shallow batch pipeline (uniform mode): at most two batches awaiting
  // their DELIVER announcement.
  if (cfg_.uniform) {
    std::erase_if(batch_ends_, [this](std::int64_t e) { return e <= announced_; });
    if (batch_ends_.size() >= 2) return;
  }
  // Assign the next sequence numbers to every known unsequenced message.
  std::vector<std::pair<MsgId, std::int64_t>> assigned;
  // arrival_order_ may still hold delivered ids between compactions.
  for (const MsgId& id : arrival_order_) {
    // Delivered ids hold no slot; every other one holds its content.
    const Held* h = held_.find(id);
    if (h == nullptr || h->sn != 0) continue;
    const std::int64_t sn = next_sn_++;
    assign(id, sn);
    assigned.emplace_back(id, sn);
  }
  if (assigned.empty()) return;
  // The sequencer's sn assignment is the instant a GM message's global
  // order becomes fixed — the "ordered" point of its lifecycle span.
  if (auto* o = sys_->obs()) {
    for (const auto& [id, sn] : assigned) o->on_ordered(id.origin, id.seq, sys_->now());
  }
  batch_ends_.push_back(next_sn_ - 1);
  sys_->node(self_).multicast_others(
      view_.members, net::ProtocolId::kAtomicBroadcast,
      sys_->arena().make<SeqnumMsg>(view_.id, std::move(assigned)));
  if (cfg_.uniform) {
    try_deliver_sequencer();
  } else {
    // Non-uniform: the sequencer delivers as soon as the order is fixed.
    deliver_up_to(next_sn_ - 1);
  }
}

void GmAbcastProcess::try_advance_ack() {
  const std::int64_t before = ack_sn_;
  while (true) {
    const Held* h = held_.find(msg_at_.get(ack_sn_ + 1).id);  // never holds the null id
    if (h == nullptr || h->msg == nullptr) break;
    ++ack_sn_;
  }
  if (ack_sn_ == before) return;
  if (!member_ || frozen_) return;
  if (cfg_.uniform) {
    if (!is_sequencer())
      sys_->node(self_).send(view_.members.front(), net::ProtocolId::kAtomicBroadcast,
                             sys_->arena().make<AckMsg>(view_.id, ack_sn_));
    deliver_up_to(std::min(announced_, ack_sn_));
  } else {
    // Non-uniform: deliver as soon as content + order are known.
    deliver_up_to(ack_sn_);
  }
}

void GmAbcastProcess::try_deliver_sequencer() {
  if (!cfg_.uniform || !active_sequencer()) return;
  // Cumulative ack coverage: sn is deliverable once a majority of the view
  // (the sequencer included — it holds everything it assigned) covers it.
  const auto [deliverable, stable] = cover_.select(view_, self_, sn_floor_, next_sn_ - 1);
  if (deliverable <= announced_) return;
  announced_ = deliverable;
  deliver_up_to(deliverable);
  msg_at_.erase_below(stable + 1);
  sys_->node(self_).multicast_others(
      view_.members, net::ProtocolId::kAtomicBroadcast,
      sys_->arena().make<DeliverMsg>(view_.id, deliverable, stable));
  // Batches may have completed: assign the next one if messages queued up.
  sequence_pending();
}

void GmAbcastProcess::deliver_up_to(std::int64_t sn) {
  while (deliver_sn_ < sn) {
    Assigned* a = msg_at_.find(deliver_sn_ + 1);
    const Held* h = a != nullptr ? held_.find(a->id) : nullptr;
    if (h == nullptr || h->msg == nullptr) break;
    const AppMessagePtr msg = h->msg;
    ++deliver_sn_;
    a->delivered = msg;  // before deliver_msg: its sink may assign sns
    deliver_msg(msg);
  }
  // Non-uniform mode has no ack phase, no stable point and no NEED: a
  // mapping is dead once its message is delivered here.
  if (!cfg_.uniform) msg_at_.erase_below(deliver_sn_ + 1);
}

void GmAbcastProcess::deliver_msg(AppMessagePtr msg) {
  if (delivered(msg->id)) return;
  // Delivered ids are never sequenced again, so their bookkeeping goes
  // with them: per-message work and memory stay O(in flight), not
  // O(history).  The content lives on in the run's arena.  arrival_order_
  // is compacted once at least half of it is delivered ids (amortised O(1)
  // per delivery); afterwards it holds exactly the ids with content, in
  // arrival order.
  if (Held* h = held_.find(msg->id)) {
    if (h->msg != nullptr) --undelivered_;
    *h = Held{};
    held_.release(msg->id);
  }
  if (arrival_order_.size() > 2 * undelivered_ + 64)
    std::erase_if(arrival_order_, [this](const MsgId& id) {
      const Held* h = held_.find(id);
      return h == nullptr || h->msg == nullptr;
    });
  deliver(msg);
}

// ---------------------------------------------------------------- messages

void GmAbcastProcess::on_message(const net::Message& m) {
  if (handle_data(m.payload)) return;
  if (const auto* s = net::payload_cast<SeqnumMsg>(m)) {
    if (s->view_id != view_.id) return;  // stale view: ignored, re-sequenced later
    for (const auto& [id, sn] : s->pairs) {
      if (sn <= sn_floor_) continue;
      // A repair re-multicast may re-announce ids delivered here already;
      // their slots are gone and must stay gone (assign keeps them so).
      assign(id, sn);
    }
    try_advance_ack();
    return;
  }
  if (const auto* a = net::payload_cast<AckMsg>(m)) {
    if (a->view_id != view_.id || !active_sequencer()) return;
    // The majority cover is at most announced_ after every selection, and
    // raising one member's point to announced_ or below cannot lift it
    // higher: only an ack above announced_ can deliver anything.
    if (cover_.ack(m.src, a->cum) > announced_) try_deliver_sequencer();
    return;
  }
  if (const auto* del = net::payload_cast<DeliverMsg>(m)) {
    if (del->view_id != view_.id || frozen_ || !member_) return;
    announced_ = std::max(announced_, del->cum);
    deliver_up_to(std::min(announced_, ack_sn_));
    msg_at_.erase_below(del->stable + 1);
    if (announced_ > ack_sn_ && announced_ > requested_) {
      // Gap repair (post-rejoin): ask the sequencer for what we miss.
      requested_ = announced_;
      sys_->node(self_).send(view_.members.front(), net::ProtocolId::kAtomicBroadcast,
                             sys_->arena().make<NeedMsg>(view_.id, ack_sn_, announced_));
    }
    return;
  }
  if (const auto* need = net::payload_cast<NeedMsg>(m)) {
    if (need->view_id != view_.id || !is_sequencer()) return;
    std::vector<std::pair<MsgId, std::int64_t>> pairs;
    const std::int64_t lo = std::max(need->from, sn_floor_);
    // `from` is the requester's cumulative ack, at or above the stable
    // point the window was trimmed to, so every sn it names is still in
    // the window: undelivered here (held_) or delivered, not yet stable.
    for (std::int64_t sn = lo + 1; sn <= std::min(need->to, next_sn_ - 1); ++sn) {
      const Assigned a = msg_at_.get(sn);
      if (a.empty()) continue;
      pairs.emplace_back(a.id, sn);
      const Held* h = held_.find(a.id);
      const AppMessagePtr content = h != nullptr && h->msg != nullptr ? h->msg : a.delivered;
      if (content != nullptr)
        sys_->node(self_).send(m.src, net::ProtocolId::kAtomicBroadcast, content);
    }
    if (!pairs.empty()) {
      const SeqnumMsg* reply =
          sys_->arena().make<SeqnumMsg>(view_.id, std::move(pairs));
      if (batching().enabled) {
        // Hotspot mitigation: under batched load the repair traffic
        // concentrates on the sequencer (one lost SEQNUM gaps everyone).
        // Re-multicasting the assignments answers every gapped member with
        // one reply instead of one unicast per NACK.
        sys_->node(self_).multicast_others(view_.members, net::ProtocolId::kAtomicBroadcast,
                                           reply);
      } else {
        sys_->node(self_).send(m.src, net::ProtocolId::kAtomicBroadcast, reply);
      }
    }
    return;
  }
  throw std::logic_error("GmAbcastProcess: foreign payload");
}

// --------------------------------------------------- membership client side

gm::UnstableReport GmAbcastProcess::unstable_messages() const {
  gm::UnstableReport report;
  report.watermark = deliver_sn_;
  std::size_t delivered = 0;
  msg_at_.for_each([&delivered](std::int64_t, const Assigned& a) {
    if (a.delivered != nullptr) ++delivered;
  });
  report.entries.reserve(undelivered_ + delivered);
  // Undelivered messages, sequenced or not.
  for (const MsgId& id : arrival_order_) {
    const Held* h = held_.find(id);
    if (h == nullptr || h->msg == nullptr) continue;  // delivered
    report.entries.push_back(gm::UnstableEntry{h->msg, h->sn != 0 ? h->sn : -1});
  }
  // Delivered, not yet stable sequenced messages: possibly undelivered
  // elsewhere, so they must keep their sequence number through the view
  // change.
  msg_at_.for_each([&report](std::int64_t sn, const Assigned& a) {
    if (a.delivered != nullptr) report.entries.push_back(gm::UnstableEntry{a.delivered, sn});
  });
  return report;
}

void GmAbcastProcess::on_view_change_started() { frozen_ = true; }

void GmAbcastProcess::flush(const std::vector<gm::UnstableEntry>& u, std::int64_t settled) {
  // Canonical flush order: sequenced messages by sequence number, then
  // unsequenced ones by id.  Every member applies the same decided vector,
  // so the logs stay identical.
  std::vector<gm::UnstableEntry> sequenced;
  std::vector<gm::UnstableEntry> plain;
  for (const gm::UnstableEntry& e : u)
    (e.seqnum >= 0 ? sequenced : plain).push_back(e);
  std::sort(sequenced.begin(), sequenced.end(),
            [](const auto& a, const auto& b) { return a.seqnum < b.seqnum; });
  std::sort(plain.begin(), plain.end(),
            [](const auto& a, const auto& b) { return a.msg->id < b.msg->id; });

  std::int64_t max_sn = sn_floor_;
  for (const gm::UnstableEntry& e : sequenced) {
    max_sn = std::max(max_sn, e.seqnum);
    deliver_msg(e.msg);  // we may never have seen it
  }
  for (const gm::UnstableEntry& e : plain) deliver_msg(e.msg);

  // Everything up to the decided settled point is done; mappings above the
  // floor belong to the dead view and will be re-assigned.
  sn_floor_ = std::max({sn_floor_, max_sn, settled});
  ack_sn_ = std::max(ack_sn_, sn_floor_);
  deliver_sn_ = std::max(deliver_sn_, sn_floor_);
  announced_ = std::max(announced_, sn_floor_);
  requested_ = std::max(requested_, sn_floor_);
  drop_mappings_above_floor();
  msg_at_.erase_below(sn_floor_ + 1);
}

void GmAbcastProcess::drop_mappings_above_floor() {
  msg_at_.drop_above(sn_floor_, [this](std::int64_t, const Assigned& a) { drop_sn(a.id); });
}

void GmAbcastProcess::on_view_installed(const gm::View& v, bool member) {
  view_ = v;
  member_ = member;
  frozen_ = !member;
  cover_.reset();
  if (!member) return;

  next_sn_ = sn_floor_ + 1;
  batch_ends_.clear();  // no batch in flight in the fresh view
  ack_sn_ = std::max(ack_sn_, sn_floor_);
  deliver_sn_ = std::max(deliver_sn_, sn_floor_);
  announced_ = std::max(announced_, sn_floor_);
  if (active_sequencer()) sequence_pending();
  try_advance_ack();
  send_buffered();
}

void GmAbcastProcess::send_buffered() {
  if (own_buffer_.empty()) return;
  std::vector<AppMessagePtr> buf;
  buf.swap(own_buffer_);
  // One DATA multicast per message, in submission order.
  for (const AppMessagePtr& msg : buf) disseminate(&msg, 1);
}

net::PayloadPtr GmAbcastProcess::make_state(std::uint64_t from) const {
  GmState* st = sys_->arena().make<GmState>();
  st->log_suffix.assign(log().begin() + static_cast<std::ptrdiff_t>(from), log().end());
  for (const MsgId& id : arrival_order_) {
    const Held* h = held_.find(id);
    if (h == nullptr || h->msg == nullptr) continue;
    st->known.emplace_back(h->msg, h->sn != 0 ? h->sn : std::int64_t{-1});
  }
  st->sn_floor = sn_floor_;
  st->settled = deliver_sn_;
  return st;
}

void GmAbcastProcess::apply_state(const net::PayloadPtr& state) {
  const GmState* st = net::payload_cast<GmState>(state);
  if (st == nullptr) throw std::logic_error("GmAbcastProcess: bad state payload");
  for (AppMessagePtr msg : st->log_suffix) deliver_msg(msg);
  // Raise the floor first: mappings in `known` above the sender's floor are
  // live assignments of the current view and must be kept.
  sn_floor_ = std::max(sn_floor_, st->sn_floor);
  drop_mappings_above_floor();  // our own leftovers from the dead view
  msg_at_.erase_below(sn_floor_ + 1);
  for (const auto& [msg, sn] : st->known) {
    if (delivered(msg->id)) continue;
    hold_content(msg);
    if (sn > sn_floor_) assign(msg->id, sn);
  }
  // The state sender's deliver point becomes our baseline: everything it
  // delivered is in the suffix we just applied.
  ack_sn_ = std::max(sn_floor_, st->settled);
  deliver_sn_ = ack_sn_;
  announced_ = ack_sn_;
  requested_ = ack_sn_;
  // on_view_installed(view, true) follows immediately (membership layer).
}

}  // namespace fdgm::abcast

namespace fdgm::obs {

// Defined here because SEQNUM is private to the GM stack.  DATA is an
// application payload, classified by classify_payload directly.
void classify_gm_payload(net::PayloadPtr p, MsgRefList& out) {
  using SeqnumMsg = abcast::GmAbcastProcess::SeqnumMsg;
  if (const auto* s = net::payload_cast<SeqnumMsg>(p)) {
    for (const auto& [id, sn] : s->pairs) out.add(id.origin, id.seq);
  }
  // ACK / DELIVER / NEED / state transfer are control traffic.
}

}  // namespace fdgm::obs
