#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/system.hpp"
#include "obs/observer.hpp"
#include "transport/transport.hpp"

namespace fdgm::net {

namespace {

/// Network service time per message (the paper's time unit, 1 ms).
constexpr double kNetworkTimeMs = 1.0;

// Classifies the frame payload and records one causal hop marker per
// application message it carries.  Callers guard on obs->causal() so the
// classifier never runs on non-causal hot paths.
inline void causal_mark(obs::Observer* o, obs::EdgeKind kind, ProcessId node, const Message& m,
                        double now) {
  obs::MsgRefList refs;
  obs::classify_payload(m.payload, refs);
  if (!refs.empty()) o->trace_marker(kind, node, refs, now);
}

}  // namespace

Network::Network(System& sys, int num_processes, NetworkConfig cfg)
    : sched_(&sys.scheduler()), cfg_(cfg), wire_(*sched_), sys_(&sys) {
  if (num_processes <= 0) throw std::invalid_argument("Network: need at least one process");
  if (cfg_.lambda < 0) throw std::invalid_argument("Network: negative lambda");
  cpus_.reserve(static_cast<std::size_t>(num_processes));
  for (int i = 0; i < num_processes; ++i) cpus_.push_back(std::make_unique<Resource>(*sched_));
  send_done_ = sched_->add_handler<&Network::on_send_done>(this);
  wire_done_ = sched_->add_handler<&Network::on_wire_done>(this);
  group_done_ = sched_->add_handler<&Network::fire_group>(this);
}

std::uint32_t Network::acquire_fanout(const Message& m) {
  std::uint32_t idx;
  if (fanout_free_ != kNoFanout) {
    idx = fanout_free_;
    fanout_free_ = fanouts_[idx].next_free;
    fanouts_[idx].dsts.clear();
    fanouts_[idx].frames.clear();
  } else {
    // Sized for the widest fan-out once (as are `frames` on first use),
    // so a reused entry never grows.
    idx = static_cast<std::uint32_t>(fanouts_.size());
    fanouts_.emplace_back().dsts.reserve(cpus_.size() - 1);
  }
  fanouts_[idx].msg = m;
  return idx;
}

void Network::add_member(std::uint32_t idx, ProcessId d, const FrameHeader& frame) {
  Fanout& f = fanouts_[idx];
  f.dsts.push_back(d);
  if (f.frames.empty()) {
    if (frame == f.msg.frame) return;
    f.frames.reserve(cpus_.size() - 1);
    f.frames.assign(f.dsts.size() - 1, f.msg.frame);
  }
  f.frames.push_back(frame);
}

void Network::release_fanout(std::uint32_t idx) {
  fanouts_[idx].next_free = fanout_free_;
  fanout_free_ = idx;
}

bool Network::submit(const Message& m, const ProcessId* dsts, std::size_t count) {
  if (m.src < 0 || m.src >= num_processes()) throw std::out_of_range("Network::submit: bad source");
  std::uint32_t fanout = kNoFanout;
  for (std::size_t i = 0; i < count; ++i) {
    const ProcessId d = dsts[i];
    if (d < 0 || d >= num_processes()) {
      if (fanout != kNoFanout) release_fanout(fanout);
      throw std::out_of_range("Network::submit: bad destination");
    }
    if (d == m.src) continue;
    if (fanout == kNoFanout) fanout = acquire_fanout(m);
    add_member(fanout, d, m.frame);
  }
  if (fanout == kNoFanout) return false;  // no effective destination

  if (obs_ != nullptr && obs_->causal()) {
    causal_mark(obs_, obs::EdgeKind::kSendEnq, m.src, m, sched_->now());
  }
  // Stage 1: send-side CPU processing.
  sched_->schedule_handler_at(cpus_[static_cast<std::size_t>(m.src)]->commit(cfg_.lambda),
                              send_done_, fanout);
  return true;
}

void Network::on_send_done(std::uint32_t fanout) {
  if (obs_ != nullptr && obs_->causal()) {
    const Message& m = fanouts_[fanout].msg;
    const double now = sched_->now();
    causal_mark(obs_, obs::EdgeKind::kSendDone, m.src, m, now);
    causal_mark(obs_, obs::EdgeKind::kWireEnq, m.src, m, now);
  }
  // Stage 2: one slot on the shared medium regardless of fan-out.
  sched_->schedule_handler_at(wire_.commit(kNetworkTimeMs * delay_factor_), wire_done_, fanout);
}

void Network::on_wire_done(std::uint32_t fanout) {
  const Message m = fanouts_[fanout].msg;
  if (obs_ != nullptr && obs_->causal()) {
    causal_mark(obs_, obs::EdgeKind::kWireDone, m.src, m, sched_->now());
  }
  // Fault filter, then stage 3: receive-side CPU processing, one job per
  // destination host, grouped by deliver_via_cpu.  Nothing here runs a
  // delivery handler, but committing a job may open a group and grow the
  // fan-out pool, so the destination list is indexed, never referenced.
  // The transport stamps a per-destination copy first (the sequence
  // number lives in the ordered-pair channel, so it cannot be shared
  // across the fan-out).
  OpenGroups open;
  const std::size_t count = fanouts_[fanout].dsts.size();
  for (std::size_t i = 0; i < count; ++i) {
    const ProcessId d = fanouts_[fanout].dsts[i];
    if (transport_ != nullptr || checksums_enabled_) {
      Message f = m;
      if (transport_ != nullptr) transport_->stamp_frame(f, d);
      // Digest-stamp after the transport assigned the sequence number so
      // the checksum covers it; only runs when a corrupt event armed
      // checksums for this run.
      if (checksums_enabled_) f.frame.check = frame_digest(f);
      filter_or_deliver(f, d, open);
    } else {
      filter_or_deliver(m, d, open);
    }
  }
  release_fanout(fanout);
}

/// The fault-filter stage proper: hold across a partition (symmetric,
/// directed, or flapped down), drop with the loss probability, corrupt
/// with the corruption probability, else enqueue the receive-side CPU
/// job.  Also applied to messages re-injected by a heal, so a heal inside
/// a loss or corruption window does not bypass those models.
void Network::filter_or_deliver(const Message& m, ProcessId d, OpenGroups& open) {
  if (link(m.src, d) != 0) {
    held_.emplace_back(m, d);
    ++held_total_;
    return;
  }
  if (loss_rate_ > 0.0 && loss_rng_ != nullptr && loss_rng_->uniform() < loss_rate_) {
    ++lost_;
    if (transport_ != nullptr) transport_->frame_dropped(m, d);
    return;
  }
  if (corrupt_active() && corrupt_match(m.src, d) && corrupt_rng_->uniform() < corrupt_rate_) {
    // Damage the frame in transit: the checksum no longer matches, so the
    // receiver detects and drops it.  The transport must learn it needs a
    // retransmittable copy (the frame may have been stamped before the
    // corruption window opened, hence never ring-buffered) — report the
    // *clean* frame as dropped, exactly like the loss path.
    Message damaged = m;
    damaged.frame.check ^= 0xA5;
    ++corrupted_;
    if (transport_ != nullptr) transport_->frame_dropped(m, d);
    deliver_via_cpu(damaged, d, open);
    return;
  }
  deliver_via_cpu(m, d, open);
}

void Network::deliver_via_cpu(const Message& m, ProcessId d, OpenGroups& open) {
  if (obs_ != nullptr && obs_->causal()) {
    causal_mark(obs_, obs::EdgeKind::kRecvEnq, d, m, sched_->now());
  }
  const sim::Time t = cpus_[static_cast<std::size_t>(d)]->commit(cfg_.lambda);
  // A record this call did not schedule (a transport timer) keeps its
  // place before the jobs that follow it at its own instant: it closes
  // the group open there.  Records at other instants never come between
  // a group's members.  Only the latest record's instant is known, so
  // more than one such record closes every group.
  if (open.inserted != sched_->inserted()) {
    if (sched_->inserted() - open.inserted == 1) {
      const sim::Time foreign = sched_->latest_at();
      std::size_t i = 0;
      while (i < open.count && open.group[i].t != foreign) ++i;
      if (i < open.count)
        for (--open.count; i < open.count; ++i) open.group[i] = open.group[i + 1];
    } else {
      open.count = 0;
    }
    open.inserted = sched_->inserted();
  }
  std::size_t at = 0;  // the open group at instant t, if any
  while (at < open.count && open.group[at].t != t) ++at;
  if (at < open.count) {
    const std::uint32_t idx = open.group[at].idx;
    const Message& g = fanouts_[idx].msg;
    if (g.payload == m.payload && g.src == m.src && g.proto == m.proto) {
      add_member(idx, d, m.frame);
      return;
    }
  }
  // Scheduled where this job's own record would have been: the members
  // that join it would have fired right after it at instant t (the call's
  // records at other instants never come between).  It is now the call's
  // latest record at t, so it replaces the group open there.
  const std::uint32_t group = acquire_fanout(m);
  add_member(group, d, m.frame);
  sched_->schedule_handler_at(t, group_done_, group);
  open.inserted = sched_->inserted();
  if (at == open.count) {
    if (open.count == kOpenGroups) {  // full: the first group closes
      std::move(open.group.begin() + 1, open.group.end(), open.group.begin());
      --open.count;
    }
    at = open.count++;
  }
  open.group[at] = OpenGroups::Group{group, t};
}

void Network::fire_group(std::uint32_t group) {
  Message m = fanouts_[group].msg;
  const std::size_t count = fanouts_[group].dsts.size();
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0) sched_->count_job();
    // Re-indexed per member: a delivery handler may submit and grow the
    // pool.
    const Fanout& g = fanouts_[group];
    const ProcessId d = g.dsts[i];
    m.frame = g.frames.empty() ? g.msg.frame : g.frames[i];
    finish_delivery(m, d);
  }
  release_fanout(group);
}

void Network::finish_delivery(const Message& m, ProcessId d) {
  if (obs_ != nullptr && obs_->causal()) {
    causal_mark(obs_, obs::EdgeKind::kRecvDone, d, m, sched_->now());
  }
  // Checksum verify for the transport-less configuration: the receive
  // stack has no repair path, so a damaged frame is simply detected,
  // counted and dropped (the delivery is lost — protocols see it like
  // message loss, but the corruption never reaches them silently).  With
  // a transport armed, verification lives in its receive path instead,
  // where the NACK machinery recovers the frame.
  if (checksums_enabled_ && transport_ == nullptr && !frame_checksum_ok(m)) {
    ++corrupt_detected_;
    if (obs_ != nullptr) obs_->count(d, obs::Counter::kCorruptionDetected, sched_->now());
    return;
  }
  ++delivered_;
  if (tap_) tap_(m, d);
  // The transport passes in-order data frames on to the Node itself.
  if (transport_ != nullptr)
    transport_->on_frame(m, d);
  else
    sys_->node(d).deliver(m);
}

void Network::check_ids(const char* setter, const std::vector<ProcessId>& ids) const {
  for (ProcessId p : ids)
    if (p < 0 || p >= num_processes())
      throw std::out_of_range(std::string("Network::") + setter + ": bad process id");
}

std::uint16_t& Network::link_ref(ProcessId a, ProcessId b) {
  if (links_.empty()) links_.assign(cpus_.size() * cpus_.size(), 0);
  return links_[link_index(a, b)];
}

void Network::clear_link_bit(std::uint16_t bit) {
  for (std::uint16_t& l : links_) l &= static_cast<std::uint16_t>(~bit);
}

void Network::set_partition(const std::vector<std::vector<ProcessId>>& groups) {
  // Validate before touching any state: a bad id must not leave a
  // half-applied partition or drop held messages.
  for (const auto& g : groups) check_ids("set_partition", g);
  // Unlisted processes form one extra implicit group.
  const int n = num_processes();
  std::vector<int> group_of(static_cast<std::size_t>(n), static_cast<int>(groups.size()));
  for (std::size_t g = 0; g < groups.size(); ++g)
    for (ProcessId p : groups[g]) group_of[static_cast<std::size_t>(p)] = static_cast<int>(g);
  clear_link_bit(kPartitionBit);
  for (ProcessId a = 0; a < n; ++a)
    for (ProcessId b = 0; b < n; ++b)
      if (group_of[static_cast<std::size_t>(a)] != group_of[static_cast<std::size_t>(b)])
        link_ref(a, b) |= kPartitionBit;
  // A replaced partition releases messages held across boundaries that no
  // longer exist; flushing through the new matrix keeps this simple and
  // deterministic (re-held if still unreachable).
  refilter_held();
}

void Network::heal_partition() {
  clear_link_bit(kPartitionBit);
  refilter_held();
}

void Network::set_asym_partition(const std::vector<ProcessId>& from,
                                 const std::vector<ProcessId>& to) {
  check_ids("set_asym_partition", from);
  check_ids("set_asym_partition", to);
  clear_link_bit(kAsymBit);
  for (ProcessId a : from)
    for (ProcessId b : to)
      if (a != b) link_ref(a, b) |= kAsymBit;
  // Re-filter held messages through the new cut: deliveries held by a cut
  // that no longer exists are released (re-held if still unreachable).
  refilter_held();
}

void Network::heal_asym_partition() {
  clear_link_bit(kAsymBit);
  refilter_held();
}

/// Re-runs every held delivery through the current filter state, in
/// arrival order (re-held if still unreachable, subject to the loss model
/// if a loss window is active — a heal does not bypass it).
void Network::refilter_held() {
  std::vector<std::pair<Message, ProcessId>> pending;
  pending.swap(held_);
  OpenGroups open;
  for (auto& [m, d] : pending) filter_or_deliver(m, d, open);
}

void Network::set_loss(double rate, sim::Rng* rng) {
  if (rate < 0.0 || rate > 1.0) throw std::invalid_argument("Network::set_loss: bad rate");
  loss_rate_ = rate;
  loss_rng_ = rate > 0.0 ? rng : nullptr;
}

void Network::set_delay_factor(double factor) {
  if (factor <= 0.0) throw std::invalid_argument("Network::set_delay_factor: factor must be > 0");
  delay_factor_ = factor;
}

void Network::set_cpu_limp(ProcessId p, double factor) {
  if (p < 0 || p >= num_processes())
    throw std::out_of_range("Network::set_cpu_limp: bad process id");
  cpus_[static_cast<std::size_t>(p)]->set_stretch(factor);
}

void Network::set_flap_down(const std::vector<ProcessId>& from,
                            const std::vector<ProcessId>& to) {
  check_ids("set_flap_down", from);
  check_ids("set_flap_down", to);
  for (ProcessId a : from)
    for (ProcessId b : to)
      if (a != b) link_ref(a, b) += kFlapUnit;
}

void Network::set_flap_up(const std::vector<ProcessId>& from,
                          const std::vector<ProcessId>& to) {
  check_ids("set_flap_up", from);
  check_ids("set_flap_up", to);
  if (links_.empty()) return;
  for (ProcessId a : from)
    for (ProcessId b : to) {
      std::uint16_t& l = links_[link_index(a, b)];
      if (a != b && l >= kFlapUnit) l -= kFlapUnit;
    }
  // Links that just came up release their held messages (re-held if a
  // partition or another flap window still blocks them).
  refilter_held();
}

void Network::set_corrupt(double rate, sim::Rng* rng,
                          const std::vector<std::vector<ProcessId>>& link) {
  if (rate < 0.0 || rate > 1.0) throw std::invalid_argument("Network::set_corrupt: bad rate");
  if (!link.empty() && link.size() != 2)
    throw std::invalid_argument("Network::set_corrupt: link wants {senders, destinations}");
  for (const auto& ids : link) check_ids("set_corrupt", ids);
  corrupt_link_.clear();
  if (!link.empty()) {
    corrupt_link_.assign(cpus_.size() * cpus_.size(), 0);
    for (ProcessId a : link[0])
      for (ProcessId b : link[1])
        if (a != b) corrupt_link_[link_index(a, b)] = 1;
  }
  corrupt_rate_ = rate;
  corrupt_rng_ = rate > 0.0 ? rng : nullptr;
}

void Network::clear_corrupt() {
  corrupt_rate_ = 0.0;
  corrupt_rng_ = nullptr;
  corrupt_link_.clear();
}

}  // namespace fdgm::net
