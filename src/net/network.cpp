#include "net/network.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "obs/observer.hpp"

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

Network::Network(sim::Scheduler& sched, int num_processes, NetworkConfig cfg, Sink& sink)
    : sched_(&sched), cfg_(cfg), wire_(sched, "network"), sink_(&sink) {
  if (num_processes <= 0) throw std::invalid_argument("Network: need at least one process");
  if (cfg_.lambda < 0) throw std::invalid_argument("Network: negative lambda");
  cpus_.reserve(static_cast<std::size_t>(num_processes));
  for (int i = 0; i < num_processes; ++i)
    cpus_.push_back(std::make_unique<Resource>(sched, "cpu" + std::to_string(i)));
}

std::uint32_t Network::acquire_list() {
  if (list_free_ != kNoList) {
    const std::uint32_t idx = list_free_;
    DstList& l = lists_[idx];
    list_free_ = l.next_free;
    l.dsts.clear();
    return idx;
  }
  lists_.emplace_back();
  return static_cast<std::uint32_t>(lists_.size() - 1);
}

void Network::release_list(std::uint32_t idx) {
  lists_[idx].next_free = list_free_;
  list_free_ = idx;
}

bool Network::submit(const Message& m, const ProcessId* dsts, std::size_t count,
                     bool loopback_self) {
  if (m.src < 0 || m.src >= num_processes()) throw std::out_of_range("Network::submit: bad source");
  bool self = false;
  std::uint32_t list = kNoList;
  for (std::size_t i = 0; i < count; ++i) {
    const ProcessId d = dsts[i];
    if (d < 0 || d >= num_processes()) {
      if (list != kNoList) release_list(list);
      throw std::out_of_range("Network::submit: bad destination");
    }
    if (d == m.src) {
      self = self || loopback_self;
      continue;
    }
    if (list == kNoList) list = acquire_list();
    list_ref(list).dsts.push_back(d);
  }
  if (!self && list == kNoList) return false;  // no effective destination

  if (obs_ != nullptr && obs_->causal()) {
    causal_mark(obs_, obs::EdgeKind::kSendEnq, m.src, m, sched_->now());
  }
  // Stage 1: send-side CPU processing.
  cpus_[static_cast<std::size_t>(m.src)]->enqueue(
      cfg_.lambda, [this, m, list, self] { on_send_done(m, list, self); });
  return true;
}

void Network::on_send_done(const Message& m, std::uint32_t list, bool self) {
  if (obs_ != nullptr && obs_->causal()) {
    const double now = sched_->now();
    causal_mark(obs_, obs::EdgeKind::kSendDone, m.src, m, now);
    if (list != kNoList) causal_mark(obs_, obs::EdgeKind::kWireEnq, m.src, m, now);
  }
  if (self) {
    // Local loopback: no network, no extra CPU job.
    Message copy = m;
    copy.dst = m.src;
    ++delivered_;
    if (tap_) tap_(copy, m.src);
    sink_->deliver_message(copy, m.src);
  }
  if (list != kNoList) {
    // Stage 2: one slot on the shared medium regardless of fan-out.
    wire_.enqueue(kNetworkTimeMs * delay_factor_,
                  [this, m, list] { on_wire_done(m, list); });
  }
}

void Network::on_wire_done(const Message& m, std::uint32_t list) {
  if (obs_ != nullptr && obs_->causal()) {
    causal_mark(obs_, obs::EdgeKind::kWireDone, m.src, m, sched_->now());
  }
  // Fault filter, then stage 3: receive-side CPU processing, one job per
  // destination host.  filter_or_deliver only enqueues (no user callbacks
  // run synchronously), so the pooled list stays stable while we iterate.
  // The transport's frame stage stamps a per-destination copy first (the
  // sequence number lives in the ordered-pair channel, so it cannot be
  // shared across the fan-out).
  for (ProcessId d : list_ref(list).dsts) {
    if (frame_stage_ != nullptr || checksums_enabled_) {
      Message f = m;
      if (frame_stage_ != nullptr) frame_stage_->stamp_frame(f, d);
      // Digest-stamp after the transport assigned the sequence number so
      // the checksum covers it; only runs when a corrupt event armed
      // checksums for this run.
      if (checksums_enabled_) f.frame.check = frame_digest(f);
      filter_or_deliver(f, d);
    } else {
      filter_or_deliver(m, d);
    }
  }
  release_list(list);
}

/// The fault-filter stage proper: hold across a partition (symmetric,
/// directed, or flapped down), drop with the loss probability, corrupt
/// with the corruption probability, else enqueue the receive-side CPU
/// job.  Also applied to messages re-injected by a heal, so a heal inside
/// a loss or corruption window does not bypass those models.
void Network::filter_or_deliver(const Message& m, ProcessId d) {
  if (partitioned(m.src, d) || asym_cut(m.src, d) || flap_blocked(m.src, d)) {
    held_.emplace_back(m, d);
    ++held_total_;
    return;
  }
  if (loss_rate_ > 0.0 && loss_rng_ != nullptr && loss_rng_->uniform() < loss_rate_) {
    ++lost_;
    if (frame_stage_ != nullptr) frame_stage_->frame_dropped(m, d);
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
    if (frame_stage_ != nullptr) frame_stage_->frame_dropped(m, d);
    deliver_via_cpu(damaged, d);
    return;
  }
  deliver_via_cpu(m, d);
}

void Network::deliver_via_cpu(const Message& m, ProcessId d) {
  if (obs_ != nullptr && obs_->causal()) {
    causal_mark(obs_, obs::EdgeKind::kRecvEnq, d, m, sched_->now());
  }
  cpus_[static_cast<std::size_t>(d)]->enqueue(cfg_.lambda,
                                              [this, m, d] { finish_delivery(m, d); });
}

void Network::finish_delivery(Message m, ProcessId d) {
  m.dst = d;
  if (obs_ != nullptr && obs_->causal()) {
    causal_mark(obs_, obs::EdgeKind::kRecvDone, d, m, sched_->now());
  }
  // Checksum verify for the transport-less configuration: the receive
  // stack has no repair path, so a damaged frame is simply detected,
  // counted and dropped (the delivery is lost — protocols see it like
  // message loss, but the corruption never reaches them silently).  With
  // a transport armed, verification lives in its receive path instead,
  // where the NACK machinery recovers the frame.
  if (checksums_enabled_ && frame_stage_ == nullptr && !frame_checksum_ok(m)) {
    ++corrupt_detected_;
    if (obs_ != nullptr) obs_->count(d, obs::Counter::kCorruptionDetected, sched_->now());
    return;
  }
  ++delivered_;
  if (tap_) tap_(m, d);
  sink_->deliver_message(m, d);
}

void Network::set_partition(const std::vector<std::vector<ProcessId>>& groups) {
  // Build and validate the new matrix before touching any state: a bad id
  // must not leave a half-applied partition or drop held messages.
  std::vector<int> new_groups(cpus_.size(), -1);
  int g = 0;
  for (; g < static_cast<int>(groups.size()); ++g) {
    for (ProcessId p : groups[static_cast<std::size_t>(g)]) {
      if (p < 0 || p >= num_processes())
        throw std::out_of_range("Network::set_partition: bad process id");
      new_groups[static_cast<std::size_t>(p)] = g;
    }
  }
  // Unlisted processes form one extra implicit group.
  for (int& grp : new_groups)
    if (grp < 0) grp = g;
  group_of_ = std::move(new_groups);
  // A replaced partition releases messages held across boundaries that no
  // longer exist; flushing through the new matrix keeps this simple and
  // deterministic (re-held if still unreachable).
  refilter_held();
}

void Network::heal_partition() {
  group_of_.clear();
  refilter_held();
}

void Network::set_asym_partition(const std::vector<ProcessId>& from,
                                 const std::vector<ProcessId>& to) {
  // Validate before touching state (same discipline as set_partition).
  for (ProcessId p : from)
    if (p < 0 || p >= num_processes())
      throw std::out_of_range("Network::set_asym_partition: bad process id");
  for (ProcessId p : to)
    if (p < 0 || p >= num_processes())
      throw std::out_of_range("Network::set_asym_partition: bad process id");
  const std::size_t n = cpus_.size();
  asym_blocked_.assign(n * n, 0);
  for (ProcessId a : from)
    for (ProcessId b : to)
      if (a != b) asym_blocked_[static_cast<std::size_t>(a) * n + static_cast<std::size_t>(b)] = 1;
  // Re-filter held messages through the new cut: deliveries held by a cut
  // that no longer exists are released (re-held if still unreachable).
  refilter_held();
}

void Network::heal_asym_partition() {
  asym_blocked_.clear();
  refilter_held();
}

/// Re-runs every held delivery through the current filter state, in
/// arrival order (re-held if still unreachable, subject to the loss model
/// if a loss window is active — a heal does not bypass it).
void Network::refilter_held() {
  std::vector<std::pair<Message, ProcessId>> pending;
  pending.swap(held_);
  for (auto& [m, d] : pending) filter_or_deliver(m, d);
}

bool Network::partitioned(ProcessId a, ProcessId b) const {
  if (group_of_.empty()) return false;
  return group_of_.at(static_cast<std::size_t>(a)) != group_of_.at(static_cast<std::size_t>(b));
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
  for (ProcessId p : from)
    if (p < 0 || p >= num_processes())
      throw std::out_of_range("Network::set_flap_down: bad process id");
  for (ProcessId p : to)
    if (p < 0 || p >= num_processes())
      throw std::out_of_range("Network::set_flap_down: bad process id");
  const std::size_t n = cpus_.size();
  if (flap_down_.empty()) flap_down_.assign(n * n, 0);
  for (ProcessId a : from)
    for (ProcessId b : to)
      if (a != b) ++flap_down_[static_cast<std::size_t>(a) * n + static_cast<std::size_t>(b)];
}

void Network::set_flap_up(const std::vector<ProcessId>& from,
                          const std::vector<ProcessId>& to) {
  if (flap_down_.empty()) return;
  const std::size_t n = cpus_.size();
  for (ProcessId a : from) {
    if (a < 0 || a >= num_processes())
      throw std::out_of_range("Network::set_flap_up: bad process id");
    for (ProcessId b : to) {
      if (b < 0 || b >= num_processes())
        throw std::out_of_range("Network::set_flap_up: bad process id");
      std::uint16_t& down = flap_down_[static_cast<std::size_t>(a) * n + static_cast<std::size_t>(b)];
      if (a != b && down > 0) --down;
    }
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
  corrupt_link_.clear();
  if (!link.empty()) {
    const std::size_t n = cpus_.size();
    corrupt_link_.assign(n * n, 0);
    for (ProcessId a : link[0])
      for (ProcessId b : link[1]) {
        if (a < 0 || a >= num_processes() || b < 0 || b >= num_processes())
          throw std::out_of_range("Network::set_corrupt: bad process id");
        if (a != b)
          corrupt_link_[static_cast<std::size_t>(a) * n + static_cast<std::size_t>(b)] = 1;
      }
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
