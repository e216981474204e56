#include "consensus/chandra_toueg.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/observer.hpp"

namespace fdgm::consensus {

// ---------------------------------------------------------------- Instance

Instance::Instance(ConsensusService& service, std::uint64_t number, net::ProcessId self,
                   StartInfo info)
    : service_(&service), self_(self) {
  reset(number, std::move(info));
}

Instance::~Instance() { retire(); }

void Instance::reset(std::uint64_t number, StartInfo info) {
  number_ = number;
  if (info.members == nullptr || info.members->empty())
    throw std::invalid_argument("consensus::Instance: empty membership");
  if (info.initial == nullptr && !info.refresh)
    throw std::logic_error("consensus::Instance: null initial value without refresh");
  members_.assign(info.members->begin(), info.members->end());
  offset_ = info.coordinator_offset;
  refresh_ = std::move(info.refresh);
  estimate_ = std::move(info.initial);
  ts_ = 0;
  round_ = 1;
  if (auto* o = service_->system().obs())
    o->count(self_, obs::Counter::kConsensusRounds, service_->system().now());
  done_ = false;
  in_progress_ = false;
  if (!std::is_sorted(members_.begin(), members_.end()))
    std::sort(members_.begin(), members_.end());
  if (!std::binary_search(members_.begin(), members_.end(), self_))
    throw std::invalid_argument("consensus::Instance: self not a member");
  service_->fd().add_listener(this);
  listening_ = true;
}

void Instance::retire() {
  if (listening_) {
    service_->fd().remove_listener(this);
    listening_ = false;
  }
  for (auto& p : rounds_)
    if (p) p->clear();
  estimate_ = nullptr;
  refresh_ = nullptr;
  done_ = true;
}

Instance::RoundState& Instance::rs(std::uint32_t r) {
  if (rounds_.size() < r) rounds_.resize(r);
  auto& p = rounds_[r - 1];
  if (!p) p = std::make_unique<RoundState>();
  return *p;
}

Instance::RoundState::PerMember& Instance::reply(RoundState& st, int rank) {
  if (st.from.empty()) st.from.assign(members_.size(), RoundState::PerMember{});
  return st.from[static_cast<std::size_t>(rank)];
}

int Instance::rank_of(net::ProcessId p) const {
  const auto it = std::lower_bound(members_.begin(), members_.end(), p);
  if (it == members_.end() || *it != p) return -1;
  return static_cast<int>(it - members_.begin());
}

net::ProcessId Instance::coordinator(std::uint32_t r) const {
  return coordinator_of(members_, offset_, r);
}

void Instance::start() { try_progress(); }

void Instance::send_to_coordinator(std::uint32_t r, ConsensusMsg::Kind kind,
                                   net::PayloadPtr value, std::uint32_t ts) {
  const net::ProcessId coord = coordinator(r);
  if (coord == self_) {
    // Local bookkeeping, no network cost: the message never leaves this
    // call, so it is not built in the run's arena.
    on_msg(self_, ConsensusMsg(number_, kind, r, value, ts));
    return;
  }
  const ConsensusMsg* msg =
      service_->system().arena().make<ConsensusMsg>(number_, kind, r, value, ts);
  service_->unicast(coord, msg);
}

void Instance::on_msg(net::ProcessId from, const ConsensusMsg& m) {
  if (done_) return;
  RoundState& st = rs(m.round);
  const int rank = rank_of(from);
  switch (m.kind) {
    case ConsensusMsg::Kind::kEstimate:
      if (rank >= 0) {
        auto& pm = reply(st, rank);
        if (!(pm.bits & RoundState::kEstimate)) {  // first estimate wins
          pm.bits |= RoundState::kEstimate;
          pm.est_value = m.value;
          pm.est_ts = m.ts;
          ++st.estimates;
        }
      }
      break;
    case ConsensusMsg::Kind::kPropose:
      if (!st.have_proposal) {
        st.have_proposal = true;
        st.proposal = m.value;
      }
      // Jump forward: a proposal proves a majority reached round m.round.
      if (m.round > round_) advance_to(m.round);
      break;
    case ConsensusMsg::Kind::kAck:
      if (rank >= 0) {
        auto& pm = reply(st, rank);
        if (!(pm.bits & RoundState::kAck)) {
          pm.bits |= RoundState::kAck;
          ++st.acks;
        }
      }
      break;
    case ConsensusMsg::Kind::kNack:
      if (rank >= 0) {
        auto& pm = reply(st, rank);
        if (!(pm.bits & RoundState::kNack)) {
          pm.bits |= RoundState::kNack;
          ++st.nacks;
        }
      }
      break;
    case ConsensusMsg::Kind::kRoundFailed:
      st.failed = true;
      // The coordinator of m.round gave up; anyone at or before that round
      // moves on so the next coordinator can collect its estimates.
      if (m.round >= round_) advance_to(m.round + 1);
      break;
    case ConsensusMsg::Kind::kDecide:
      throw std::logic_error("consensus: DECIDE is applied by the service, not an instance");
  }
  try_progress();
}

void Instance::on_suspect(net::ProcessId p) {
  if (done_) return;
  if (p == coordinator(round_)) try_progress();
}

void Instance::advance_to(std::uint32_t r) {
  if (r <= round_) return;
  if (auto* o = service_->system().obs())
    o->count(self_, obs::Counter::kConsensusRounds, service_->system().now(), r - round_);
  round_ = r;
  RoundState& st = rs(round_);
  if (!st.estimate_sent) {
    st.estimate_sent = true;
    // Round 1 never collects estimates (optimized round), so this only
    // happens for r > 1.
    send_to_coordinator(round_, ConsensusMsg::Kind::kEstimate, estimate_, ts_);
  }
}

void Instance::try_progress() {
  if (in_progress_) return;  // local sends re-enter via on_msg
  in_progress_ = true;
  bool changed = true;
  while (changed && !done_) {
    changed = false;
    const std::uint32_t r = round_;
    const net::ProcessId coord = coordinator(r);
    RoundState& st = rs(r);

    // --- Coordinator: phase 2, issue the proposal.
    if (coord == self_ && !st.proposed) {
      bool can_propose = false;
      net::PayloadPtr value = nullptr;
      if (r == 1) {
        // Optimized first round: propose the initial value directly.
        can_propose = true;
        value = estimate_;
      } else if (st.estimates >= majority()) {
        // Pick the estimate with the highest timestamp (ties broken by the
        // lowest process id — ranks iterate in member order, "first wins").
        std::uint32_t best_ts = 0;
        for (const auto& pm : st.from) {
          if (!(pm.bits & RoundState::kEstimate)) continue;
          if (!value || pm.est_ts > best_ts) {
            value = pm.est_value;
            best_ts = pm.est_ts;
          }
        }
        // Nothing locked anywhere: any proposal is safe.  The coordinator
        // imposes its own estimate (refreshed if the client provides it) —
        // this is the tie-break that lets a round-2 coordinator exclude a
        // process whose own round-1 proposal was nacked away.
        if (best_ts == 0) value = refresh_ ? refresh_() : estimate_;
        can_propose = true;
      }
      if (can_propose) {
        // Empty-handed: a round-1 coordinator whose client built no
        // initial value (StartInfo::initial), or a refresh that gave none.
        if (value == nullptr) throw std::logic_error("consensus: coordinator holds no value");
        st.proposed = true;
        st.have_proposal = true;
        st.proposal = value;
        const ConsensusMsg* msg = service_->system().arena().make<ConsensusMsg>(
            number_, ConsensusMsg::Kind::kPropose, r, value, /*ts=*/0);
        service_->multicast_others(members_, msg);
        changed = true;
      }
    }

    // --- Participant: phase 3, ack or nack the current round's proposal.
    if (!st.acked && !st.nacked) {
      if (st.have_proposal) {
        estimate_ = st.proposal;
        ts_ = r;
        st.acked = true;
        send_to_coordinator(r, ConsensusMsg::Kind::kAck, nullptr, 0);
        changed = true;
      } else if (service_->fd().suspects(coord) && coord != self_) {
        st.nacked = true;
        send_to_coordinator(r, ConsensusMsg::Kind::kNack, nullptr, 0);
        advance_to(r + 1);
        changed = true;
        continue;
      }
    } else if (st.acked && service_->fd().suspects(coord) && coord != self_) {
      // Lazy rotation: we acknowledged but the coordinator now looks dead;
      // move on so the next coordinator can gather a majority of estimates.
      advance_to(r + 1);
      changed = true;
      continue;
    }

    // --- Coordinator: phase 4, the first majority of replies decides the
    // round's fate: all acks -> decision; any nack -> the round failed.
    if (coord == self_ && st.proposed && !st.resolved && !done_ &&
        st.acks + st.nacks >= majority()) {
      st.resolved = true;
      if (st.nacks == 0) {
        done_ = true;
        service_->decide(number_, members_, st.proposal);
        break;
      }
      // Tell everybody the round failed so that processes waiting for the
      // decision resynchronize immediately instead of waiting for their
      // failure detector.  Counted once, at the coordinator that resolved
      // the round — not at the n-1 receivers of the announcement.
      if (auto* o = service_->system().obs())
        o->count(self_, obs::Counter::kConsensusRoundFails, service_->system().now());
      const ConsensusMsg* msg = service_->system().arena().make<ConsensusMsg>(
          number_, ConsensusMsg::Kind::kRoundFailed, r, nullptr, /*ts=*/0);
      service_->multicast_others(members_, msg);
      advance_to(r + 1);
      changed = true;
    }
  }
  in_progress_ = false;
}

// --------------------------------------------------------- ConsensusService

ConsensusService::ConsensusService(net::System& sys, net::ProcessId self,
                                   fd::FailureDetector& fd, Client& client,
                                   std::uint64_t first_number)
    : sys_(&sys), self_(self), fd_(&fd), client_(&client), decided_(first_number) {
  sys.node(self).register_handler(net::ProtocolId::kConsensus, this);
}

ConsensusService::~ConsensusService() {
  sys_->node(self_).register_handler(net::ProtocolId::kConsensus, nullptr);
}

Instance* ConsensusService::acquire_instance(std::uint64_t number, StartInfo info) {
  if (!pool_.empty()) {
    Instance* inst = pool_.back();
    pool_.pop_back();
    inst->reset(number, std::move(info));
    return inst;
  }
  bodies_.push_back(std::make_unique<Instance>(*this, number, self_, std::move(info)));
  return bodies_.back().get();
}

void ConsensusService::retire(Instance* inst) {
  inst->retire();
  pool_.push_back(inst);
}

void ConsensusService::start(std::uint64_t number, StartInfo info) {
  if (decided(number) || instances_.contains(number)) return;
  Instance* inst = acquire_instance(number, std::move(info));
  instances_.emplace(number, inst);
  // Replay messages that arrived before we joined.
  if (auto it = buffered_.find(number); it != buffered_.end()) {
    auto msgs = std::move(it->second);
    buffered_.erase(it);
    for (auto& [from, m] : msgs) inst->on_msg(from, *m);
  }
  inst->start();
}

void ConsensusService::retry_buffered() {
  // Collect numbers first: start() mutates buffered_.
  std::vector<std::uint64_t> numbers;
  for (const auto& [number, msgs] : buffered_)
    if (!instances_.contains(number) && !decided(number)) numbers.push_back(number);
  std::sort(numbers.begin(), numbers.end());
  for (const std::uint64_t number : numbers) {
    if (instances_.contains(number) || decided(number)) continue;
    if (auto info = client_->join(number)) start(number, std::move(*info));
  }
}

void ConsensusService::close_below(std::uint64_t number) {
  decided_.raise_floor(number);
  instances_.erase_below(number, [this](std::uint64_t, Instance* inst) {
    inst->halt();
    retire(inst);
  });
  std::erase_if(buffered_, [number](const auto& entry) { return entry.first < number; });
}

void ConsensusService::on_message(const net::Message& m) {
  const ConsensusMsg* cm = net::payload_cast<ConsensusMsg>(m);
  if (cm == nullptr) throw std::logic_error("ConsensusService: foreign payload");
  if (cm->kind == ConsensusMsg::Kind::kDecide)
    handle_decision(cm);
  else
    dispatch(m.src, cm);
}

void ConsensusService::dispatch(net::ProcessId from, const ConsensusMsg* m) {
  if (decided(m->number)) return;  // stale traffic for a closed instance
  if (Instance* inst = instances_.get(m->number)) {
    inst->on_msg(from, *m);
    return;
  }
  // Unknown instance: buffer the message, and start the instance (which
  // replays it) if the client joins now.
  buffered_[m->number].emplace_back(from, m);
  if (auto info = client_->join(m->number)) start(m->number, std::move(*info));
}

void ConsensusService::unicast(net::ProcessId dst, const ConsensusMsg* m) {
  sys_->node(self_).send(dst, net::ProtocolId::kConsensus, m);
}

void ConsensusService::multicast_others(const std::vector<net::ProcessId>& members,
                                        const ConsensusMsg* m) {
  sys_->node(self_).multicast_others(members, net::ProtocolId::kConsensus, m);
}

void ConsensusService::decide(std::uint64_t number, const std::vector<net::ProcessId>& members,
                              net::PayloadPtr value) {
  const ConsensusMsg* msg = sys_->arena().make<ConsensusMsg>(
      number, ConsensusMsg::Kind::kDecide, /*round=*/0, value, /*ts=*/0);
  multicast_others(members, msg);
  handle_decision(msg);
}

void ConsensusService::handle_decision(const ConsensusMsg* cm) {
  // Duplicate, or settled out of band by close_below already.
  if (!decided_.insert(cm->number)) return;
  if (Instance* inst = instances_.get(cm->number)) {
    // halt() now; retire later.  The decision is applied synchronously
    // from inside the instance's own try_progress (the coordinator's local
    // apply), so pooling here could hand a live stack frame's instance to
    // a new number.
    inst->halt();
    sys_->scheduler().schedule_after(0, [this, number = cm->number] {
      Instance* done = instances_.get(number);
      if (done == nullptr) return;  // close_below retired it already
      retire(done);
      instances_.erase(number);
    });
  }
  buffered_.erase(cm->number);
  client_->on_decide(cm->number, cm->value);
}

}  // namespace fdgm::consensus
