#include "rbcast/reliable_broadcast.hpp"

#include <stdexcept>
#include <utility>

namespace fdgm::rbcast {

ReliableBroadcast::ReliableBroadcast(net::System& sys, net::ProcessId self,
                                     fd::FailureDetector& fd, RbConfig cfg)
    : sys_(&sys), self_(self), fd_(&fd), cfg_(cfg) {
  sys.node(self).register_handler(net::ProtocolId::kReliableBroadcast, this);
  fd.add_listener(this);
}

ReliableBroadcast::~ReliableBroadcast() {
  fd_->remove_listener(this);
  sys_->node(self_).register_handler(net::ProtocolId::kReliableBroadcast, nullptr);
}

void ReliableBroadcast::register_client(int tag, DeliverFn fn) {
  if (!clients_.emplace(tag, std::move(fn)).second)
    throw std::logic_error("ReliableBroadcast: duplicate client tag");
}

void ReliableBroadcast::broadcast(int tag, net::PayloadPtr inner) {
  broadcast_group(tag, {}, inner);
}

void ReliableBroadcast::broadcast_group(int tag, const std::vector<net::ProcessId>& group,
                                        net::PayloadPtr inner) {
  const RbPayload* p =
      sys_->arena().make<RbPayload>(RbId{self_, next_seq_++}, tag, inner, group);
  // Put one multicast on the wire, then deliver locally (counts as the
  // self copy of the multicast): the loopback copy the network delivers
  // later is ignored by on_message (no relays) or by handle()'s duplicate
  // suppression (relays).
  const std::vector<net::ProcessId>& dsts = p->group.empty() ? sys_->all() : p->group;
  sys_->node(self_).multicast(dsts, net::ProtocolId::kReliableBroadcast, p);
  handle(p);
}

void ReliableBroadcast::on_message(const net::Message& m) {
  const RbPayload* p = net::payload_cast<RbPayload>(m);
  if (p == nullptr) throw std::logic_error("ReliableBroadcast: foreign payload");
  // Without relays the origin's loopback copy is the only duplicate, and
  // broadcast_group already delivered it locally.
  if (!cfg_.relay_on_suspicion && p->id.origin == self_) return;
  handle(p);
}

void ReliableBroadcast::release(const RbId& id) {
  auto it = seen_.find(id);
  if (it == seen_.end() || it->second.payload == nullptr) return;
  it->second.payload = nullptr;
  --retained_;
}

void ReliableBroadcast::handle(const RbPayload* p) {
  if (cfg_.relay_on_suspicion) {
    if (!seen_.try_emplace(p->id, Seen{p, false}).second) return;  // duplicate (relay or self copy)
    ++retained_;
  }
  auto cit = clients_.find(p->client_tag);
  if (cit == clients_.end()) throw std::logic_error("ReliableBroadcast: unknown client tag");
  cit->second(p->id, p->id.origin, p->inner);
  // If the origin is *already* suspected when the message first arrives,
  // relay immediately: the suspicion edge will not fire again.
  if (cfg_.relay_on_suspicion && fd_->suspects(p->id.origin)) on_suspect(p->id.origin);
}

void ReliableBroadcast::on_suspect(net::ProcessId s) {
  if (!cfg_.relay_on_suspicion) return;
  // Relay every message of origin s that we have and have not relayed yet.
  for (auto& [id, entry] : seen_) {
    if (id.origin != s || entry.relayed || entry.payload == nullptr) continue;
    entry.relayed = true;
    ++relays_;
    const std::vector<net::ProcessId>& dsts =
        entry.payload->group.empty() ? sys_->all() : entry.payload->group;
    sys_->node(self_).multicast(dsts, net::ProtocolId::kReliableBroadcast, entry.payload);
  }
}

}  // namespace fdgm::rbcast
