#include "rbcast/reliable_broadcast.hpp"

#include <stdexcept>
#include <utility>

namespace fdgm::rbcast {

ReliableBroadcast::ReliableBroadcast(net::System& sys, net::ProcessId self)
    : sys_(&sys), self_(self) {
  sys.node(self).register_handler(net::ProtocolId::kReliableBroadcast, this);
}

ReliableBroadcast::~ReliableBroadcast() {
  sys_->node(self_).register_handler(net::ProtocolId::kReliableBroadcast, nullptr);
}

void ReliableBroadcast::register_client(int tag, DeliverFn fn) {
  if (!clients_.emplace(tag, std::move(fn)).second)
    throw std::logic_error("ReliableBroadcast: duplicate client tag");
}

void ReliableBroadcast::broadcast(int tag, net::PayloadPtr inner) {
  broadcast_group(tag, sys_->all(), inner);
}

void ReliableBroadcast::broadcast_group(int tag, const std::vector<net::ProcessId>& group,
                                        net::PayloadPtr inner) {
  const RbPayload* p = sys_->arena().make<RbPayload>(tag, inner);
  // Put one multicast on the wire, then deliver locally (counts as the
  // self copy of the multicast): on_message drops the loopback copy the
  // network delivers later.
  sys_->node(self_).multicast(group, net::ProtocolId::kReliableBroadcast, p);
  deliver(p);
}

void ReliableBroadcast::on_message(const net::Message& m) {
  const RbPayload* p = net::payload_cast<RbPayload>(m);
  if (p == nullptr) throw std::logic_error("ReliableBroadcast: foreign payload");
  if (m.src == self_) return;  // loopback copy: broadcast_group delivered it
  deliver(p);
}

void ReliableBroadcast::deliver(const RbPayload* p) {
  auto cit = clients_.find(p->client_tag);
  if (cit == clients_.end()) throw std::logic_error("ReliableBroadcast: unknown client tag");
  cit->second(p->inner);
}

}  // namespace fdgm::rbcast
