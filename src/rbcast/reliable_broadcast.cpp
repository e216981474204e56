#include "rbcast/reliable_broadcast.hpp"

namespace fdgm::rbcast {

ReliableBroadcast::ReliableBroadcast(net::System& sys, net::ProcessId self, Sink& sink)
    : sys_(&sys), self_(self), sink_(&sink) {
  sys.node(self).register_handler(net::ProtocolId::kReliableBroadcast, this);
}

ReliableBroadcast::~ReliableBroadcast() {
  sys_->node(self_).register_handler(net::ProtocolId::kReliableBroadcast, nullptr);
}

void ReliableBroadcast::broadcast(net::PayloadPtr payload) {
  sys_->node(self_).multicast_others(sys_->all(), net::ProtocolId::kReliableBroadcast, payload);
  sink_->on_rdeliver(payload);
}

void ReliableBroadcast::on_message(const net::Message& m) { sink_->on_rdeliver(m.payload); }

}  // namespace fdgm::rbcast
