#include "net/node.hpp"

#include <stdexcept>

#include "net/system.hpp"

namespace fdgm::net {

void Node::register_handler(ProtocolId proto, Layer* layer) {
  handlers_.at(static_cast<std::size_t>(proto)) = layer;
}

void Node::send(ProcessId dst, ProtocolId proto, PayloadPtr payload) {
  if (dst == id_) throw std::logic_error("Node::send: a process does not send to itself");
  if (crashed_) return;
  Message m{id_, proto, {}, payload};
  ++sent_;
  sys_->network().submit(m, &dst, 1);
}

void Node::multicast_others(const std::vector<ProcessId>& dsts, ProtocolId proto,
                            PayloadPtr payload) {
  if (crashed_) return;
  Message m{id_, proto, {}, payload};
  if (sys_->network().submit(m, dsts)) ++sent_;
}

void Node::crash() {
  if (crashed_) return;
  crashed_ = true;
  crash_time_ = sys_->now();
}

void Node::restart() {
  if (!crashed_) return;
  crashed_ = false;
  crash_time_ = -1.0;
  ++incarnation_;
}

void Node::deliver(const Message& m) {
  if (crashed_) return;  // the host CPU processed it, the dead process never sees it
  ++received_;
  Layer* h = handlers_.at(static_cast<std::size_t>(m.proto));
  if (h == nullptr) throw std::logic_error("Node::deliver: no handler for protocol");
  h->on_message(m);
}

}  // namespace fdgm::net
