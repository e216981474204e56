// Reliable broadcast (paper §4.1, footnote 3: one broadcast message in the
// common case, after Frolund & Pedone, "Revisiting reliable broadcast").
//
// The sender multicasts once and delivers locally at once; every other
// destination R-delivers on receipt.  That single multicast is the whole
// protocol, with no relay on suspicion, because a relay could never be the
// only source of a message:
//
//  - In the paper's contention model (Urbán, Défago & Schiper) a multicast
//    is atomic: once the sender's CPU accepted it, it reaches every
//    destination; otherwise it reaches none.
//  - Under loss the retransmission transport repairs the multicast.  The
//    transport lives below the crash line, so it keeps retransmitting
//    after the origin crashes, and every correct destination still gets
//    the message exactly once (the transport deduplicates frames, and a
//    partition releases each held message once).
//
// So if any correct process R-delivers m, all correct destinations do, and
// Chandra–Toueg's uniform agreement on decisions, which consensus
// disseminates through this layer, does not depend on a relay.  The only
// duplicate a process can receive is the origin's own loopback copy of its
// multicast; the layer drops it, dispatches every other message to its
// client by tag, and keeps no per-message state.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/message.hpp"
#include "net/node.hpp"
#include "net/system.hpp"

namespace fdgm::rbcast {

/// Wire payload: the application payload wrapped with a tag distinguishing
/// which upper-layer client sent it.
class RbPayload final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kReliableBroadcast;
  static constexpr std::uint8_t kKind = 0;

  RbPayload(int client_tag, net::PayloadPtr inner)
      : Payload(kProto, kKind), client_tag(client_tag), inner(inner) {}

  int client_tag;
  net::PayloadPtr inner;
};

/// Reliable broadcast layer for one process.
///
/// Several clients (the FD-abcast data dissemination, consensus decision
/// dissemination, ...) can share one instance; each registers a delivery
/// callback under a distinct tag.
class ReliableBroadcast final : public net::Layer {
 public:
  using DeliverFn = std::function<void(net::PayloadPtr inner)>;

  ReliableBroadcast(net::System& sys, net::ProcessId self);
  ~ReliableBroadcast() override;

  /// Register the delivery callback for a client tag.
  void register_client(int tag, DeliverFn fn);

  /// R-broadcast `inner` to every process in the system (including self)
  /// on behalf of client `tag`.
  void broadcast(int tag, net::PayloadPtr inner);

  /// R-broadcast to an explicit destination group (used by consensus,
  /// which talks to an instance's members only).
  void broadcast_group(int tag, const std::vector<net::ProcessId>& group, net::PayloadPtr inner);

  // net::Layer
  void on_message(const net::Message& m) override;

 private:
  void deliver(const RbPayload* p);

  net::System* sys_;
  net::ProcessId self_;
  std::unordered_map<int, DeliverFn> clients_;
};

}  // namespace fdgm::rbcast
