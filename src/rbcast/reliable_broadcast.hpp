// Reliable broadcast of the FD algorithm's data (paper §4.1, footnote 3:
// one broadcast message in the common case, after Frolund & Pedone,
// "Revisiting reliable broadcast").
//
// The sender multicasts the payload once to the other processes and
// delivers it locally at once; every other process R-delivers on receipt.
// That single multicast is the whole protocol, with no relay on
// suspicion, because a relay could never be the only source of a
// message:
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
// So if any correct process R-delivers m, all correct processes do.  The
// multicast carries the payload itself (no wrapper) and skips its origin,
// which delivers locally, and the layer keeps no per-message state: it
// hands every payload to its one sink.  Consensus decisions do not pass through
// here; the consensus service multicasts them itself on the same grounds
// (consensus/chandra_toueg.hpp).
#pragma once

#include "net/message.hpp"
#include "net/node.hpp"
#include "net/system.hpp"

namespace fdgm::rbcast {

/// Receiver of R-deliveries, the layer's one client.
class Sink {
 public:
  /// Invoked once per R-delivered payload: at the sender inside
  /// broadcast(), elsewhere on receipt.
  virtual void on_rdeliver(net::PayloadPtr payload) = 0;

 protected:
  ~Sink() = default;
};

/// Reliable broadcast layer for one process.
class ReliableBroadcast final : public net::Layer {
 public:
  ReliableBroadcast(net::System& sys, net::ProcessId self, Sink& sink);
  ~ReliableBroadcast() override;

  /// R-broadcast `payload` to every process in the system, this one
  /// included (delivered to the sink before broadcast returns).
  void broadcast(net::PayloadPtr payload);

  // net::Layer
  void on_message(const net::Message& m) override;

 private:
  net::System* sys_;
  net::ProcessId self_;
  Sink* sink_;
};

}  // namespace fdgm::rbcast
