// Reliable broadcast (paper §4.1, footnote 3: one broadcast message in the
// common case, after Frolund & Pedone, "Revisiting reliable broadcast").
//
// Failure-free path: the sender multicasts once and everyone R-delivers on
// first receipt.  Fault tolerance: every process buffers the messages it
// has R-delivered; when its failure detector starts suspecting a process s,
// it re-multicasts the messages originated by s that it has seen (at most
// once per message per relay).  Under the quasi-reliable network and the
// software-crash model this guarantees that if any correct process
// R-delivers m, all correct processes do, while costing no extra message
// when nobody is suspected.
//
// Without relays (RbConfig::relay_on_suspicion false, the mode both
// protocol stacks run) the only duplicate a process can receive is the
// origin's own loopback copy of its multicast: the transport deduplicates
// frames below the crash line and a partition releases each held message
// once.  The layer then drops that loopback copy, dispatches every other
// message straight to its client, and keeps no per-message state.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "fd/failure_detector.hpp"
#include "net/message.hpp"
#include "net/node.hpp"
#include "net/system.hpp"

namespace fdgm::rbcast {

/// Globally unique id of an R-broadcast: (origin, per-origin sequence).
struct RbId {
  net::ProcessId origin = 0;
  std::uint64_t seq = 0;

  friend bool operator==(const RbId&, const RbId&) = default;
};

struct RbIdHash {
  std::size_t operator()(const RbId& id) const {
    return std::hash<std::uint64_t>()(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(id.origin)) << 40) ^ id.seq);
  }
};

/// Wire payload: the application payload wrapped with the R-broadcast id
/// and a tag distinguishing which upper-layer client sent it.
class RbPayload final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kReliableBroadcast;
  static constexpr std::uint8_t kKind = 0;

  RbPayload(RbId id, int client_tag, net::PayloadPtr inner, std::vector<net::ProcessId> group)
      : Payload(kProto, kKind),
        id(id),
        client_tag(client_tag),
        inner(inner),
        group(std::move(group)) {}

  RbId id;
  int client_tag;
  net::PayloadPtr inner;
  /// Destination/relay group; empty means "all processes in the system".
  std::vector<net::ProcessId> group;
};

/// Reliable broadcast layer for one process.
///
/// Several clients (the FD-abcast data dissemination, consensus decision
/// dissemination, ...) can share one instance; each registers a delivery
/// callback under a distinct tag.
struct RbConfig {
  /// Relay a suspected origin's messages (the Frolund-Pedone fault
  /// tolerance path).  In the paper's contention model a multicast is
  /// atomic — it reaches every destination once the sender's CPU accepted
  /// it, and is lost for everyone otherwise — so relays can never be the
  /// only source of a message.  The protocol stacks therefore disable the
  /// relay path (it would only add traffic a real system does not need);
  /// it remains available and tested for model variants with partial
  /// multicast loss.
  bool relay_on_suspicion = true;
};

class ReliableBroadcast final : public net::Layer, public fd::SuspicionListener {
 public:
  using DeliverFn =
      std::function<void(const RbId& id, net::ProcessId origin, net::PayloadPtr inner)>;

  ReliableBroadcast(net::System& sys, net::ProcessId self, fd::FailureDetector& fd,
                    RbConfig cfg = {});
  ~ReliableBroadcast() override;

  /// Register the delivery callback for a client tag.
  void register_client(int tag, DeliverFn fn);

  /// R-broadcast `inner` to every process in the system (including self)
  /// on behalf of client `tag`.
  void broadcast(int tag, net::PayloadPtr inner);

  /// R-broadcast to an explicit destination group (used by the membership
  /// service, which talks to view members only).  The relay set equals the
  /// destination group.
  void broadcast_group(int tag, const std::vector<net::ProcessId>& group, net::PayloadPtr inner);

  // net::Layer
  void on_message(const net::Message& m) override;

  // fd::SuspicionListener
  void on_suspect(net::ProcessId p) override;

  /// Number of relay multicasts performed (tests: 0 in failure-free runs).
  [[nodiscard]] std::uint64_t relays() const { return relays_; }

  /// Garbage collection: the upper layer declares the message stable (it
  /// no longer needs to be relayed on suspicion).  Duplicate suppression
  /// is preserved; only the retained payload reference is dropped (the
  /// payload itself lives in the run's arena until the run ends).  A no-op
  /// without relays, where nothing is retained.
  void release(const RbId& id);

  /// Number of payloads currently retained for potential relay (always 0
  /// without relays).
  [[nodiscard]] std::size_t retained() const { return retained_; }

 private:
  struct Seen {
    const RbPayload* payload = nullptr;  // kept for relaying
    bool relayed = false;
  };

  void handle(const RbPayload* p);

  net::System* sys_;
  net::ProcessId self_;
  fd::FailureDetector* fd_;
  RbConfig cfg_;
  std::unordered_map<int, DeliverFn> clients_;
  /// Relay path only: every R-delivered id, for duplicate suppression.
  std::unordered_map<RbId, Seen, RbIdHash> seen_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t relays_ = 0;
  std::size_t retained_ = 0;
};

}  // namespace fdgm::rbcast
