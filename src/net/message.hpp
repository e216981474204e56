// Message and addressing primitives shared by all protocol layers.
//
// A message carries an immutable payload allocated from the owning
// System's PayloadArena (see net/arena.hpp): payloads are plain pointers,
// shared by every receiver of a multicast (zero-copy fan-out, no refcount
// traffic) and freed wholesale when the run's arena is destroyed.
//
// Payload dispatch is static: every payload type carries a (protocol,
// kind) tag — the protocol that owns it plus a protocol-private kind
// enum value — and payload_cast<T> checks the tag and static_casts.  No
// virtual dispatch, no RTTI.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fdgm::net {

/// Dense process identifier: 0 .. n-1.
using ProcessId = int;

/// Identifies the protocol layer a message belongs to.  Each Node routes
/// incoming messages to the handler registered for the message's protocol.
enum class ProtocolId : std::uint8_t {
  kApplication = 0,
  kReliableBroadcast,
  kConsensus,
  kAtomicBroadcast,
  kMembership,
  /// Transport control frames (ACK / NACK).  Consumed by the transport
  /// layer below the Node, never routed to a protocol handler.
  kTransport,
  kCount,
};

inline constexpr std::size_t kProtocolCount = static_cast<std::size_t>(ProtocolId::kCount);

/// Base class for protocol payloads.  Non-virtual: the concrete type is
/// identified by the (protocol, kind) tag set at construction.  Each
/// concrete payload type declares
///     static constexpr ProtocolId kProto = ...;
///     static constexpr std::uint8_t kKind = ...;
/// with a kind unique within its protocol (kinds >= 32 are reserved for
/// test-local payloads).  Payloads are immutable once sent and shared
/// between all receivers of a multicast.
class Payload {
 public:
  [[nodiscard]] ProtocolId payload_proto() const { return proto_; }
  [[nodiscard]] std::uint8_t payload_kind() const { return kind_; }

 protected:
  constexpr Payload(ProtocolId proto, std::uint8_t kind) : proto_(proto), kind_(kind) {}
  Payload(const Payload&) = default;
  Payload& operator=(const Payload&) = default;
  ~Payload() = default;  // never destroyed through the base

 private:
  ProtocolId proto_;
  std::uint8_t kind_;
};

using PayloadPtr = const Payload*;

/// Concrete payload for callers that only need an opaque token (tests,
/// benches, examples).
class BlankPayload final : public Payload {
 public:
  static constexpr ProtocolId kProto = ProtocolId::kApplication;
  static constexpr std::uint8_t kKind = 0;
  BlankPayload() : Payload(kProto, kKind) {}
};

/// Per-pair transport framing carried by every point-to-point delivery
/// when the retransmission transport is armed (transport::Transport).
/// `seq` holds the frame's sequence number in the ordered (src, dst)
/// channel in its low 31 bits — 0 means "not a sequenced frame" — and a
/// retransmission flag in the top bit; `ack` piggybacks the sender's
/// cumulative ack for the reverse channel; `check` carries the frame
/// digest stamped in the wire fan-out event whenever the corruption
/// fault can fire (Network::checksums_enabled) — the `corrupt` gray
/// fault damages it in transit and receivers that re-derive the digest
/// detect the mismatch and drop the frame.  Kept to 12 bytes so a
/// Message stays at 32 and still fits the scheduler slab's inline
/// callback buffer when captured by value.
struct FrameHeader {
  static constexpr std::uint32_t kRetxBit = 0x80000000u;
  static constexpr std::uint32_t kSeqMask = 0x7fffffffu;

  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t check = 0;

  [[nodiscard]] std::uint32_t seq_no() const { return seq & kSeqMask; }
  [[nodiscard]] bool is_retx() const { return (seq & kRetxBit) != 0; }
  [[nodiscard]] bool stamped() const { return seq_no() != 0; }
  bool operator==(const FrameHeader&) const = default;
};

struct Message {
  ProcessId src = 0;
  ProtocolId proto = ProtocolId::kApplication;
  FrameHeader frame;
  PayloadPtr payload = nullptr;
};

/// Digest of the fields that are invariant from stamping (wire fan-out)
/// to verification (transport receive / final delivery): source, protocol,
/// payload tag and channel sequence number — everything that identifies
/// the frame's content in this simulation, excluding the mutable header
/// bits (retx flag, piggybacked ack).  One multiply-xor round per field;
/// any single-field change flips the result.
[[nodiscard]] inline std::uint8_t frame_digest(const Message& m) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdULL;
  };
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(m.src)));
  mix(static_cast<std::uint64_t>(m.proto));
  mix(m.payload != nullptr ? static_cast<std::uint64_t>(m.payload->payload_kind()) + 1 : 0);
  mix(m.frame.seq_no());
  h ^= h >> 33;
  return static_cast<std::uint8_t>(h ^ (h >> 8) ^ (h >> 16) ^ (h >> 24));
}

/// Does the frame's stamped digest match its content?  Only meaningful
/// when checksums are armed — stamping happens in the same wire event
/// that filters the delivery, so every frame that reaches a receiver
/// while the corruption machinery is armed carries a digest.
[[nodiscard]] inline bool frame_checksum_ok(const Message& m) {
  return m.frame.check == frame_digest(m);
}

/// Tag-checked downcast: returns nullptr when the payload has a different
/// (protocol, kind) tag.
template <typename T>
const T* payload_cast(PayloadPtr p) {
  return p != nullptr && p->payload_proto() == T::kProto && p->payload_kind() == T::kKind
             ? static_cast<const T*>(p)
             : nullptr;
}

template <typename T>
const T* payload_cast(const Message& m) {
  return payload_cast<T>(m.payload);
}

}  // namespace fdgm::net
