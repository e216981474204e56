// Shared types of the consensus subsystem.
#pragma once

#include <cstdint>

#include "net/message.hpp"

namespace fdgm::consensus {

/// Wire message of the Chandra-Toueg algorithm.  ESTIMATE/ACK/NACK are
/// unicast to the round's coordinator; PROPOSE, ROUND-FAILED and DECIDE
/// are multicast to the other members.  `number` identifies the instance
/// (consensus #k / view change #v) within its service's one client.
class ConsensusMsg final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kConsensus;
  static constexpr std::uint8_t kKind = 0;

  enum class Kind : std::uint8_t { kEstimate, kPropose, kAck, kNack, kRoundFailed, kDecide };

  ConsensusMsg(std::uint64_t number, Kind kind, std::uint32_t round, net::PayloadPtr value,
               std::uint32_t ts)
      : Payload(kProto, kKind), number(number), kind(kind), round(round), value(value), ts(ts) {}

  std::uint64_t number;
  Kind kind;
  std::uint32_t round;
  net::PayloadPtr value;  // estimate / proposal / decision (null for ack/nack)
  std::uint32_t ts;       // estimate timestamp (ESTIMATE only)
};

}  // namespace fdgm::consensus
