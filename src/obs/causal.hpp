// Causal critical-path tracing: cause taxonomy, edge records and the
// payload classifier of the observability subsystem.
//
// The protocol/network hook sites record *markers* — point events at a
// resource-enqueue or completion instant — and *stall intervals* (the
// transport's loss-recovery waits) per message into per-origin edge
// slabs owned by the Observer.  A cold-path walker (causal.cpp)
// backtracks from each global-first A-delivery to its submit and
// attributes every millisecond of the span to exactly one cause bucket,
// so the per-cause sums of a message add up to its end-to-end latency.
//
// The design honors the PR-7 observability contract:
//  * armed-invisible — recording an edge never schedules an event,
//    draws randomness or touches protocol state, so armed-causal runs
//    reproduce the golden delivery hashes and executed-event counts bit
//    for bit;
//  * allocation-free steady state — edge slabs are reserved up front
//    and overflow drops are counted (flight-recorder semantics);
//  * the classifier is a pure read of immutable payloads: it decodes
//    which application messages a frame carries (batches, consensus
//    proposals, GM seqnum announcements) without mutating anything.
//
// Why markers instead of carrying interval state through the network:
// its pipeline stages are handler records whose one argument is a
// fan-out pool index, and one receive-group record fires the jobs of
// many destinations, so an enqueue instant would have to ride in the
// pool entries, which every run pays for, armed or not.  Point markers
// at the enqueue and the completion instant use only `now`, and the
// walker pairs them FIFO per (kind, node) to reconstruct the hop
// intervals.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "net/message.hpp"

namespace fdgm::obs {

/// Cause buckets of the critical-path attribution.  Every millisecond of
/// a delivered message's span lands in exactly one bucket.
enum class Cause : std::uint8_t {
  kCreditWait = 0,   // submission blocked by a closed credit window
  kBatchWait,        // queued behind the batch flush timer / target
  kCpuQueue,         // send- or receive-CPU queueing + service (λ model)
  kWire,             // shared-wire queueing + transmission
  kLossNack,         // loss-recovery stall ended by a NACK retransmission
  kLossTimer,        // loss-recovery stall ended by a blind timer probe
  kLossBackoff,      // backoff-timer postponement on a quiet channel
  kSeqQueue,         // GM sequencer pending queue (admit to seq-assign)
  kConsensusRound,   // FD consensus rounds (round start to decision)
  kReorderHold,      // transport reorder-buffer hold at the deliverer
  kCount
};

inline constexpr std::size_t kCauseCount = static_cast<std::size_t>(Cause::kCount);

/// Stable snake_case bucket name (critical-path CSV column header).
[[nodiscard]] const char* cause_name(Cause c);

/// Edge record kinds.  The k*Enq/k*Done pairs are point markers the
/// walker pairs FIFO per (kind, node); kStall* carry a real [t0, t1)
/// interval; the remaining kinds are single anchoring instants.
enum class EdgeKind : std::uint8_t {
  kSendEnq = 0,    // frame entered the sender-CPU queue
  kSendDone,       // sender CPU finished serving it
  kWireEnq,        // frame entered the shared wire queue
  kWireDone,       // wire transmission completed (fan-out instant)
  kRecvEnq,        // per-destination receive-CPU enqueue
  kRecvDone,       // receive CPU handed the frame up
  kReorderEnq,     // frame parked out-of-order in the transport buffer
  kReorderRel,     // in-order release from the reorder buffer
  kSeqEnter,       // message admitted to the GM sequencer pending queue
  kConsStart,      // consensus proposal covering the message was built
  kCreditClosed,   // submission accepted while the credit window was shut
  kStallNack,      // [last_tx, nack-retx): wait ended by a NACK
  kStallTimer,     // [last_tx, probe): wait ended by a blind timer probe
  kStallBackoff,   // [now, deadline): probe postponed on a quiet channel
  kCount
};

/// One causal edge in a per-origin slab (24 bytes).  Markers carry
/// t0 == t1; stall records carry the full interval.
struct Edge {
  double t0 = 0.0;
  double t1 = 0.0;
  std::uint32_t seq = 0;      // per-origin message sequence number
  std::int16_t node = -1;     // resource/process the edge anchors to
  EdgeKind kind = EdgeKind::kCount;
};

/// Packs (origin, kind, node) into the single 32-bit key the
/// on_edge hook carries (origin < 4096, node in [-1, 4094]).
[[nodiscard]] inline std::uint32_t edge_key(int origin, EdgeKind kind, int node) {
  return (static_cast<std::uint32_t>(origin) << 20) |
         ((static_cast<std::uint32_t>(node + 1) & 0xfffu) << 8) |
         static_cast<std::uint32_t>(kind);
}

/// One application message referenced by a frame payload.
struct MsgRef {
  int origin = 0;
  std::uint64_t seq = 0;
};

/// Fixed-capacity classifier output: the set of application messages a
/// frame payload covers.  Lives on the hook-site stack — no allocation on
/// the hot path; past capacity refs are dropped and counted (the walker
/// tolerates missing edges, they only soften the attribution).
class MsgRefList {
 public:
  static constexpr std::size_t kMax = 256;

  void add(int origin, std::uint64_t seq) {
    if (size_ < kMax) {
      refs_[size_] = MsgRef{origin, seq};
      ++size_;
    } else {
      ++dropped_;
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  [[nodiscard]] const MsgRef& operator[](std::size_t i) const { return refs_[i]; }

 private:
  std::array<MsgRef, kMax> refs_{};
  std::size_t size_ = 0;
  std::size_t dropped_ = 0;
};

/// Decodes which application messages `p` carries: application payloads
/// and batches directly, consensus messages by recursion into their
/// value, and the two protocol stacks' private payloads through the
/// per-stack classifiers below.  Control-only payloads (acks, sync,
/// membership) contribute nothing.  Pure read; safe on any thread.
void classify_payload(net::PayloadPtr p, MsgRefList& out);

/// Per-stack classifiers, defined next to the private payload types they
/// decode (fd_abcast.cpp / gm_abcast.cpp).  Both handle only their own
/// kAtomicBroadcast kind range and ignore everything else.
void classify_fd_payload(net::PayloadPtr p, MsgRefList& out);
void classify_gm_payload(net::PayloadPtr p, MsgRefList& out);

/// Per-message critical-path attribution (walker output).
struct MsgCausal {
  int origin = 0;
  std::uint64_t seq = 0;
  double submit = 0.0;
  double delivered = 0.0;
  std::array<double, kCauseCount> ms{};  // sums to delivered - submit
};

/// Aggregated per-cause sums over a set of walked messages.
struct CauseTotals {
  std::size_t count = 0;
  std::array<double, kCauseCount> sums{};

  bool operator==(const CauseTotals&) const = default;
};

}  // namespace fdgm::obs
