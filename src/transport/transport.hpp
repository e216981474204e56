// Retransmission transport: per-pair, sequence-numbered quasi-reliable
// channels between net::Network and the protocol stacks.
//
// The paper's stacks assume quasi-reliable channels (no loss between
// correct processes), which the contention network only provides while the
// loss fault is off.  This layer restores the assumption under sustained
// message loss so the `loss` fault event can be driven through the full
// FD- and GM-based atomic broadcast stacks:
//
//  * every point-to-point delivery is stamped — in the network's wire
//    fan-out event, which calls stamp_frame — with a sequence number in
//    the ordered (src, dst) channel plus a piggybacked cumulative ack for
//    the reverse channel (FrameHeader in net/message.hpp);
//  * receivers deliver frames to the Node in per-channel sequence order,
//    park out-of-order frames in a pooled reorder buffer and answer gaps
//    with a NACK carrying (cumulative ack, gap-triggering seq);
//  * senders keep frames that might have been dropped in a pooled
//    retransmission ring (payload handles point into the run's
//    PayloadArena) and retransmit the NACKed range immediately — the
//    channel pipeline is FIFO end to end, so a gap at the receiver is
//    *sound* loss evidence even under congestion.  Rings are pruned by
//    cumulative acks piggybacked on reverse data traffic (free);
//    an exponential-backoff timer covers what NACKs cannot see: tail
//    loss (the last frame of a conversation has no successor to reveal
//    the gap) and silent peers.  The timer never floods: it waits out
//    both the peer's observed reverse-traffic gap envelope and the
//    current wire/CPU backlog (timeouts below the queueing delay are
//    what turn load into congestion collapse), then probes with the
//    single oldest frame — if everything was in fact delivered, the
//    duplicate-triggered cumulative ACK prunes the whole ring for the
//    cost of one unicast;
//  * retransmitted frames carry a retx flag that makes the receiver
//    answer with an explicit cumulative ACK, so a sender whose peer has
//    no reverse traffic still learns the outcome and stops.
//
// Bit-identity when loss is off: the simulator knows whether the loss
// filter can drop a frame at the instant the frame is stamped (stamping
// and filtering run in the same wire-completion event, and partitions
// hold rather than drop).  A frame stamped under a loss-free filter is
// guaranteed to arrive, so it is neither buffered nor timed — stamping
// degenerates to counter arithmetic on the per-destination copy.  An
// armed transport therefore adds zero scheduler events, zero RNG draws
// and zero heap allocations to a loss-free run: delivery sequences,
// event counts and every results CSV are bit-identical to the transport-
// less tree (asserted by tests/determinism_test.cpp golden hashes).
//
// Crash semantics: the transport lives below the Node's crash line (the
// host kernel, in real-system terms).  The software-crash model keeps the
// host CPU serving jobs, so channels keep sequencing, acking and
// retransmitting across a process crash; the payload of a frame delivered
// to a crashed process is dropped at Node::deliver exactly as before, and
// the stacks' recovery protocols (GM rejoin, FD log sync) catch up.
#pragma once

#include <cstdint>
#include <vector>

#include "net/arena.hpp"
#include "net/message.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace fdgm::obs {
class Observer;
}  // namespace fdgm::obs

namespace fdgm::net {
class Network;
class System;
}  // namespace fdgm::net

namespace fdgm::transport {

struct Config {
  /// Arm the transport (SimConfig::transport / fdgm_bench --transport).
  bool enabled = false;
};

/// Aggregate counters over every channel of one system.
struct Stats {
  std::uint64_t data_frames = 0;   ///< fresh frames stamped
  std::uint64_t retransmits = 0;   ///< frame retransmissions (all triggers)
  std::uint64_t retx_nack = 0;     ///< ... triggered by a NACK (gap evidence)
  std::uint64_t retx_timer = 0;    ///< ... timer probes (tail / silent peer)
  std::uint64_t duplicates = 0;    ///< frames suppressed at receivers
  std::uint64_t buffered = 0;      ///< out-of-order frames parked
  std::uint64_t nacks = 0;         ///< NACK control frames sent
  std::uint64_t acks = 0;          ///< explicit ACK control frames sent
  std::uint64_t timer_rounds = 0;  ///< retransmission-timer firings
  std::uint64_t postponed = 0;     ///< timer rounds deferred to the peer's cadence
  std::uint64_t corrupt_dropped = 0;  ///< checksum-failed frames dropped on receive
};

/// Control frame payload (ACK / NACK), allocated from the run's arena.
/// Control frames are fire-and-forget: the loss filter may drop them; the
/// retransmission timer is the backstop.
class TransportCtrl final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kTransport;
  static constexpr std::uint8_t kKind = 0;

  enum class Kind : std::uint8_t { kAck, kNack };

  TransportCtrl(Kind kind, std::uint32_t ack, std::uint32_t hi)
      : Payload(kProto, kKind), kind(kind), ack(ack), hi(hi) {}

  Kind kind;
  /// Cumulative ack of the sender's receiving channel: every frame with
  /// seq <= ack has been received (in order).
  std::uint32_t ack;
  /// NACK only: the gap-triggering seq; the peer retransmits its unacked
  /// frames in (ack, hi).
  std::uint32_t hi;
};

class Transport final {
 public:
  /// Sends through `sys`'s network and releases in-order data frames to
  /// `sys`'s Nodes.  The network must already exist.
  Transport(net::System& sys, int num_processes);

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Sender side, in the wire fan-out event: assigns the per-destination
  /// copy its channel sequence number and piggybacks the reverse
  /// channel's cumulative ack.
  void stamp_frame(net::Message& m, net::ProcessId dst);

  /// The network's filter dropped (or damaged) a stamped frame.  Closes
  /// the held-then-healed race: a frame stamped under a loss-free filter
  /// is not ring-buffered, but if a partition holds it and the heal lands
  /// inside a later loss window, the re-injection runs the loss filter
  /// again — the transport must learn about the drop or the channel
  /// deadlocks on the missing sequence number.  Only invoked on actual
  /// drops, so loss-free runs see no extra work.
  void frame_dropped(const net::Message& m, net::ProcessId dst);

  /// Receive side: every finished network delivery passes through here
  /// (control frames are consumed; data frames are released to the Node
  /// in per-channel sequence order).
  void on_frame(const net::Message& m, net::ProcessId dst);

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Unacked frames currently buffered for retransmission on a -> b.
  [[nodiscard]] std::size_t outstanding(net::ProcessId a, net::ProcessId b) const;
  /// Next expected sequence number of the receiving side of a -> b.
  [[nodiscard]] std::uint32_t expected_seq(net::ProcessId a, net::ProcessId b) const;

  /// Retransmissions whose original *sender* is p (always tracked; feeds
  /// the sequencer-concentration metric of the lossy scenarios).
  [[nodiscard]] std::uint64_t retx_from(net::ProcessId p) const {
    return retx_by_src_.at(static_cast<std::size_t>(p));
  }

  /// Attach the observability layer (null = disarmed; counting only,
  /// never influences behavior).
  void set_observer(obs::Observer* o) { obs_ = o; }

 private:
  /// Ring entry: the full frame (payload handle into the arena) plus its
  /// last transmission time (suppresses NACK-driven duplicates).
  struct RingEntry {
    net::Message msg;
    sim::Time last_tx = 0.0;
  };

  /// Sender side of one ordered channel.  POD-ish; rings and buffers keep
  /// their capacity, so steady-state operation does not allocate.
  struct SendState {
    std::uint32_t next_seq = 1;
    std::uint32_t acked = 0;  ///< all seq <= acked are confirmed received
    std::vector<RingEntry> ring;
    std::size_t ring_head = 0;  ///< ring[ring_head..) are live
    sim::EventId timer = 0;     ///< 0 = no retransmission timer pending
    /// Current backoff value (0 = base RTO).  Grows with every blind
    /// timer round and resets only when *data* arrives from the peer —
    /// control frames don't count, so channels to a crashed process (its
    /// host kernel still acks) settle at the backoff ceiling instead of
    /// cycling retransmissions at the base RTO forever.
    double rto = 0.0;
    /// Reverse-traffic bookkeeping: when this sender last heard anything
    /// from the channel's peer, and a decaying *maximum* of the
    /// inter-arrival gaps (ms; a mean would be skewed low by bursts).
    /// Drives the quiet-channel postponement of the blind timer.
    sim::Time heard = -1.0;
    double rx_gap = 0.0;
  };

  /// Receiver side of one ordered channel.
  struct RecvState {
    std::uint32_t expected = 1;        ///< next in-order seq
    std::vector<net::Message> buffer;  ///< out-of-order frames, seq-sorted
    sim::Time last_nack = -1.0e300;
    double nack_gap = 0.0;  ///< current re-NACK spacing (0 = base)
  };

  [[nodiscard]] std::size_t idx(net::ProcessId a, net::ProcessId b) const {
    return static_cast<std::size_t>(a) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(b);
  }

  void handle_ctrl(const net::Message& m, net::ProcessId dst);
  /// Apply a cumulative ack to channel a -> b (prune, maybe cancel timer).
  void ack_channel(net::ProcessId a, net::ProcessId b, std::uint32_t ack);
  void arm_timer(net::ProcessId a, net::ProcessId b, SendState& s);
  void on_timer(net::ProcessId a, net::ProcessId b);
  /// Record that `self` heard a frame from `peer` (gap envelope of the
  /// reverse channel self -> peer; data contact resets the backoff).
  void note_heard(net::ProcessId self, net::ProcessId peer, bool data);
  void retransmit(net::ProcessId b, RingEntry& e);
  void send_ctrl(net::ProcessId from, net::ProcessId to, TransportCtrl::Kind kind,
                 std::uint32_t hi);

  net::System* sys_;
  sim::Scheduler* sched_;
  net::Network* net_;
  net::PayloadArena* arena_;
  int n_;
  std::vector<SendState> send_;  ///< n*n, row = sender
  std::vector<RecvState> recv_;  ///< n*n, row = sender (channel direction)
  Stats stats_;
  std::vector<std::uint64_t> retx_by_src_;  ///< per-origin retransmission tally
  obs::Observer* obs_ = nullptr;
};

}  // namespace fdgm::transport
