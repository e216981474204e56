// Contention-aware network model (paper §6.1, after Urbán et al. IC3N'00).
//
// Transmitting a message from pi to pj uses, in order:
//   1. CPU_i for λ time units   (send-side processing),
//   2. the shared network for 1 time unit,
//   3. CPU_j for λ time units   (receive-side processing),
// with FIFO queueing in front of each resource.  A multicast occupies the
// sender CPU and the network once, then every destination CPU in parallel
// (Ethernet-style broadcast medium).  A process never sends to itself:
// destinations equal to the sender are skipped.
//
// Steady-state transmission is allocation-free: a message and its members
// (destinations, with per-member frame headers once the transport or
// checksums stamp them) live in a pooled, capacity-reusing fan-out entry,
// and the pipeline stages are scheduler handler records whose argument is
// its index.  Finished deliveries go to the retransmission transport when
// it is armed and to the destination Node otherwise, both called
// directly.
//
// Grouped receive jobs: the receive-side CPU jobs of one message that
// complete at the same instant (idle receivers of a multicast, the usual
// case) fire from one scheduler record, which calls finish_delivery for
// each member in list order.  A job joins a group only when it carries
// the same message (source, protocol, payload; the frame headers may
// differ), completes at the group's instant, was committed in the same
// fan-out call (one wire completion or one re-filter pass of held
// deliveries), and the group's record is still the latest one scheduled
// at that instant: a group record of the call at the same instant
// replaces it, and a record the call did not schedule (a transport timer
// armed while stamping) closes the group open at its own instant.  A
// record at another instant cannot fall between a group's members, so
// that group stays open.  When more than one such record came in since
// the call's last record, every open group closes: the scheduler tells
// only the latest record's instant.  The grouped jobs' own records would
// have fired back to back in that order at that instant, so one record
// firing them gives the same run.  Scheduler::executed() still
// counts each job.
//
// Crash semantics (software crash): jobs already accepted by a CPU or
// queued behind it complete normally; the Node stops submitting new sends
// and stops receiving deliveries (see Node::crash).
//
// Fault filter stage (driven by fault::Injector): before the receive-side
// CPU job of a destination is enqueued, the message passes a filter:
//   * held links — one n×n matrix of directed link states, allocated on
//     first use.  Each entry carries a partition bit, an asymmetric-cut
//     bit and a flap-down count; a delivery on a link with any of them set
//     is *held* (the channel stays quasi-reliable, as the protocol stacks
//     assume: a real transport retransmits across an outage) and
//     re-injected, in arrival order, when the link comes back up:
//       - partition — set on every link between different process
//         groups, so messages crossing group boundaries wait for the heal;
//       - asymmetric partition — a directed cut: messages from the `from`
//         set to the `to` set are held while the reverse direction flows
//         normally (one-way link failures);
//       - flap — a time-varying directed cut: links cycled down by a flap
//         schedule hold messages and release them at the next up
//         transition (deterministic, no RNG — the up/down pattern is fully
//         determined by the schedule).  A count rather than a bit, so
//         overlapping flap windows on the same link nest;
//   * loss — each remaining delivery is dropped independently with a
//     configurable probability (the "partial multicast loss" model
//     variant; protocols tolerate it only via their repair paths);
//   * corrupt — each remaining delivery on a matching link is silently
//     damaged in transit with a configurable probability: its frame
//     checksum no longer matches its content, so the receiver (the
//     transport's verify, or final delivery when no transport is armed)
//     detects the mismatch and drops the frame;
//   * delay spike — the shared medium's service time is multiplied by a
//     factor while the spike is active.
//
// Frame checksums are armed once per run (enable_checksums, latched by
// the Injector when the schedule contains any corrupt event): every
// per-destination copy is digest-stamped in the wire-completion event,
// after the transport assigned its sequence number.
// With no corrupt event scheduled the stamping code never runs, so the
// gray machinery is invisible to the determinism goldens.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/message.hpp"
#include "net/resource.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace fdgm::obs {
class Observer;
}

namespace fdgm::transport {
class Transport;
}

namespace fdgm::net {

class System;

struct NetworkConfig {
  /// Relative CPU cost of sending/receiving one message (paper's λ).
  double lambda = 1.0;
};

class Network {
 public:
  /// `sys` receives finished deliveries (its Nodes decide whether the
  /// destination process is still alive).
  Network(System& sys, int num_processes, NetworkConfig cfg);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Submit a message for transmission to an explicit destination list.
  /// Destinations equal to `m.src` are skipped.  Returns true when at
  /// least one destination was accepted — i.e. a send-side CPU job was
  /// enqueued.
  bool submit(const Message& m, const ProcessId* dsts, std::size_t count);
  bool submit(const Message& m, const std::vector<ProcessId>& dsts) {
    return submit(m, dsts.data(), dsts.size());
  }

  [[nodiscard]] int num_processes() const { return static_cast<int>(cpus_.size()); }
  [[nodiscard]] const NetworkConfig& config() const { return cfg_; }

  /// Shared medium statistics (used by tests to count "network slots").
  [[nodiscard]] std::uint64_t network_uses() const { return wire_.jobs(); }
  [[nodiscard]] double network_busy_time() const { return wire_.busy_time(); }
  [[nodiscard]] std::uint64_t cpu_uses(ProcessId p) const { return cpus_.at(p)->jobs(); }
  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }

  /// Current queueing horizons (ms until the resource drains), used by the
  /// retransmission transport to keep its timeout patience above the
  /// pipeline's instantaneous delay — the simulation-level equivalent of a
  /// real transport's RTT estimator, and what prevents timeout
  /// retransmissions from feeding a congestion collapse.
  [[nodiscard]] double wire_backlog() const { return wire_.busy_until() - sched_->now(); }
  [[nodiscard]] double cpu_backlog(ProcessId p) const {
    return cpus_.at(static_cast<std::size_t>(p))->busy_until() - sched_->now();
  }

  /// Optional tap observing every point-to-point delivery (tracing).
  void set_delivery_tap(std::function<void(const Message&, ProcessId)> tap) {
    tap_ = std::move(tap);
  }

  // --- fault filter stage (driven by fault::Injector) ---

  /// Split the system into the given groups.  Processes not listed in any
  /// group form one extra implicit group.  Replaces any earlier partition.
  void set_partition(const std::vector<std::vector<ProcessId>>& groups);

  /// Remove the partition and re-inject every held cross-partition message
  /// (receive-side CPU jobs enqueued now, in original arrival order).
  void heal_partition();

  /// Are a and b currently on different sides of a partition?
  [[nodiscard]] bool partitioned(ProcessId a, ProcessId b) const {
    return (link(a, b) & kPartitionBit) != 0;
  }

  /// Cut every directed link from a process in `from` to a process in
  /// `to`: such deliveries are held (and re-injected at the heal) while
  /// the reverse direction keeps flowing.  Replaces any earlier
  /// asymmetric cut; held messages are re-filtered through the new cut.
  void set_asym_partition(const std::vector<ProcessId>& from, const std::vector<ProcessId>& to);

  /// Remove the directed cut and re-inject every held delivery.
  void heal_asym_partition();

  /// Is the directed link a -> b currently cut?
  [[nodiscard]] bool asym_cut(ProcessId a, ProcessId b) const {
    return (link(a, b) & kAsymBit) != 0;
  }

  /// Drop each remote delivery with probability `rate`, drawing from `rng`
  /// (owned by the caller, typically the Injector's private sub-stream).
  void set_loss(double rate, sim::Rng* rng);
  void clear_loss() { loss_rate_ = 0.0; loss_rng_ = nullptr; }

  /// Is the loss filter currently able to drop deliveries?  The
  /// retransmission transport consults this at stamp time: a frame that
  /// passes a loss-free filter cannot be dropped (partitions hold, they do
  /// not lose), so it needs neither buffering nor a retransmission timer.
  [[nodiscard]] bool loss_active() const { return loss_rate_ > 0.0 && loss_rng_ != nullptr; }

  /// Can a frame submitted now fail to arrive intact?  True while either
  /// the loss filter can drop it or the corruption filter can damage it
  /// (a corrupted frame is dropped by the receiver's checksum verify) —
  /// the transport's stamp-time predicate for ring-buffering frames.
  [[nodiscard]] bool can_drop() const { return loss_active() || corrupt_active(); }

  // --- gray failures ---

  /// Stretch process `p`'s CPU service times by `factor` (the "limp" gray
  /// failure; 1.0 restores nominal speed and is exactly neutral).
  void set_cpu_limp(ProcessId p, double factor);
  [[nodiscard]] double cpu_limp(ProcessId p) const {
    return cpus_.at(static_cast<std::size_t>(p))->stretch();
  }

  /// Take every directed link in `from` × `to` down (messages held, like
  /// an asymmetric cut) / bring it back up (held messages re-injected).
  /// Down states nest: overlapping flap windows on the same link keep it
  /// down until every window has brought it up again.
  void set_flap_down(const std::vector<ProcessId>& from, const std::vector<ProcessId>& to);
  void set_flap_up(const std::vector<ProcessId>& from, const std::vector<ProcessId>& to);

  /// Is the directed link a -> b currently flapped down?
  [[nodiscard]] bool flap_blocked(ProcessId a, ProcessId b) const {
    return link(a, b) >= kFlapUnit;
  }

  /// Corrupt each remote delivery with probability `rate`, drawing from
  /// `rng` (the Injector's private sub-stream).  `link` restricts the
  /// window to the directed links link[0] × link[1]; empty means every
  /// link.  Replaces any earlier corruption window.
  void set_corrupt(double rate, sim::Rng* rng,
                   const std::vector<std::vector<ProcessId>>& link = {});
  void clear_corrupt();
  [[nodiscard]] bool corrupt_active() const {
    return corrupt_rate_ > 0.0 && corrupt_rng_ != nullptr;
  }

  /// Arm frame checksums for the whole run: every remote per-destination
  /// copy gets its digest stamped in the wire-completion event and
  /// verified at the receiver.  Latched once (by Injector::arm when the
  /// schedule contains a corrupt event) — never disarmed mid-run, so
  /// every in-flight frame a receiver verifies carries a digest.
  void enable_checksums() { checksums_enabled_ = true; }
  [[nodiscard]] bool checksums_enabled() const { return checksums_enabled_; }

  /// Observer for the no-transport corruption-detection path (may be
  /// nullptr; counts obs::Counter::kCorruptionDetected per destination).
  void set_observer(obs::Observer* observer) { obs_ = observer; }

  /// Deliveries damaged in transit / detected-and-dropped at final
  /// delivery (the latter only counts the no-transport path: with a
  /// transport armed, detection happens in its receive path and is
  /// reported by transport::Transport::stats).
  [[nodiscard]] std::uint64_t corrupted_deliveries() const { return corrupted_; }
  [[nodiscard]] std::uint64_t corruption_detected() const { return corrupt_detected_; }

  /// Arm (or disarm, with nullptr) the retransmission transport.  While
  /// armed, it stamps every per-destination copy in the wire-completion
  /// event (sequence number and piggybacked ack, no extra scheduler
  /// events), learns of every frame the filter drops or damages, and
  /// receives every finished delivery.
  void set_transport(transport::Transport* t) { transport_ = t; }

  /// Multiply the shared medium's service time by `factor` (1 = normal).
  void set_delay_factor(double factor);
  [[nodiscard]] double delay_factor() const { return delay_factor_; }

  /// Deliveries dropped by the loss filter / held back by a partition so
  /// far (held messages count even after being re-injected by a heal).
  [[nodiscard]] std::uint64_t lost_deliveries() const { return lost_; }
  [[nodiscard]] std::uint64_t held_deliveries() const { return held_total_; }

 private:
  static constexpr std::uint32_t kNoFanout = UINT32_MAX;
  /// Instants a fan-out call keeps a group open at (receivers' CPU
  /// backlogs differ); when full, one group closes.  Any value is exact.
  static constexpr std::size_t kOpenGroups = 4;

  /// Link-matrix entry layout: a delivery on a link whose entry is
  /// non-zero is held.
  static constexpr std::uint16_t kPartitionBit = 1;
  static constexpr std::uint16_t kAsymBit = 2;
  static constexpr std::uint16_t kFlapUnit = 4;  ///< flap-down count in the upper bits

  /// Pooled fan-out entry: a message and its members, the destinations
  /// of a submitted message until its wire slot completes, then a group
  /// of receive jobs that complete together.  `frames` holds the members'
  /// frame headers once one differs from msg.frame (a transport- or
  /// checksum-stamped copy); while it is empty, every member carries
  /// msg.frame.  The capacity is reused across entries, so steady-state
  /// multicasts never allocate.  The pool may grow while an entry is in
  /// use (a delivery handler submits): index it, never hold a reference
  /// across a call that can submit.
  struct Fanout {
    Message msg;
    std::vector<ProcessId> dsts;
    std::vector<FrameHeader> frames;
    std::uint32_t next_free = 0;
  };
  /// The groups a fan-out call has open, at most one per instant: the
  /// latest record the call scheduled at that instant, which a receive
  /// job of the call ending then may join (see the header comment).
  struct OpenGroups {
    struct Group {
      std::uint32_t idx;
      sim::Time t;
    };
    std::array<Group, kOpenGroups> group{};
    std::size_t count = 0;
    /// Scheduler::inserted() after the last record the call accounted
    /// for: its own latest group record, or a record it did not schedule.
    std::uint64_t inserted = 0;
  };

  [[nodiscard]] std::size_t link_index(ProcessId a, ProcessId b) const {
    return static_cast<std::size_t>(a) * cpus_.size() + static_cast<std::size_t>(b);
  }
  [[nodiscard]] std::uint16_t link(ProcessId a, ProcessId b) const {
    return links_.empty() ? 0 : links_[link_index(a, b)];
  }
  /// Does the active corruption window cover the directed link a -> b?
  [[nodiscard]] bool corrupt_match(ProcessId a, ProcessId b) const {
    return corrupt_link_.empty() || corrupt_link_[link_index(a, b)] != 0;
  }

  /// The id check every link setter runs before it changes any state.
  void check_ids(const char* setter, const std::vector<ProcessId>& ids) const;
  /// Mutable entry of link a -> b; allocates the matrix on first use.
  std::uint16_t& link_ref(ProcessId a, ProcessId b);
  void clear_link_bit(std::uint16_t bit);

  void on_send_done(std::uint32_t fanout);
  void refilter_held();
  /// Filters and commits the receive jobs of one transmission, one per
  /// destination, in list order; the transport stamps each copy first.
  void on_wire_done(std::uint32_t fanout);
  void filter_or_deliver(const Message& m, ProcessId d, OpenGroups& open);
  /// Commits the receive-side CPU job and adds it to the open group, or
  /// opens a new one with its own scheduler record.
  void deliver_via_cpu(const Message& m, ProcessId d, OpenGroups& open);
  /// The record of one group: finish_delivery for each member in order.
  void fire_group(std::uint32_t group);
  void finish_delivery(const Message& m, ProcessId d);
  std::uint32_t acquire_fanout(const Message& m);
  void add_member(std::uint32_t idx, ProcessId d, const FrameHeader& frame);
  void release_fanout(std::uint32_t idx);

  sim::Scheduler* sched_;
  /// Handler records of the pipeline stages; each one's argument is a
  /// fan-out entry index.
  sim::Scheduler::HandlerId send_done_ = 0;
  sim::Scheduler::HandlerId wire_done_ = 0;
  sim::Scheduler::HandlerId group_done_ = 0;
  NetworkConfig cfg_;
  Resource wire_;
  std::vector<std::unique_ptr<Resource>> cpus_;
  System* sys_;
  transport::Transport* transport_ = nullptr;
  obs::Observer* obs_ = nullptr;
  std::function<void(const Message&, ProcessId)> tap_;
  std::uint64_t delivered_ = 0;

  std::vector<Fanout> fanouts_;
  std::uint32_t fanout_free_ = kNoFanout;

  /// Directed link states (row-major n*n, see kPartitionBit); empty until
  /// the first partition, cut or flap.
  std::vector<std::uint16_t> links_;
  /// Deliveries on held links awaiting a heal, in arrival order.
  std::vector<std::pair<Message, ProcessId>> held_;
  double loss_rate_ = 0.0;
  sim::Rng* loss_rng_ = nullptr;
  double delay_factor_ = 1.0;
  std::uint64_t lost_ = 0;
  std::uint64_t held_total_ = 0;

  /// Corruption window state: probability, RNG (the Injector's private
  /// sub-stream), and an optional link matrix (empty = every link).
  double corrupt_rate_ = 0.0;
  sim::Rng* corrupt_rng_ = nullptr;
  std::vector<std::uint8_t> corrupt_link_;
  bool checksums_enabled_ = false;
  std::uint64_t corrupted_ = 0;
  /// Detected at final delivery (no-transport path).
  std::uint64_t corrupt_detected_ = 0;
};

}  // namespace fdgm::net
