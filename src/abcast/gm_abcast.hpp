// Fixed-sequencer uniform atomic broadcast on top of group membership —
// the "GM algorithm" of the paper (§4.2).
//
// Data plane (failure-free path, identical message pattern to the FD
// algorithm, Fig. 1):
//   1. A-broadcast(m): the origin multicasts m itself (DATA) to the view;
//   2. the sequencer (first member of the view) assigns m a sequence
//      number and multicasts SEQNUM — several assignments per message
//      under load (aggregation);
//   3. every other member acknowledges with a *cumulative* ACK once it
//      holds content + sequence number for everything up to sn;
//   4. when a majority of the view covers sn, the sequencer A-delivers and
//      multicasts a cumulative DELIVER; the others A-deliver in order.
//
// Reconfiguration is delegated to gm::GroupMembership: on a view change
// the data plane freezes, exchanges unstable messages, flushes the decided
// set U' and resumes in the next view (a new sequencer re-sequences every
// pending message).  A wrongly excluded process buffers its own
// A-broadcasts, rejoins via state transfer and then resumes.
//
// The non-uniform variant of §8 (two multicasts, no ack/deliver phase) is
// available through GmAbcastConfig::uniform = false.
//
// Data plane state lives in util::SeqMap windows, the one window type
// over dense keys: what a process knows of each undelivered message, its
// content and its sequence number, in one slot of a per-origin window over
// the seqs (InFlightWindows); msg_at_ maps sequence numbers back to ids,
// and keeps the content of the delivered, not yet stable ones.  Both are
// trimmed from below, so they span the messages in flight, and neither
// allocates per message once grown.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "abcast/abcast.hpp"
#include "consensus/chandra_toueg.hpp"
#include "fd/failure_detector.hpp"
#include "gm/membership.hpp"
#include "gm/view.hpp"
#include "net/system.hpp"
#include "obs/causal.hpp"
#include "util/seq_map.hpp"

namespace fdgm::abcast {

struct GmAbcastConfig {
  /// Uniform (4-phase) or non-uniform (2-multicast) delivery rule.
  bool uniform = true;
  /// Submission batching + flow control (see abcast::BatchConfig).
  BatchConfig batching;
};

/// The GM sequencer's majority cover over its view's cumulative ack
/// points.  Every member has a point: its latest cumulative ACK this view,
/// the settled floor while it has sent none (kNoAck), and for the
/// sequencer itself, which holds everything it assigned, its last
/// assigned sn.  An sn is deliverable once a majority of points cover it,
/// so the cover is the majority-th largest point; the stable point, which
/// every member holds, is the smallest.  Within a view the points only
/// rise, so the cover keeps a count of points per sn over a SeqMap window
/// from the stable point up, and moves a cover pointer and a stable pointer
/// up as points pass them: amortized O(1) per ACK and per assignment,
/// where a selection over the view would be O(n) per ACK.  Anything else
/// (a new view or floor, a first ACK below the floor) makes the next
/// select() recount, in O(view + window).
class AckCover {
 public:
  static constexpr std::int64_t kNoAck = -1;

  /// `n`: the process count (pids index the ack points).
  explicit AckCover(std::size_t n) : acks_(n, kNoAck), counted_(n, 0) {}

  /// Forgets every ack point (a new view, or a restart).
  void reset() {
    std::ranges::fill(acks_, kNoAck);
    stale_ = true;
  }

  /// Raises `p`'s cumulative ack point to `cum` if it is higher; returns
  /// the point.  An ACK from a process outside the view counted last is
  /// recorded but counts nowhere, as it counts in no selection.
  std::int64_t ack(net::ProcessId p, std::int64_t cum);

  struct Cover {
    std::int64_t deliverable;  // majority-th largest point
    std::int64_t stable;       // smallest point
  };
  /// The cover of `view`, selected by `self`, whose own point is `own`;
  /// members without an ACK count at `floor`.
  Cover select(const gm::View& view, net::ProcessId self, std::int64_t floor, std::int64_t own);

 private:
  void recount(const gm::View& view, net::ProcessId self, std::int64_t floor, std::int64_t own);
  /// One point rises from `from` to `to` (> from).
  void move(std::int64_t from, std::int64_t to);

  std::vector<std::int64_t> acks_;     // per pid: cumulative ACK this view, or kNoAck
  std::vector<std::uint8_t> counted_;  // per pid: its point is in counts_
  bool stale_ = true;                  // counts_ and the pointers need a recount
  std::uint64_t view_id_ = 0;          // what the counts describe
  std::int64_t floor_ = 0;
  std::int64_t own_ = 0;
  std::size_t k_ = 1;                                 // majority of the view
  util::SeqMap<std::int64_t, std::uint32_t> counts_;  // points per sn, from stable_ up
  std::int64_t cover_ = 0;                            // majority-th largest point
  std::size_t over_ = 0;                              // points above cover_, < k_
  std::int64_t stable_ = 0;                           // smallest point
};

class GmAbcastProcess final : public AtomicBroadcastProcess, public gm::MembershipClient,
                              public net::Layer {
 public:
  GmAbcastProcess(net::System& sys, net::ProcessId self, fd::FailureDetector& fd,
                  GmAbcastConfig cfg = {});
  ~GmAbcastProcess() override;

  // AtomicBroadcastProcess
  void on_restart() override;

  [[nodiscard]] const gm::View& view() const { return membership_.view(); }
  [[nodiscard]] const gm::GroupMembership& membership() const { return membership_; }
  [[nodiscard]] bool is_sequencer() const {
    return member_ && view_.members.front() == self_;
  }

  /// Test/debug access to the (membership's) consensus endpoint.
  [[nodiscard]] consensus::ConsensusService& consensus_dbg() { return membership_.consensus_dbg(); }

  /// Test/debug view of the data plane's bookkeeping sizes, which must stay
  /// bounded by the messages in flight rather than by the run's history.
  struct DataPlaneSizes {
    std::size_t arrival_order;    // sequencing-order entries (incl. not yet compacted)
    std::size_t undelivered;      // known, undelivered contents
    std::size_t held_slots;       // slots of the per-origin {content, sn} windows
    std::size_t sn_window;        // sequence-number -> id window slots
    std::size_t delivered_words;  // words of the per-origin delivered windows
  };
  [[nodiscard]] DataPlaneSizes data_plane_dbg() const {
    return {arrival_order_.size(), undelivered_, held_.slots(), msg_at_.window(),
            delivered_words()};
  }

  // gm::MembershipClient
  [[nodiscard]] gm::UnstableReport unstable_messages() const override;
  void on_view_change_started() override;
  void flush(const std::vector<gm::UnstableEntry>& u, std::int64_t settled) override;
  void on_view_installed(const gm::View& v, bool member) override;
  [[nodiscard]] std::uint64_t log_length() const override { return delivered_count(); }
  [[nodiscard]] net::PayloadPtr make_state(std::uint64_t from) const override;
  void apply_state(const net::PayloadPtr& state) override;

  // net::Layer — DATA / SEQNUM / ACK / DELIVER / NEED.
  void on_message(const net::Message& m) override;

 protected:
  // AtomicBroadcastProcess submission hook: one DATA multicast carrying
  // the message or the batch, which the sequencer then covers with a
  // single SEQNUM assignment round.
  void disseminate(const AppMessagePtr* msgs, std::size_t count) override;

 private:
  /// The causal classifier decodes the private SEQNUM payload (which
  /// application messages a GM frame carries).
  friend void obs::classify_gm_payload(net::PayloadPtr p, obs::MsgRefList& out);

  class SeqnumMsg;
  class AckMsg;
  class DeliverMsg;
  class NeedMsg;
  class GmState;

  /// DATA: admits every message `data` carries, then runs the ordering
  /// step once if any was new.  False when `data` is no application data.
  bool handle_data(net::PayloadPtr data);
  /// Dedup + record one message's content; returns false if already known
  /// or delivered.
  bool admit_data(AppMessagePtr msg);
  /// Records `msg`'s content (appending it to the sequencing order);
  /// false when it was held already.
  bool hold_content(AppMessagePtr msg);
  /// Records the assignment `sn` -> `id`: the id keeps its first sequence
  /// number, the sn its first id, and a delivered id holds no slot.
  void assign(const MsgId& id, std::int64_t sn);
  /// Forgets `id`'s sequence number (a dead view's assignment).
  void drop_sn(const MsgId& id);
  /// One ordering step: sequence (active sequencer) or ack (follower).
  void trigger_ordering();
  void sequence_pending();
  void try_advance_ack();
  void try_deliver_sequencer();
  void deliver_up_to(std::int64_t sn);
  void deliver_msg(AppMessagePtr msg);
  void drop_mappings_above_floor();
  void send_buffered();
  [[nodiscard]] bool active_sequencer() const { return is_sequencer() && !frozen_; }

  fd::FailureDetector* fd_;
  GmAbcastConfig cfg_;
  gm::GroupMembership membership_;

  gm::View view_;  // data-plane copy of the current view
  bool member_ = true;
  bool frozen_ = false;

  /// One sequence number still in play: its id and, once delivered here,
  /// its content.  A delivered, not yet stable message may still be
  /// undelivered elsewhere, so it keeps its sequence number through a view
  /// change (unstable_messages) and serves NEED repairs.  `Assigned{}` is
  /// empty (no member initializers, as for Held).
  struct Assigned {
    MsgId id;
    AppMessagePtr delivered;
    [[nodiscard]] bool empty() const { return id.seq == 0; }
  };
  /// sn -> assignment of the sequence numbers still in play.  It is
  /// trimmed from below at the stable point: every member holds content
  /// and order up to there, so no ack, delivery or NEED (whose `from` is
  /// a member's cumulative ack) looks below it again, and no SEQNUM of the
  /// view reaches below it: the sequencer sends SEQNUMs, repairs included,
  /// and DELIVERs down one FIFO channel, and a SEQNUM assigns only sns
  /// above every stable point it announced before.  Every trimmed id is
  /// delivered here.  It is cut from above when a view change drops the
  /// dead view's assignments: a delivered sn was acked by a majority,
  /// which intersects the majority of reports, so the decided floor
  /// covers it and the cut drops undelivered ones only.
  util::SeqMap<std::int64_t, Assigned> msg_at_;

  /// What is known of one undelivered message: its content and its
  /// sequence number (0: none yet; assigned ones start at 1).  Either may
  /// come first: a SEQNUM can overtake the DATA it orders.  `Held{}` is
  /// empty (no member initializers: the window type names it while this
  /// class is still incomplete).
  struct Held {
    AppMessagePtr msg;
    std::int64_t sn;
    [[nodiscard]] bool empty() const { return msg == nullptr && sn == 0; }
  };
  // held_ and arrival_order_ describe undelivered messages only:
  // deliver_msg drops a message's slot (arrival_order_'s entry lazily).
  InFlightWindows<Held> held_;
  std::size_t undelivered_ = 0;       // slots with content
  std::vector<MsgId> arrival_order_;  // sequencing order

  std::int64_t sn_floor_ = 0;    // everything <= floor is settled
  std::int64_t ack_sn_ = 0;      // cumulative ack point (follower)
  std::int64_t deliver_sn_ = 0;  // highest sequenced sn delivered
  std::int64_t announced_ = 0;   // highest DELIVER cum seen / sent
  std::int64_t requested_ = 0;   // NEED-repair throttle

  // Sequencer state.  Batches run in a shallow pipeline (depth 2, like
  // the FD algorithm's consensus instances): a new SEQNUM batch goes out
  // while at most one earlier batch still awaits its DELIVER.  This is
  // the aggregation mechanism (§4.2) and makes the failure-free pattern
  // per batch identical to one consensus instance of the FD algorithm.
  std::int64_t next_sn_ = 1;
  std::vector<std::int64_t> batch_ends_;  // ends of unannounced batches
  /// The members' cumulative ack points this view and their majority
  /// cover, kept up to date per ACK.
  AckCover cover_;

  std::vector<AppMessagePtr> own_buffer_;  // A-broadcasts while excluded
};

}  // namespace fdgm::abcast
