// Chandra-Toueg atomic broadcast — the "FD algorithm" of the paper (§4.1).
//
// A-broadcast(m) reliably broadcasts m to everyone.  Delivery order is
// decided by a sequence of consensus instances #1, #2, ...; the initial
// value and the decision of each instance is a set of message ids.  The
// messages of decision #k are A-delivered before those of #k+1; within a
// decision, messages are A-delivered in the deterministic order of their
// ids.  Aggregation is inherent: one consensus decides the order of every
// message pending at the proposer.
//
// Reliable broadcast (§4.1, footnote 3: one broadcast message in the
// common case, after Frolund & Pedone, "Revisiting reliable broadcast"):
// the process multicasts the data once to the others on kReliableBroadcast
// and R-delivers it locally at once; every other process R-delivers on
// receipt.  That single multicast is the whole protocol, with no relay on
// suspicion, because a relay could never be the only source of a message:
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
// multicast carries the data payload itself and skips its origin.
// Consensus decisions are disseminated by the consensus service on the
// same grounds (consensus/chandra_toueg.hpp).
//
// Instances run in a shallow pipeline (depth W = 2): instance #k may
// start once decision #(k-W) has been processed.  Messages arriving while
// the in-flight instances are busy batch into the next one — the
// algorithm's aggregation mechanism (§4.1) — and per batch the
// failure-free message pattern is identical to the sequencer's (one
// proposal multicast, n-1 acks, one decision multicast), which is what
// lets the paper plot a single curve for both algorithms in the
// normal-steady scenario.  The shallow pipeline also lets a new message
// open its own instance while a previous one is stalled on a crashed
// coordinator, so the transient recovery after a crash costs one round,
// not one round per queued instance (Fig. 8).
//
// Re-numbering optimization (paper §7, crash-steady): each proposal is
// tagged with the proposer's id; the coordinator order of instance #k
// starts at the winning proposer of decision #(k-W), so crashed processes
// eventually stop being round-1 coordinators.  Anchoring the rotation W
// decisions back keeps it identical at every process despite the
// pipelining (anchoring on "the latest local decision" would diverge).
//
// Data plane state: the pending messages live in per-origin util::SeqMap
// windows over their dense seqs (InFlightWindows), one slot per id holding
// the content and its admission number, so proposals list them in id order
// without a tree.  An instance start (or refresh) covers every id
// admitted before it and visits none: it records the admission counter.
// Admission cohorts, bounded by the live starts, keep "is some pending
// message uncovered?" O(1), and applying a decision voids the starts it
// covers without visiting a single id.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "abcast/abcast.hpp"
#include "consensus/chandra_toueg.hpp"
#include "fd/failure_detector.hpp"
#include "net/system.hpp"
#include "obs/causal.hpp"
#include "util/seq_map.hpp"

namespace fdgm::abcast {

struct FdAbcastConfig {
  /// Enables the coordinator re-numbering optimization.
  bool renumbering = true;
  /// Submission batching + flow control (see abcast::BatchConfig).
  BatchConfig batching;
};

/// The FD algorithm assumes crash-stop processes; crash-*recovery* is an
/// extension for the fault-injection scenarios: a restarted process keeps
/// its stable state (A-delivery log, own message counter), discards its
/// instance starts and asks a peer for the log suffix and consensus
/// position it missed (SYNC-REQ / SYNC-RESP over the kAtomicBroadcast
/// protocol, which the FD stack does not otherwise use).  A periodic
/// watchdog repeats the request while the process is stalled, which also
/// covers decisions that were in flight during the first sync.  None of
/// this adds traffic to failure-free runs.
class FdAbcastProcess final : public AtomicBroadcastProcess, public net::Layer,
                              private consensus::Client {
 public:
  /// Builds the full protocol stack of one process: the consensus service
  /// and the atomic broadcast layer on top, which R-delivers its own data.
  FdAbcastProcess(net::System& sys, net::ProcessId self, fd::FailureDetector& fd,
                  FdAbcastConfig cfg = {});
  ~FdAbcastProcess() override;

  // AtomicBroadcastProcess
  void on_restart() override;

  // net::Layer — R-delivered data (kReliableBroadcast), and SYNC-REQ /
  // SYNC-RESP (kAtomicBroadcast, crash-recovery catch-up only).
  void on_message(const net::Message& m) override;

  /// Consensus instances decided so far (tests: aggregation checks).
  [[nodiscard]] std::uint64_t decided_instances() const { return next_to_process_ - 1; }

  /// The kReliableBroadcast layer: this process, which R-delivers its own
  /// data (perf/ times the dispatch through it).
  [[nodiscard]] net::Layer& rb() { return *this; }

  /// Test/debug access to the consensus endpoint.
  [[nodiscard]] consensus::ConsensusService& consensus_dbg() { return consensus_; }

  /// Test/debug view of the bookkeeping sizes that must stay bounded by
  /// the messages in flight rather than by the run's history.
  struct DataPlaneSizes {
    std::size_t pending;          // R-delivered, not yet A-delivered
    std::size_t pending_slots;    // slots of the per-origin pending windows
    std::size_t delivered_words;  // words of the per-origin delivered windows
    std::size_t decided_words;    // words of the consensus decided window
    std::size_t live_starts;      // instance starts that still cover ids
    std::size_t cohorts;          // admission cohorts (<= live_starts + 1)
  };
  [[nodiscard]] DataPlaneSizes data_plane_dbg() const;

 protected:
  // AtomicBroadcastProcess submission hook: one reliable broadcast of the
  // message or of the batch (one data multicast and one consensus
  // proposal slot amortized over k messages).
  void disseminate(const AppMessagePtr* msgs, std::size_t count) override;

 private:
  /// The causal classifier decodes the private Proposal payload (its ids
  /// are the messages a consensus instance covers).
  friend void obs::classify_fd_payload(net::PayloadPtr p, obs::MsgRefList& out);

  /// The consensus value: a set of message ids tagged with the proposer.
  class Proposal final : public net::Payload {
   public:
    static constexpr net::ProtocolId kProto = net::ProtocolId::kAtomicBroadcast;
    static constexpr std::uint8_t kKind = 2;
    Proposal(net::ProcessId proposer, std::vector<MsgId> ids)
        : Payload(kProto, kKind), proposer(proposer), ids(std::move(ids)) {}
    net::ProcessId proposer;
    std::vector<MsgId> ids;
  };

  class SyncReq;
  class SyncResp;

  /// Pipeline depth W: instance #k may start once decision #(k-W) was
  /// processed.  1 = strictly sequential instances.
  static constexpr std::uint64_t kPipeline = 2;
  /// winners_'s absent value.
  static constexpr net::ProcessId kNoWinner = -1;

  /// One disseminated data payload R-delivered: here inside disseminate(),
  /// elsewhere on receipt.
  void on_rdeliver(net::PayloadPtr payload);
  /// Admits one message of an R-delivered payload into pending_; returns
  /// false when it was already A-delivered.
  bool admit_data(AppMessagePtr msg);
  /// Drops `id` from pending_ (A-delivered), and from its cohort.
  void erase_pending(const MsgId& id);
  /// Re-draws the cohort boundaries at the live starts' admission
  /// counters, merging the cohorts no live start bounds.
  void rebound_cohorts();
  // consensus::Client
  std::optional<consensus::StartInfo> join(std::uint64_t number) override;
  void on_decide(std::uint64_t number, net::PayloadPtr value) override;
  void maybe_start_next();
  void process_ready_decisions();
  void send_sync_req();
  void handle_sync_req(net::ProcessId from, const SyncReq& req);
  void apply_sync_resp(const SyncResp& resp);
  void catchup_tick(std::uint64_t epoch);
  /// Start info of instance `number`: its coordinator offset, and a
  /// proposal of all pending ids on its round-1 coordinator only (on any
  /// coordinator's refresh too).  Every process records the start.
  [[nodiscard]] consensus::StartInfo make_start_info(std::uint64_t number);
  /// Records that instance `number` covers every pending id (O(1)) and,
  /// when causal recording is armed, the causal start of its consensus.
  void record_start(std::uint64_t number);
  /// Proposal of all pending ids.
  [[nodiscard]] net::PayloadPtr pending_proposal();
  /// Drops the rotation anchors below the pipeline window.
  void prune_winners();
  /// May instance `number` start yet (pipeline window)?
  [[nodiscard]] bool can_start(std::uint64_t number) const {
    return number < next_to_process_ + kPipeline;
  }
  /// Coordinator rotation offset of instance `number` (identical at every
  /// process): the winner of decision #(number - kPipeline), 0 early on.
  [[nodiscard]] int offset_for(std::uint64_t number) const;

  fd::FailureDetector* fd_;
  FdAbcastConfig cfg_;
  consensus::ConsensusService consensus_;

  /// An R-delivered, not yet A-delivered message and its admission
  /// number: the value of admissions_ when it was admitted.  `Pending{}`
  /// is empty (no member initializers, as for GmAbcastProcess::Held).
  struct Pending {
    AppMessagePtr msg;
    std::uint64_t admission;
    [[nodiscard]] bool empty() const { return msg == nullptr; }
  };
  /// Pending messages, iterated in id order for proposals.
  InFlightWindows<Pending> pending_;
  std::size_t pending_count_ = 0;
  std::uint64_t admissions_ = 0;
  /// Starts at or below swept_ are void: applying decision k voids every
  /// start of an instance at or below k, so ids whose latest proposal
  /// lost are proposed again.  A log sync that skips decisions does not
  /// sweep; the next applied decision does.
  std::uint64_t swept_ = 0;
  /// A live start: instance `number` (> swept_) was started or refreshed
  /// when admissions_ read `admitted`, so it covers every pending id with
  /// a smaller admission number.  An id is covered exactly when some live
  /// start covers it, i.e. when it was admitted before the latest one.
  struct Start {
    std::uint64_t number;
    std::uint64_t admitted;
  };
  /// Live starts in start order.  A start drops every earlier one of an
  /// instance at or below its own (that one covers fewer ids and dies no
  /// later), so numbers strictly fall along the list: at most kPipeline.
  std::vector<Start> starts_;
  /// Pending messages by admission cohort: cohort i holds the ids
  /// admitted from `first` up to the next cohort's `first`.  The first
  /// cohort starts at 0, every other at a live start's `admitted`, so the
  /// last one holds exactly the uncovered ids whenever a start is live.
  struct Cohort {
    std::uint64_t first;
    std::size_t count;
  };
  std::vector<Cohort> cohorts_{Cohort{0, 0}};

  std::uint64_t next_to_process_ = 1;  // next decision to apply
  /// Decisions received but not yet applied, by instance number: a flat
  /// window from next_to_process_ up (the pipeline's few instances; a
  /// recovering process may hold some far above until its log sync).
  util::SeqMap<std::uint64_t, const Proposal*> ready_decisions_;
  /// Winning proposer per processed decision, pruned below the window:
  /// anchors the coordinator rotation of instance #(k + kPipeline).  A
  /// flat window over the last kPipeline + 1 decisions at most.
  util::SeqMap<std::uint64_t, net::ProcessId, kNoWinner> winners_;

  // Crash-recovery catch-up state.
  bool syncing_ = false;           // restarted, no sync response applied yet
  std::uint64_t sync_epoch_ = 0;   // bumped per restart; stale watchdogs die
  std::uint64_t watch_log_ = 0;    // progress snapshot of the last tick
  std::uint64_t watch_next_ = 0;
};

}  // namespace fdgm::abcast
