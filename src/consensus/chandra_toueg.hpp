// Chandra-Toueg ◇S consensus (JACM'96) with the optimizations the paper
// applies (§4.1, footnote 4):
//
//  * Round 1 skips the estimate-collection phase: the first coordinator
//    proposes its own initial value immediately (all timestamps are 0, so
//    any estimate is admissible).
//  * Processes advance rounds lazily: after acknowledging a proposal they
//    wait for the decision and move to the next round only when they
//    suspect the current coordinator (instead of free-running through
//    rounds), so a failure-free instance costs exactly one proposal
//    multicast, n-1 acks and one decision multicast — the Fig. 1 pattern.
//  * Phase 4 follows the published rule: the first majority of replies
//    decides the round's fate — all ACKs: decide; any NACK: the round
//    fails.  On failure the coordinator multicasts a ROUND-FAILED
//    notification so that processes blocked waiting for the decision
//    resynchronize into the next round immediately (without it, lazy
//    round advancement can deadlock under asymmetric wrong suspicions).
//    The notification costs nothing on the failure-free path.
//  * A process that receives a proposal of a later round jumps to that
//    round and acknowledges (safe: the estimate-locking argument of the
//    algorithm does not depend on which rounds a process skips).
//
// The coordinator of round r is members[(offset + r - 1) mod |members|];
// `offset` implements the coordinator re-numbering optimization discussed
// for the crash-steady scenario (§7).
//
// Decisions are disseminated by the service itself: the deciding
// coordinator multicasts DECIDE to the other members, then applies the
// decision locally; every other member applies it on arrival.  That one
// multicast is the reliable broadcast Chandra–Toueg's uniform agreement
// needs here, for the reasons abcast/fd_abcast.hpp gives for data: a
// multicast the sender's CPU accepted reaches every destination
// or none (the contention model; a crash does not cancel a submitted
// CPU job, and the multicast is submitted before the local apply), and
// under loss the transport, which lives below the crash line, keeps
// repairing it after the coordinator crashed.  So once any process
// decided, every correct member learns the decision exactly once.
//
// Each service serves one client (the FD atomic broadcast sequence, or
// the group membership's view changes), called directly through
// consensus::Client; instances are numbered densely from the first
// instance number the client gives at construction.  Instances are
// value-agnostic: estimates/decisions are opaque payloads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "consensus/types.hpp"
#include "fd/failure_detector.hpp"
#include "net/message.hpp"
#include "net/system.hpp"
#include "util/seq_map.hpp"
#include "util/seq_set.hpp"

namespace fdgm::consensus {

/// Everything needed to start (or join) one instance.
struct StartInfo {
  /// Participating processes.  Majority quorums are relative to this set.
  /// Points at the caller's member list: Instance::reset copies it
  /// synchronously (into a capacity-retaining pooled vector), so the
  /// pointee only has to outlive the start/join call — no per-instance
  /// vector allocation on the hot path.  The copy is sorted only when the
  /// list is not sorted already (FD passes System::all(); a GM view may
  /// list its members in any order).
  const std::vector<net::ProcessId>* members = nullptr;
  /// Rotation offset: coordinator of round 1 is members[offset % size]
  /// (see coordinator_of).
  int coordinator_offset = 0;
  /// This process's initial value (proposed if it coordinates round 1).
  /// May be null only when `refresh` is set: a null value travels as an
  /// ESTIMATE with timestamp 0, and a coordinator that finds no positive
  /// timestamp proposes its own refresh(), so such an estimate is never
  /// chosen.  The round-1 coordinator, coordinator_of(members,
  /// coordinator_offset, 1), must hold a value.
  net::PayloadPtr initial = nullptr;
  /// Optional: called when this process coordinates a round in which no
  /// estimate carries a positive timestamp (no value was ever locked — any
  /// proposal is safe).  Lets the client refresh the proposal with work
  /// that arrived after the instance started, so messages queued behind a
  /// stalled round are batched into its recovery instead of waiting.
  std::function<net::PayloadPtr()> refresh{};
};

/// Coordinator of round `r` (rounds count from 1) over `members` sorted
/// ascending, as Instance keeps them: members[(offset + r - 1) mod |members|].
[[nodiscard]] inline net::ProcessId coordinator_of(const std::vector<net::ProcessId>& members,
                                                   int offset, std::uint32_t r) {
  const auto idx = (static_cast<std::size_t>(offset) + (r - 1)) % members.size();
  return members[idx];
}

/// The one user of a ConsensusService.
class Client {
 public:
  /// A message arrived for instance `number`, which is neither running nor
  /// decided here.  Return the StartInfo to join it now, or nullopt to
  /// buffer its traffic until a local start() or retry_buffered() (e.g.
  /// the membership layer joins a view change only once it learned about
  /// it).
  virtual std::optional<StartInfo> join(std::uint64_t number) = 0;
  /// Invoked exactly once per instance with the decision value.
  virtual void on_decide(std::uint64_t number, net::PayloadPtr value) = 0;

 protected:
  ~Client() = default;
};

class ConsensusService;

/// One running Chandra-Toueg instance at one process.
///
/// Instance bodies are pooled by the ConsensusService: one consensus
/// instance runs per message batch, so the per-instance containers
/// (membership, per-round reply arrays) are recycled through
/// reset()/retire() instead of being reallocated per message.  A round's
/// reply array is sized only where a reply is recorded, and only the
/// round's coordinator receives replies: at every other process an
/// instance costs one copy of the member list.
class Instance final : public fd::SuspicionListener {
 public:
  Instance(ConsensusService& service, std::uint64_t number, net::ProcessId self, StartInfo info);
  ~Instance() override;

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  /// Re-arms a pooled instance body for a new instance number (capacity
  /// of the per-round arrays is retained).  The instance must be retired.
  void reset(std::uint64_t number, StartInfo info);

  /// Detaches from the failure detector and clears payload references;
  /// the body is ready for reset().  Idempotent.
  void retire();

  /// Kick off participation (round-1 coordinator proposes here).
  void start();

  /// Handle an ESTIMATE / PROPOSE / ACK / NACK addressed to this instance.
  void on_msg(net::ProcessId from, const ConsensusMsg& m);

  /// The service marks the instance decided (its decision arrived).
  void halt() { done_ = true; }

  // fd::SuspicionListener
  void on_suspect(net::ProcessId p) override;

  [[nodiscard]] net::ProcessId coordinator(std::uint32_t r) const;

 private:
  /// Per-round reply bookkeeping, flattened: instead of ProcessId-keyed
  /// maps/sets (one node allocation per reply), replies live in one
  /// rank-indexed array sized |members| by the round's first recorded
  /// ESTIMATE, ACK or NACK (reply()) — O(1) lookup, zero allocation once
  /// the pooled body warmed up.  Replies from non-members (stale traffic
  /// from processes outside the instance's membership) are ignored — they
  /// must not count toward a majority of `members`.
  struct RoundState {
    static constexpr std::uint8_t kEstimate = 1;
    static constexpr std::uint8_t kAck = 2;
    static constexpr std::uint8_t kNack = 4;
    struct PerMember {
      net::PayloadPtr est_value = nullptr;
      std::uint32_t est_ts = 0;
      std::uint8_t bits = 0;
    };
    std::vector<PerMember> from;  // rank-indexed (position in members_); empty: no reply yet
    std::size_t estimates = 0;
    std::size_t acks = 0;
    std::size_t nacks = 0;
    bool proposed = false;
    bool resolved = false;  // coordinator saw its first majority of replies
    net::PayloadPtr proposal = nullptr;  // set on participants when PROPOSE arrives
    bool have_proposal = false;
    bool failed = false;  // ROUND-FAILED received (or issued)
    // Participant side.
    bool acked = false;
    bool nacked = false;
    bool estimate_sent = false;

    void clear() {
      from.clear();  // capacity retained; re-sized by reply() on first use
      estimates = acks = nacks = 0;
      proposed = resolved = have_proposal = failed = false;
      acked = nacked = estimate_sent = false;
      proposal = nullptr;
    }
  };

  void try_progress();
  void advance_to(std::uint32_t r);
  /// Round r's state (rounds are dense from 1; bodies are pooled across
  /// reset() and stay address-stable while rounds_ grows).
  RoundState& rs(std::uint32_t r);
  /// The reply slot of the member at `rank` in `st`, sizing the round's
  /// reply array on its first reply.
  RoundState::PerMember& reply(RoundState& st, int rank);
  /// Position of p in members_, or -1 when p is not a member.
  [[nodiscard]] int rank_of(net::ProcessId p) const;
  [[nodiscard]] std::size_t majority() const { return members_.size() / 2 + 1; }
  void send_to_coordinator(std::uint32_t r, ConsensusMsg::Kind kind, net::PayloadPtr value,
                           std::uint32_t ts);

  ConsensusService* service_;
  std::uint64_t number_ = 0;
  net::ProcessId self_;
  std::vector<net::ProcessId> members_;
  int offset_ = 0;
  std::function<net::PayloadPtr()> refresh_;
  net::PayloadPtr estimate_ = nullptr;
  std::uint32_t ts_ = 0;
  std::uint32_t round_ = 1;
  bool done_ = false;
  bool in_progress_ = false;  // re-entrancy guard for try_progress
  bool listening_ = false;    // registered as a suspicion listener
  std::vector<std::unique_ptr<RoundState>> rounds_;  // index r-1
};

/// Per-process consensus endpoint of one client: routes messages to
/// instances, creates instances on demand (join-on-first-message), and
/// disseminates and applies decisions.
class ConsensusService final : public net::Layer {
 public:
  /// The client's instance numbers are dense from `first_number`.
  ConsensusService(net::System& sys, net::ProcessId self, fd::FailureDetector& fd, Client& client,
                   std::uint64_t first_number);
  ~ConsensusService() override;

  ConsensusService(const ConsensusService&) = delete;
  ConsensusService& operator=(const ConsensusService&) = delete;

  /// Start instance `number` locally (no-op if already started or decided).
  void start(std::uint64_t number, StartInfo info);

  /// Re-offer buffered messages to the client's join — used when its
  /// readiness condition changed (e.g. the abcast pipeline window
  /// advanced).
  void retry_buffered();

  /// Crash-recovery catch-up: declare every instance below `number`
  /// decided (the client learned their outcomes out of band, e.g. through
  /// a log sync).  Stale local instances and buffered traffic below
  /// `number` are dropped.  Must not be called from inside an Instance
  /// callback.
  void close_below(std::uint64_t number);

  [[nodiscard]] bool decided(std::uint64_t number) const { return decided_.contains(number); }
  /// Words of the decided-instance window (tests: state bounds).
  [[nodiscard]] std::size_t decided_words_dbg() const { return decided_.window_words(); }
  [[nodiscard]] bool running(std::uint64_t number) const { return instances_.contains(number); }

  // net::Layer — ESTIMATE/PROPOSE/ACK/NACK/ROUND-FAILED/DECIDE arrive here.
  void on_message(const net::Message& m) override;

  [[nodiscard]] net::System& system() { return *sys_; }
  [[nodiscard]] net::ProcessId self() const { return self_; }
  [[nodiscard]] fd::FailureDetector& fd() { return *fd_; }

  // --- used by Instance ---
  void unicast(net::ProcessId dst, const ConsensusMsg* m);
  /// Multicast to every member except this process.
  void multicast_others(const std::vector<net::ProcessId>& members, const ConsensusMsg* m);
  /// Coordinator path: multicast the decision to the other members, then
  /// apply it here.
  void decide(std::uint64_t number, const std::vector<net::ProcessId>& members,
              net::PayloadPtr value);

 private:
  void dispatch(net::ProcessId from, const ConsensusMsg* m);
  /// Applies a decision; ignores one already applied.
  void handle_decision(const ConsensusMsg* cm);
  /// Takes an instance body from the pool (or allocates the first time)
  /// and arms it for instance `number`.
  [[nodiscard]] Instance* acquire_instance(std::uint64_t number, StartInfo info);
  /// Retires an instance body into the pool for reuse.
  void retire(Instance* inst);

  net::System* sys_;
  net::ProcessId self_;
  fd::FailureDetector* fd_;
  Client* client_;
  /// Decided instance numbers, whether decided here or settled by
  /// close_below.
  util::SeqSet decided_;
  /// Running instances by number: a flat window over the few numbers in
  /// flight (FD's pipeline, GM's one view change), no node per instance.
  util::SeqMap<std::uint64_t, Instance*> instances_;
  /// Every instance body this service built; running ones are in
  /// instances_, retired ones in pool_.
  std::vector<std::unique_ptr<Instance>> bodies_;
  /// Retired instance bodies, reused by acquire_instance — one consensus
  /// instance runs per message batch, so this avoids re-growing the
  /// per-instance containers on every message.
  std::vector<Instance*> pool_;
  std::unordered_map<std::uint64_t, std::vector<std::pair<net::ProcessId, const ConsensusMsg*>>>
      buffered_;
};

}  // namespace fdgm::consensus
