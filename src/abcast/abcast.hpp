// Common interface of the two uniform atomic broadcast implementations.
//
// The experiment harness interacts with both algorithms exclusively through
// this interface: a submit/credit pair on any process — a_broadcast() plus
// can_submit() back-pressure — and a DeliverSink that reports
// every A-delivery (process-local) with the original send time, so the
// harness can compute the paper's latency metric
//     L = (min_i deliver_time_i) - broadcast_time.
//
// Both algorithms share the paper's failure-free message pattern (one
// data dissemination, then one ordering round per batch); the base class
// owns what is common around it:
//
//  * Submission.  The algorithm supplies one hook, disseminate(msgs, k),
//    which sends data_payload(msgs, k) — the message itself when k = 1,
//    else one AppBatch — and receivers unpack it with for_each_message.
//    With batching disabled, a_broadcast() disseminates each message at
//    once (k = 1), bit-identical to the unbatched tree: no timers, no RNG
//    draws, no extra events.  With batching enabled (BatchConfig),
//    submissions queue locally and flush as one unit — one ordering
//    decision (one consensus proposal / one sequencer assignment round)
//    amortized over k messages.  The target k adapts to the network
//    model's contention signal (wire + local CPU backlog): an idle system
//    flushes at once (k = 1, latency first), a congested one batches
//    harder (throughput first).  A flush timer bounds the queueing delay
//    of partial batches.
//
//  * The A-delivery record.  The algorithm reports each delivery through
//    deliver(), which logs it with its id (stable storage across a
//    crash-recovery), notifies the observer, releases its credit and
//    calls the DeliverSink.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "net/system.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "util/seq_map.hpp"
#include "util/seq_set.hpp"

namespace fdgm::abcast {

/// Globally unique id of an A-broadcast message: (origin, per-origin seq).
struct MsgId {
  net::ProcessId origin = 0;
  std::uint64_t seq = 0;

  friend bool operator==(const MsgId&, const MsgId&) = default;
  friend auto operator<=>(const MsgId&, const MsgId&) = default;
};

struct MsgIdHash {
  std::size_t operator()(const MsgId& id) const {
    return std::hash<std::uint64_t>()(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(id.origin)) << 40) ^ id.seq);
  }
};

/// The ids A-delivered at one process: one dense sequence set per origin
/// (per-origin seqs run 1, 2, ...), so its size tracks the deliveries
/// still out of order, not the run's history.
class DeliveredIds {
 public:
  /// Returns false when `id` was delivered already.
  bool insert(const MsgId& id) {
    const auto o = static_cast<std::size_t>(id.origin);
    if (o >= by_origin_.size()) by_origin_.resize(o + 1, util::SeqSet(1));
    return by_origin_[o].insert(id.seq);
  }
  [[nodiscard]] bool contains(const MsgId& id) const {
    const auto o = static_cast<std::size_t>(id.origin);
    return o < by_origin_.size() && by_origin_[o].contains(id.seq);
  }
  /// Words held across the per-origin windows (tests: state bounds).
  [[nodiscard]] std::size_t window_words() const {
    std::size_t words = 0;
    for (const util::SeqSet& s : by_origin_) words += s.window_words();
    return words;
  }

 private:
  std::vector<util::SeqSet> by_origin_;
};

/// The messages one process holds in flight, one `Slot` per id: per origin
/// a util::SeqMap window over its dense seqs, so a slot is found by index
/// and the windows iterate in id order (origin-major, then seq), as MsgId
/// compares.  An origin's usual load in flight (at most kInline messages)
/// keeps its slots inside the window's record.  A slot is occupied unless
/// `Slot::empty()`; a window is trimmed from below as its lowest slots
/// empty, so it spans the origin's messages in flight, not the run's
/// history.  A slot that stays occupied pins its window: the window then
/// grows by one slot per later seq of that origin.
template <class Slot>
class InFlightWindows {
  using Window = util::SeqMap<std::uint64_t, Slot>;

 public:
  /// Slots a window holds in its own record.
  static constexpr std::size_t kInline = Window::kInline;

  /// The occupied slot of `id`, or null.
  [[nodiscard]] Slot* find(const MsgId& id) {
    const auto o = static_cast<std::size_t>(id.origin);
    return o < by_origin_.size() ? by_origin_[o].find(id.seq) : nullptr;
  }
  [[nodiscard]] const Slot* find(const MsgId& id) const {
    return const_cast<InFlightWindows*>(this)->find(id);
  }

  /// The slot of `id`, empty when it was not occupied; the caller fills
  /// it.
  Slot& slot(const MsgId& id) {
    const auto o = static_cast<std::size_t>(id.origin);
    if (o >= by_origin_.size()) {
      by_origin_.resize(o + 1);
      occupied_.resize(o / 64 + 1, 0);
    }
    occupied_[o / 64] |= std::uint64_t{1} << (o % 64);
    return by_origin_[o].slot(id.seq);
  }

  /// Call after emptying `id`'s slot: trims its window from below.
  void release(const MsgId& id) {
    const auto o = static_cast<std::size_t>(id.origin);
    Window& w = by_origin_[o];
    w.erase(id.seq);
    if (w.empty()) occupied_[o / 64] &= ~(std::uint64_t{1} << (o % 64));
  }

  /// Calls f(id, slot) for every occupied slot, in id order.
  template <class F>
  void for_each(F f) const {
    for (std::size_t word = 0; word < occupied_.size(); ++word) {
      for (std::uint64_t bits = occupied_[word]; bits != 0; bits &= bits - 1) {
        const std::size_t o = word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        const auto origin = static_cast<net::ProcessId>(o);
        by_origin_[o].for_each([&](std::uint64_t seq, const Slot& s) { f(MsgId{origin, seq}, s); });
      }
    }
  }

  void clear() {
    by_origin_.clear();
    occupied_.clear();
  }

  /// Slots held across the windows, empty ones included (tests: state
  /// bounds).
  [[nodiscard]] std::size_t slots() const {
    std::size_t n = 0;
    for (const Window& w : by_origin_) n += w.window();
    return n;
  }

 private:
  std::vector<Window> by_origin_;
  std::vector<std::uint64_t> occupied_;  // bit o: origin o's window holds a slot
};

/// The application-level message carried through atomic broadcast.
class AppMessage final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kApplication;
  static constexpr std::uint8_t kKind = 1;

  AppMessage(MsgId id, sim::Time sent_at) : Payload(kProto, kKind), id(id), sent_at(sent_at) {}

  MsgId id;
  sim::Time sent_at;  // A-broadcast timestamp (for the latency metric)
};

using AppMessagePtr = const AppMessage*;

/// A flushed submission batch: k >= 2 application messages that travel
/// the ordering path as one payload (one reliable broadcast multicast in
/// the FD stack, one DATA multicast in the GM stack) while keeping their
/// per-message ids and send timestamps — the latency metric is still per
/// message.  Built only by AtomicBroadcastProcess::data_payload, read only
/// by for_each_message.
class AppBatch final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kApplication;
  static constexpr std::uint8_t kKind = 2;

  explicit AppBatch(std::vector<AppMessagePtr> msgs)
      : Payload(kProto, kKind), msgs(std::move(msgs)) {}

  std::vector<AppMessagePtr> msgs;
};

/// Calls f(msg) for every application message `p` carries: the message
/// itself, or each message of a batch in submission order.  Returns false
/// (calling f never) when `p` is no application data.
template <class F>
bool for_each_message(net::PayloadPtr p, F f) {
  if (const AppMessage* m = net::payload_cast<AppMessage>(p)) {
    f(m);
    return true;
  }
  if (const AppBatch* b = net::payload_cast<AppBatch>(p)) {
    for (const AppMessagePtr m : b->msgs) f(m);
    return true;
  }
  return false;
}

/// Submission batching + flow control knob (SimConfig::batching).
struct BatchConfig {
  /// Off by default: every run is bit-identical to the unbatched tree.
  bool enabled = false;
};

/// Receiver of local A-deliveries: one virtual call per delivery, no
/// std::function, so the hot path stays allocation-free.
class DeliverSink {
 public:
  /// Invoked on every local A-delivery, in delivery order.
  virtual void on_deliver(const AppMessage& m) = 0;

 protected:
  ~DeliverSink() = default;
};

/// Per-process endpoint of an atomic broadcast algorithm.  The base class
/// owns the submission side (ids, batching queue, credit accounting) and
/// the A-delivery record; the algorithm supplies the ordering machinery
/// via disseminate() and reports deliveries back through deliver().
class AtomicBroadcastProcess {
 public:
  AtomicBroadcastProcess(net::System& sys, net::ProcessId self, BatchConfig batching);
  AtomicBroadcastProcess(const AtomicBroadcastProcess&) = delete;
  AtomicBroadcastProcess& operator=(const AtomicBroadcastProcess&) = delete;
  virtual ~AtomicBroadcastProcess();

  /// A-broadcast a new message from this process.  Returns its id.
  /// No-op (returns a null id with seq 0) on a crashed process.  The
  /// message is accepted even when can_submit() is false — the credit
  /// window is advisory back-pressure for the load source, not a hard
  /// admission limit.
  MsgId a_broadcast();

  /// Flow control: false while this process's credit window is exhausted
  /// (batching on and a window's worth of own messages not yet locally
  /// A-delivered), so open-loop load is shed (core::Workload) instead of
  /// queueing unboundedly.  Always true with batching off.
  [[nodiscard]] bool can_submit() const;

  void set_deliver_sink(DeliverSink* sink) { deliver_sink_ = sink; }

  [[nodiscard]] net::ProcessId id() const { return self_; }
  [[nodiscard]] const BatchConfig& batching() const { return batching_; }

  /// Crash-recovery hook, invoked by the fault injector right after
  /// net::System::restart(p).  The base treats the submission queue as
  /// part of stable storage (accepted submissions were already recorded
  /// by the harness) and re-flushes it; overriding algorithms reset their
  /// volatile state first, then call this.  The A-delivery record is
  /// stable storage too and survives.
  virtual void on_restart();

  /// Local A-deliveries in delivery order (tests: total order / uniform
  /// agreement checks; state transfer and log sync).
  [[nodiscard]] const std::vector<AppMessagePtr>& log() const { return log_; }
  /// Number of messages A-delivered locally.
  [[nodiscard]] std::uint64_t delivered_count() const { return log_.size(); }
  /// Was `id` A-delivered here?
  [[nodiscard]] bool delivered(const MsgId& id) const { return delivered_.contains(id); }
  /// Words held by the per-origin delivered windows (tests: state bounds).
  [[nodiscard]] std::size_t delivered_words() const { return delivered_.window_words(); }

  // Introspection (tests, scenarios).
  [[nodiscard]] std::size_t submit_queue_depth() const { return queue_.size(); }
  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }
  [[nodiscard]] std::uint64_t batches_flushed() const { return batches_flushed_; }
  /// Current adaptive batch target k (>= 1; 1 with batching off).
  [[nodiscard]] std::size_t batch_target() const;

 protected:
  /// The one submission hook: hand `count` >= 1 messages to the ordering
  /// machinery as one unit.  Unbatched, every message arrives here alone,
  /// exactly on the pre-batching per-message hot path.
  virtual void disseminate(const AppMessagePtr* msgs, std::size_t count) = 0;

  /// The wire form of `count` >= 1 messages: the message itself when
  /// count is 1, else one AppBatch in the run's arena.
  [[nodiscard]] net::PayloadPtr data_payload(const AppMessagePtr* msgs, std::size_t count);

  /// Algorithms report every local A-delivery here, in delivery order:
  /// records it in the log and the delivered ids, notifies the observer,
  /// releases the credit of own messages and forwards to the DeliverSink.
  /// A message already delivered here is ignored.
  void deliver(AppMessagePtr m);

  /// Submission entry underneath a_broadcast: queue/flush/credit without
  /// allocating the message (allocation tests drive this directly).
  void enqueue_submission(AppMessagePtr msg);

  /// Flush the queued submissions now (cancels a pending flush timer).
  void flush_queue();

  net::System* sys_;
  net::ProcessId self_;

 private:
  void arm_flush_timer();

  BatchConfig batching_;
  std::uint64_t next_msg_seq_ = 1;
  std::vector<AppMessagePtr> queue_;     // submissions awaiting a flush
  std::vector<AppMessagePtr> flushing_;  // scratch: swap keeps flushes re-entrant-safe
  sim::EventId flush_timer_ = 0;         // 0 = none pending
  std::size_t in_flight_ = 0;            // own messages not yet locally delivered
  std::uint64_t batches_flushed_ = 0;
  DeliverSink* deliver_sink_ = nullptr;
  std::vector<AppMessagePtr> log_;  // A-deliveries, in order
  DeliveredIds delivered_;          // the ids in log_
};

}  // namespace fdgm::abcast
