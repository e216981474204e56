// Latency bookkeeping for the paper's metric (§5.1):
//   L(m) = earliest A-deliver(m) across all processes - A-broadcast(m).
//
// The recorder also tracks the undelivered backlog, which the scenario
// runner uses to detect saturation (points the paper leaves off its
// graphs because the algorithm "does not work" there).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "abcast/abcast.hpp"
#include "net/message.hpp"
#include "sim/time.hpp"
#include "util/stats.hpp"

namespace fdgm::core {

class LatencyRecorder {
 public:
  /// Record an A-broadcast event.
  void on_broadcast(const abcast::MsgId& id, sim::Time t);

  /// Record an A-delivery at some process; only the earliest one counts.
  void on_deliver(const abcast::AppMessage& msg, sim::Time t);

  /// Latency samples of all messages broadcast in [from, to) that have
  /// been delivered somewhere.
  [[nodiscard]] util::RunningStats window_stats(sim::Time from, sim::Time to) const;

  /// Latency of one message; negative if not yet delivered anywhere.
  [[nodiscard]] double latency_of(const abcast::MsgId& id) const;

  /// Messages broadcast in [from, to).
  [[nodiscard]] std::size_t broadcast_in_window(sim::Time from, sim::Time to) const;

  /// Messages broadcast in [from, to) not yet delivered anywhere.
  [[nodiscard]] std::size_t undelivered_in_window(sim::Time from, sim::Time to) const;

  /// Messages not yet delivered anywhere that were broadcast more than
  /// `age` ago (saturation signal).
  [[nodiscard]] std::size_t stale_undelivered(sim::Time now, double age) const;

  [[nodiscard]] std::size_t total_broadcast() const { return entries_.size(); }
  [[nodiscard]] std::size_t total_delivered() const { return delivered_; }

 private:
  struct Entry {
    sim::Time sent = 0;
    sim::Time first_delivery = -1;  // <0: not delivered yet
  };

  std::unordered_map<abcast::MsgId, Entry, abcast::MsgIdHash> entries_;
  /// Ids delivered somewhere: the dense per-origin set answers the n - 1
  /// later deliveries of a message without a hash lookup.
  abcast::DeliveredIds delivered_ids_;
  std::size_t delivered_ = 0;
};

}  // namespace fdgm::core
