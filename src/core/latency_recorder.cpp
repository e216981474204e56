#include "core/latency_recorder.hpp"

namespace fdgm::core {

void LatencyRecorder::on_broadcast(const abcast::MsgId& id, sim::Time t) {
  entries_.try_emplace(id, Entry{t, -1});
}

void LatencyRecorder::on_deliver(const abcast::AppMessage& msg, sim::Time t) {
  // Every process delivers every message; only the first delivery looks
  // the message up.
  if (!delivered_ids_.insert(msg.id)) return;
  // A message the workload did not register (e.g. a probe injected
  // directly) is registered from the payload stamp.
  entries_.try_emplace(msg.id, Entry{msg.sent_at, -1}).first->second.first_delivery = t;
  ++delivered_;
}

util::RunningStats LatencyRecorder::window_stats(sim::Time from, sim::Time to) const {
  util::RunningStats s;
  for (const auto& [id, e] : entries_) {
    if (e.sent < from || e.sent >= to || e.first_delivery < 0) continue;
    s.add(e.first_delivery - e.sent);
  }
  return s;
}

double LatencyRecorder::latency_of(const abcast::MsgId& id) const {
  auto it = entries_.find(id);
  if (it == entries_.end() || it->second.first_delivery < 0) return -1.0;
  return it->second.first_delivery - it->second.sent;
}

std::size_t LatencyRecorder::broadcast_in_window(sim::Time from, sim::Time to) const {
  std::size_t n = 0;
  for (const auto& [id, e] : entries_)
    if (e.sent >= from && e.sent < to) ++n;
  return n;
}

std::size_t LatencyRecorder::undelivered_in_window(sim::Time from, sim::Time to) const {
  std::size_t n = 0;
  for (const auto& [id, e] : entries_)
    if (e.sent >= from && e.sent < to && e.first_delivery < 0) ++n;
  return n;
}

std::size_t LatencyRecorder::stale_undelivered(sim::Time now, double age) const {
  std::size_t n = 0;
  for (const auto& [id, e] : entries_)
    if (e.first_delivery < 0 && now - e.sent > age) ++n;
  return n;
}

}  // namespace fdgm::core
