#include "core/workload.hpp"

#include <stdexcept>

#include "obs/observer.hpp"

namespace fdgm::core {

Workload::Workload(net::System& sys, std::vector<abcast::AtomicBroadcastProcess*> procs,
                   LatencyRecorder& recorder, WorkloadConfig cfg)
    : sys_(&sys), procs_(std::move(procs)), recorder_(&recorder) {
  if (procs_.empty()) throw std::invalid_argument("Workload: no processes");
  if (cfg.throughput <= 0) throw std::invalid_argument("Workload: throughput must be positive");
  // T is per second; the simulation's unit is 1 ms.
  const double per_process_rate_per_ms =
      cfg.throughput / 1000.0 / static_cast<double>(procs_.size());
  per_process_mean_gap_ms_ = 1.0 / per_process_rate_per_ms;
  sim::Rng base = sys.rng().fork("workload");
  for (std::size_t i = 0; i < procs_.size(); ++i) rngs_.push_back(base.fork(i));
  chain_alive_.assign(procs_.size(), 0);
  sys.add_recovery_listener([this](net::ProcessId p, sim::Time) {
    const auto idx = static_cast<std::size_t>(p);
    if (started_ && !stopped_ && chain_alive_[idx] == 0) schedule_next(idx);
  });
}

void Workload::start() {
  if (started_) return;
  started_ = true;
  for (std::size_t i = 0; i < procs_.size(); ++i) schedule_next(i);
}

void Workload::schedule_next(std::size_t idx) {
  chain_alive_[idx] = 1;
  const double gap = rngs_[idx].exponential(per_process_mean_gap_ms_);
  sys_->scheduler().schedule_after(gap, [this, idx] {
    if (stopped_) return;
    auto pid = static_cast<net::ProcessId>(idx);
    if (sys_->node(pid).crashed()) {
      // The chain dies with the process; a recovery restarts it.
      chain_alive_[idx] = 0;
      return;
    }
    if (!procs_[idx]->can_submit()) {
      // Back-pressure: shed this arrival, keep the chain running.
      ++shed_;
      if (auto* o = sys_->obs())
        o->count(static_cast<int>(idx), obs::Counter::kCreditSheds, sys_->now());
      schedule_next(idx);
      return;
    }
    const abcast::MsgId id = procs_[idx]->a_broadcast();
    recorder_->on_broadcast(id, sys_->now());
    ++generated_;
    schedule_next(idx);
  });
}

}  // namespace fdgm::core
