// System: the simulated distributed system — scheduler + network + nodes.
//
// Owns the discrete-event scheduler, the contention network, the optional
// retransmission transport and one Node per process, and fans crash
// notifications out to interested components (the failure-detector model,
// the experiment harness).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "net/arena.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "net/node.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "transport/transport.hpp"

namespace fdgm::obs {
class Observer;
}  // namespace fdgm::obs

namespace fdgm::net {

class System {
 public:
  System(int num_processes, NetworkConfig cfg, std::uint64_t seed,
         transport::Config transport_cfg = {});

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  [[nodiscard]] int n() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] const sim::Scheduler& scheduler() const { return sched_; }
  [[nodiscard]] Network& network() { return *network_; }
  /// The retransmission transport; null when not armed.
  [[nodiscard]] transport::Transport* transport() { return transport_.get(); }
  [[nodiscard]] const transport::Transport* transport() const { return transport_.get(); }
  [[nodiscard]] Node& node(ProcessId p) { return *nodes_.at(static_cast<std::size_t>(p)); }
  [[nodiscard]] const Node& node(ProcessId p) const {
    return *nodes_.at(static_cast<std::size_t>(p));
  }
  [[nodiscard]] sim::Time now() const { return sched_.now(); }

  /// The master RNG for this run; components fork sub-streams off it.
  [[nodiscard]] sim::Rng& rng() { return rng_; }

  /// The observability layer; null when disarmed (the default).  Hook
  /// sites across the stack are `if (auto* o = sys.obs())`, so a
  /// disarmed run takes no observability branches at all.
  [[nodiscard]] obs::Observer* obs() const { return obs_; }
  /// Attach (or detach, with null) the observer.  The System does not
  /// own it; the SimRun does.  Propagates to the network and transport.
  void set_observer(obs::Observer* o);

  /// The run's payload arena: every payload sent through this system is
  /// allocated here and lives until the System is destroyed.
  [[nodiscard]] PayloadArena& arena() { return arena_; }

  /// All process ids, 0..n-1.
  [[nodiscard]] const std::vector<ProcessId>& all() const { return all_; }

  /// Ids of processes that have not crashed yet.
  [[nodiscard]] std::vector<ProcessId> alive() const;

  /// Crash process p now (software crash).  Notifies crash listeners.
  void crash(ProcessId p);

  /// Schedule a crash of p at absolute time t.
  void crash_at(ProcessId p, sim::Time t);

  /// Restart a crashed process now (no-op when p is alive).  Notifies
  /// recovery listeners; the protocol stacks' catch-up is triggered
  /// separately (fault::Injector calls AtomicBroadcastProcess::on_restart).
  void restart(ProcessId p);

  /// Schedule a restart of p at absolute time t.
  void restart_at(ProcessId p, sim::Time t);

  /// Listener invoked with (process, crash time) whenever a crash occurs.
  void add_crash_listener(std::function<void(ProcessId, sim::Time)> fn) {
    crash_listeners_.push_back(std::move(fn));
  }

  /// Listener invoked with (process, restart time) whenever a crashed
  /// process restarts.
  void add_recovery_listener(std::function<void(ProcessId, sim::Time)> fn) {
    recovery_listeners_.push_back(std::move(fn));
  }

 private:
  sim::Scheduler sched_;
  sim::Rng rng_;
  PayloadArena arena_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<transport::Transport> transport_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<ProcessId> all_;
  obs::Observer* obs_ = nullptr;
  std::vector<std::function<void(ProcessId, sim::Time)>> crash_listeners_;
  std::vector<std::function<void(ProcessId, sim::Time)>> recovery_listeners_;
};

}  // namespace fdgm::net
