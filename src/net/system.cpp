#include "net/system.hpp"

#include <stdexcept>

#include "obs/observer.hpp"

namespace fdgm::net {

System::System(int num_processes, NetworkConfig cfg, std::uint64_t seed,
               transport::Config transport_cfg)
    : rng_(seed) {
  if (num_processes <= 0) throw std::invalid_argument("System: need at least one process");
  network_ = std::make_unique<Network>(*this, num_processes, cfg);
  if (transport_cfg.enabled) {
    transport_ = std::make_unique<transport::Transport>(*this, num_processes);
    network_->set_transport(transport_.get());
  }
  nodes_.reserve(static_cast<std::size_t>(num_processes));
  all_.reserve(static_cast<std::size_t>(num_processes));
  for (int i = 0; i < num_processes; ++i) {
    nodes_.push_back(std::make_unique<Node>(i, *this));
    all_.push_back(i);
  }
}

void System::set_observer(obs::Observer* o) {
  obs_ = o;
  network_->set_observer(o);
  if (transport_ != nullptr) transport_->set_observer(o);
}

std::vector<ProcessId> System::alive() const {
  std::vector<ProcessId> out;
  out.reserve(nodes_.size());
  for (const auto& nd : nodes_)
    if (!nd->crashed()) out.push_back(nd->id());
  return out;
}

void System::crash(ProcessId p) {
  Node& nd = node(p);
  if (nd.crashed()) return;
  nd.crash();
  // Ground truth for the observer's empirical FD QoS meter: measured T_D
  // counts from this instant to each monitor's first suspicion.
  if (obs_ != nullptr) obs_->on_crash(p, sched_.now());
  for (auto& fn : crash_listeners_) fn(p, sched_.now());
}

void System::crash_at(ProcessId p, sim::Time t) {
  sched_.schedule_at(t, [this, p] { crash(p); });
}

void System::restart(ProcessId p) {
  Node& nd = node(p);
  if (!nd.crashed()) return;
  nd.restart();
  if (obs_ != nullptr) obs_->on_recover(p, sched_.now());
  for (auto& fn : recovery_listeners_) fn(p, sched_.now());
}

void System::restart_at(ProcessId p, sim::Time t) {
  sched_.schedule_at(t, [this, p] { restart(p); });
}

}  // namespace fdgm::net
