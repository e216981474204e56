#include "core/experiment.hpp"

#include <stdexcept>

namespace fdgm::core {

const char* algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kFd:
      return "FD";
    case Algorithm::kGm:
      return "GM";
    case Algorithm::kGmNonUniform:
      return "GM-nonuniform";
  }
  return "?";
}

SimRun::SimRun(const SimConfig& cfg, WorkloadConfig wl) : cfg_(cfg) {
  if (cfg.n < 1) throw std::invalid_argument("SimRun: n must be >= 1");
  net::NetworkConfig net_cfg;
  net_cfg.lambda = cfg.lambda;
  sys_ = std::make_unique<net::System>(cfg.n, net_cfg, cfg.seed, cfg.transport);
  if (cfg.obs.enabled) {
    observer_ = std::make_unique<obs::Observer>(cfg.n, cfg.obs);
    sys_->set_observer(observer_.get());
  }
  fd_model_ = std::make_unique<fd::QosFailureDetectorModel>(*sys_, cfg.fd_params);

  procs_.reserve(static_cast<std::size_t>(cfg.n));
  for (int p = 0; p < cfg.n; ++p) {
    std::unique_ptr<abcast::AtomicBroadcastProcess> proc;
    switch (cfg.algorithm) {
      case Algorithm::kFd:
        proc = std::make_unique<abcast::FdAbcastProcess>(
            *sys_, p, fd_model_->at(p), abcast::FdAbcastConfig{.batching = cfg.batching});
        break;
      case Algorithm::kGm:
        proc = std::make_unique<abcast::GmAbcastProcess>(
            *sys_, p, fd_model_->at(p),
            abcast::GmAbcastConfig{.uniform = true, .batching = cfg.batching});
        break;
      case Algorithm::kGmNonUniform:
        proc = std::make_unique<abcast::GmAbcastProcess>(
            *sys_, p, fd_model_->at(p),
            abcast::GmAbcastConfig{.uniform = false, .batching = cfg.batching});
        break;
    }
    proc->set_deliver_sink(this);
    procs_.push_back(std::move(proc));
  }

  std::vector<abcast::AtomicBroadcastProcess*> handles;
  for (auto& p : procs_) handles.push_back(p.get());
  workload_ = std::make_unique<Workload>(*sys_, std::move(handles), recorder_, wl);

  if (!cfg.faults.empty()) {
    injector_ = std::make_unique<fault::Injector>(
        *sys_, fd_model_.get(), cfg.faults,
        [this](net::ProcessId p) { procs_[static_cast<std::size_t>(p)]->on_restart(); });
  }
}

void SimRun::start() {
  fd_model_->start();
  workload_->start();
  if (injector_) injector_->arm();
}

}  // namespace fdgm::core
