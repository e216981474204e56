// One fully wired simulated system: scheduler + network + failure-detector
// model + one atomic-broadcast stack per process + workload + recorder.
//
// This is the object the scenario runner (and the examples) build once per
// replica run.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "abcast/abcast.hpp"
#include "abcast/fd_abcast.hpp"
#include "abcast/gm_abcast.hpp"
#include "core/latency_recorder.hpp"
#include "core/workload.hpp"
#include "fault/injector.hpp"
#include "fd/qos_model.hpp"
#include "net/system.hpp"
#include "obs/observer.hpp"

namespace fdgm::core {

enum class Algorithm {
  kFd,            // Chandra-Toueg atomic broadcast (failure detectors)
  kGm,            // fixed sequencer + group membership, uniform
  kGmNonUniform,  // §8 extension: non-uniform fixed sequencer
};

[[nodiscard]] const char* algorithm_name(Algorithm a);

struct SimConfig {
  Algorithm algorithm = Algorithm::kFd;
  int n = 3;
  double lambda = 1.0;
  fd::QosParams fd_params;
  std::uint64_t seed = 1;
  /// Scripted fault schedule, armed when the run starts.  Each replica
  /// arms the same schedule against its own seeded system (the injector's
  /// RNG is a fork of the replica master seed), so replicas stay
  /// independent and results are bit-identical for any job count.
  fault::FaultSchedule faults;
  /// Retransmission transport (src/transport/): when enabled, every
  /// point-to-point delivery travels a sequence-numbered per-pair channel
  /// that survives message loss (NACK + backoff-timer recovery).  With
  /// loss off the armed transport is bit-identical to running without it.
  transport::Config transport;
  /// Submission batching + adaptive flow control (both stacks).  Disabled
  /// by default: runs are bit-identical to the unbatched tree.
  abcast::BatchConfig batching;
  /// Observability (src/obs/): lifecycle spans, counter registry, causal
  /// critical paths.  Disarmed by default; armed it is passive (no
  /// events, no RNG draws), so even armed runs are bit-identical.
  obs::Config obs;
};

class SimRun : private abcast::DeliverSink {
 public:
  explicit SimRun(const SimConfig& cfg, WorkloadConfig wl = {});
  ~SimRun() = default;

  SimRun(const SimRun&) = delete;
  SimRun& operator=(const SimRun&) = delete;

  [[nodiscard]] net::System& system() { return *sys_; }
  [[nodiscard]] fd::QosFailureDetectorModel& fd_model() { return *fd_model_; }
  [[nodiscard]] abcast::AtomicBroadcastProcess& proc(net::ProcessId p) {
    return *procs_.at(static_cast<std::size_t>(p));
  }
  [[nodiscard]] LatencyRecorder& recorder() { return recorder_; }
  [[nodiscard]] Workload& workload() { return *workload_; }
  [[nodiscard]] const SimConfig& config() const { return cfg_; }
  /// Null when the config carries no fault schedule.
  [[nodiscard]] fault::Injector* injector() { return injector_.get(); }
  /// Null when observability is disarmed.
  [[nodiscard]] obs::Observer* observer() { return observer_.get(); }

  /// Starts the failure-detector renewal processes, the workload and the
  /// fault injector (if a schedule was configured).
  void start();

  /// Convenience: run until simulated time t.
  void run_until(sim::Time t) { sys_->scheduler().run_until(t); }

 private:
  // abcast::DeliverSink — every process's local A-deliveries feed the
  // latency recorder.
  void on_deliver(const abcast::AppMessage& m) override {
    recorder_.on_deliver(m, sys_->now());
  }

  SimConfig cfg_;
  std::unique_ptr<net::System> sys_;
  // Declared directly after sys_: the observer outlives every component
  // whose hooks reach it.
  std::unique_ptr<obs::Observer> observer_;
  std::unique_ptr<fd::QosFailureDetectorModel> fd_model_;
  std::vector<std::unique_ptr<abcast::AtomicBroadcastProcess>> procs_;
  LatencyRecorder recorder_;
  std::unique_ptr<Workload> workload_;
  std::unique_ptr<fault::Injector> injector_;
};

}  // namespace fdgm::core
