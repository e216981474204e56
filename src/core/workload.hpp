// Poisson workload (paper §5.1): every process A-broadcasts at the same
// constant mean rate; the A-broadcast events of each process form an
// independent Poisson process; the sum of the per-process rates is the
// nominal throughput T.  Crashed processes stop broadcasting (which is why
// the crash-steady scenario sees a lighter effective load); a process that
// recovers (fault injection) resumes its arrival stream.
#pragma once

#include <cstdint>
#include <vector>

#include "abcast/abcast.hpp"
#include "core/latency_recorder.hpp"
#include "net/system.hpp"
#include "sim/rng.hpp"

namespace fdgm::core {

struct WorkloadConfig {
  /// Overall throughput T in messages per second (split across senders).
  double throughput = 100.0;
};

class Workload {
 public:
  /// `procs[i]` must be the endpoint of process i.
  Workload(net::System& sys, std::vector<abcast::AtomicBroadcastProcess*> procs,
           LatencyRecorder& recorder, WorkloadConfig cfg);

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Start generating arrivals (call once, before running the simulation).
  void start();

  /// Stop generating (existing scheduled arrivals become no-ops).
  void stop() { stopped_ = true; }

  [[nodiscard]] std::uint64_t generated() const { return generated_; }
  /// Arrivals dropped by flow control: the process's credit window was
  /// exhausted (can_submit() false) when the tick fired.  Open-loop load
  /// sheds deterministically instead of queueing unboundedly — the arrival
  /// chain keeps its RNG sequence, the message is simply never submitted
  /// or recorded.  Always 0 with batching off.
  [[nodiscard]] std::uint64_t shed() const { return shed_; }

 private:
  void schedule_next(std::size_t idx);

  net::System* sys_;
  std::vector<abcast::AtomicBroadcastProcess*> procs_;
  LatencyRecorder* recorder_;
  double per_process_mean_gap_ms_;  // mean inter-arrival per process
  std::vector<sim::Rng> rngs_;
  /// Whether process i's arrival chain has an event pending.  A chain dies
  /// when its tick finds the process crashed; the recovery listener
  /// restarts it exactly once (the flag prevents a doubled arrival rate
  /// when the process recovered before the next tick).
  std::vector<std::uint8_t> chain_alive_;
  bool started_ = false;
  bool stopped_ = false;
  std::uint64_t generated_ = 0;
  std::uint64_t shed_ = 0;
};

}  // namespace fdgm::core
