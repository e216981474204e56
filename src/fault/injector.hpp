// Arms a FaultSchedule on a System's discrete-event scheduler and drives
// the existing fault hooks:
//
//   Crash          -> net::System::crash
//   Recover        -> net::System::restart + the per-process restart hook
//                     (SimRun wires it to AtomicBroadcastProcess::on_restart,
//                     i.e. the GM rejoin / FD log-sync catch-up paths)
//   Partition      -> net::Network::set_partition / heal_partition
//   AsymPartition  -> net::Network::set_asym_partition / heal_asym_partition
//                     (directed link cuts; the reverse direction flows)
//   MessageLoss    -> net::Network::set_loss, drawing from the injector's
//                     private RNG sub-stream (forked from the system master
//                     seed, so a schedule never perturbs the workload or
//                     failure-detector streams and replicas stay
//                     bit-identical for any --jobs value)
//   DelaySpike     -> net::Network::set_delay_factor
//
// When the retransmission transport is armed (SimConfig::transport), the
// loss stage drops *transport frames* rather than logical messages: the
// transport's NACK/timer machinery recovers every dropped frame, so the
// stacks keep their quasi-reliable channels even under sustained loss.
//   SuspicionStorm -> fd::QosFailureDetectorModel::inject_suspicion for
//                     every alive (monitor, accused) pair
//
// Gray failures (degraded-but-alive):
//
//   Limp           -> net::Network::set_cpu_limp (CPU service stretch) +
//                     fd::QosFailureDetectorModel::set_limp_factor (late
//                     heartbeat processing); both reset at the window end
//   Flap           -> a deterministic chain of link down/up transitions
//                     (net::Network::set_flap_down/up) computed from the
//                     event's period and duty cycle — no RNG, so the
//                     up/down pattern is identical across job counts.
//                     duty >= 1 schedules nothing.
//   Drift          -> fd::QosFailureDetectorModel::set_clock_rate (the
//                     node's heartbeat/renewal timers run fast or slow);
//                     reset at the window end
//   Corrupt        -> net::Network::set_corrupt, drawing from the same
//                     private RNG sub-stream as loss.  arm() pre-scans
//                     the schedule: any corrupt event latches frame
//                     checksums on for the whole run, so every in-flight
//                     frame a receiver verifies carries a digest.
//
// Events that reference a process id outside 0..n-1 are skipped (and
// counted), so one schedule can be applied across sweeps with varying n —
// the fdgm_bench --faults flag relies on this.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fault/fault_schedule.hpp"
#include "fd/qos_model.hpp"
#include "net/system.hpp"
#include "sim/rng.hpp"

namespace fdgm::fault {

class Injector {
 public:
  /// Invoked right after a Recover event restarted a crashed process.
  using RestartHook = std::function<void(net::ProcessId)>;

  /// `fd_model` may be null (network-only simulations): storms are then
  /// skipped.  The hook may be empty: recovery then restarts the node
  /// without protocol-level catch-up.
  Injector(net::System& sys, fd::QosFailureDetectorModel* fd_model, FaultSchedule schedule,
           RestartHook on_restart = {});

  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  /// Schedule every event.  Call once, before running the simulation.
  void arm();

  [[nodiscard]] const FaultSchedule& schedule() const { return schedule_; }

  /// Events fired / skipped (bad process id) so far, for tests.
  [[nodiscard]] std::uint64_t fired() const { return fired_; }
  [[nodiscard]] std::uint64_t skipped() const { return skipped_; }

 private:
  void fire(const FaultEvent& e);
  /// One down / up transition of a flap event's deterministic chain;
  /// `cycle` counts full periods since the window opened.
  void on_flap_down(const FaultEvent& e, std::uint64_t cycle);
  void on_flap_up(const FaultEvent& e, std::uint64_t cycle);
  /// Are the process ids `e` names (its target, groups or accused) all
  /// processes of the system?
  [[nodiscard]] bool names_valid_pids(const FaultEvent& e) const;

  net::System* sys_;
  fd::QosFailureDetectorModel* fd_model_;
  FaultSchedule schedule_;
  RestartHook restart_hook_;
  sim::Rng rng_;
  bool armed_ = false;
  std::uint64_t fired_ = 0;
  std::uint64_t skipped_ = 0;
  /// Generation counters: the end-of-window action of a partition / loss /
  /// delay event only applies when no later event of the same kind
  /// replaced the setting (last writer wins).
  std::uint64_t partition_gen_ = 0;
  std::uint64_t apartition_gen_ = 0;
  std::uint64_t loss_gen_ = 0;
  std::uint64_t delay_gen_ = 0;
  std::uint64_t corrupt_gen_ = 0;
  /// Per-node generations for the windowed per-node gray kinds (limp,
  /// drift): overlapping windows on the *same* node are last-writer-wins,
  /// windows on different nodes are independent.
  std::vector<std::uint64_t> limp_gen_;
  std::vector<std::uint64_t> drift_gen_;
};

}  // namespace fdgm::fault
