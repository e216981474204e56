// Single-server FIFO resource with deterministic service times — the
// building block of the contention model of Urbán/Défago/Schiper (IC3N'00)
// that the paper uses: one shared "network" resource plus one "CPU"
// resource per host.
//
// A job that arrives while the server is busy waits in FIFO order.  Because
// jobs are committed at their physical arrival instant (each pipeline
// stage commits the next one when it completes), a busy-until accumulator
// gives exact FIFO queueing semantics.
//
// commit() occupies the resource and only returns the completion time:
// the caller schedules the completion itself (the network schedules each
// pipeline stage as a scheduler handler record, and fires a multicast's
// simultaneous receive jobs from one record).
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "sim/scheduler.hpp"

namespace fdgm::net {

class Resource {
 public:
  explicit Resource(sim::Scheduler& sched) : sched_(&sched) {}

  /// Occupy the resource for `service_time` units, starting as soon as all
  /// previously committed jobs finish, and return the job's completion
  /// time.  A zero service time completes at the current busy-until
  /// frontier (still serialized after earlier jobs).
  sim::Time commit(double service_time) {
    if (service_time < 0) throw std::invalid_argument("Resource::commit: negative service time");
    const double stretched = service_time * stretch_;
    const sim::Time start = std::max(sched_->now(), free_at_);
    free_at_ = start + stretched;
    busy_time_ += stretched;
    ++jobs_;
    return free_at_;
  }

  /// Time at which the resource next becomes idle (== now when idle).
  [[nodiscard]] sim::Time busy_until() const { return std::max(sched_->now(), free_at_); }

  /// Cumulative busy time, for utilization accounting in tests/benches.
  [[nodiscard]] double busy_time() const { return busy_time_; }

  /// Number of jobs served (or started).
  [[nodiscard]] std::uint64_t jobs() const { return jobs_; }

  /// Service-rate degradation: every job's service time is multiplied by
  /// `stretch` at commit time (the gray-failure "limp" — a CPU running at
  /// 1/stretch of its nominal rate).  The default 1.0 is exactly neutral:
  /// `t * 1.0 == t` bit-for-bit, so an armed-but-idle limp window cannot
  /// perturb the determinism goldens.  Jobs already committed keep their
  /// original completion times; only jobs committed inside the window
  /// are stretched.
  void set_stretch(double stretch) {
    if (!(stretch > 0)) throw std::invalid_argument("Resource::set_stretch: factor must be > 0");
    stretch_ = stretch;
  }
  [[nodiscard]] double stretch() const { return stretch_; }

 private:
  sim::Scheduler* sched_;
  double stretch_ = 1.0;
  sim::Time free_at_ = 0.0;
  double busy_time_ = 0.0;
  std::uint64_t jobs_ = 0;
};

}  // namespace fdgm::net
