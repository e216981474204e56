// Drives all failure-detector modules from the QoS parameters (paper §6.2):
//
//  * crash of p at time t  →  every q suspects p permanently at t + TD
//    (unless p restarted before the detection fired);
//  * restart of p at time t →  every q trusts p again at t + TD (recovery
//    is detected with the same delay as a crash) and the wrong-suspicion
//    renewal process of the pair resumes;
//  * wrong suspicions of a correct p at q follow a renewal process: mistake
//    starts are spaced Exp(TMR) apart, each mistake lasts Exp(TM).
//
// Each ordered pair (q monitors p) owns an independent RNG sub-stream, so
// modules are independent and identically distributed, and the schedule of
// pair (q,p) is invariant to what other pairs do.  A pair's renewal chain
// is a run of scheduler handler records (argument q·n + p), which cannot
// be cancelled: the pair keeps a token, the seq of its live record, and a
// record left behind when a crash or recovery restarted the chain dies
// when it fires.
//
// The fault injector can additionally *force* suspicions (correlated
// suspicion storms) through inject_suspicion(); forced suspicions share
// the mistake-release bookkeeping, so overlapping storms and renewal
// mistakes extend each other instead of releasing early.
//
// Gray failures modulate the QoS parameters per node (set_clock_rate /
// set_limp_factor, driven by the Injector's drift and limp windows):
//
//  * a drifted node's clock runs at `rate`× real speed.  A slow *target*
//    (rate < 1) sends heartbeats late, so monitors wrongly suspect it
//    more often (TMR ×rate) and for longer (TM /rate); a fast *monitor*
//    times out early, suspecting everyone more often (TMR /rate) but
//    clearing sooner (TM /rate), and detects crashes/recoveries sooner
//    (TD /rate);
//  * a limping node's heartbeat send/receive processing queues behind
//    its stretched CPU: as a target it looks like a slow clock (TMR
//    /factor, TM ×factor), as a monitor it detects late (TD ×factor).
//
// All factors default to 1.0, and the scalings are pure multiplies /
// divides — exactly neutral at 1.0 (x * 1.0 == x bit-for-bit) and
// consuming no extra RNG draws, so a schedule without gray events
// reproduces the golden hashes unchanged.  Already-scheduled renewal
// events keep their original times; draws made after a window opens see
// the new factors (the same lag semantics as the CPU stretch).
#pragma once

#include <memory>
#include <vector>

#include "fd/failure_detector.hpp"
#include "fd/qos_params.hpp"
#include "net/system.hpp"
#include "sim/rng.hpp"

namespace fdgm::fd {

class QosFailureDetectorModel {
 public:
  QosFailureDetectorModel(net::System& sys, QosParams params);

  QosFailureDetectorModel(const QosFailureDetectorModel&) = delete;
  QosFailureDetectorModel& operator=(const QosFailureDetectorModel&) = delete;

  /// The failure-detector module of process q.
  [[nodiscard]] FailureDetector& at(net::ProcessId q) {
    return *fds_.at(static_cast<std::size_t>(q));
  }

  [[nodiscard]] const QosParams& params() const { return params_; }

  /// Launch the wrong-suspicion renewal processes (no-op unless
  /// params.wrong_suspicions).  Call once, before running the simulation.
  void start();

  /// Force q to suspect p until `until` (fault injection: suspicion
  /// storms).  No-op when either process is crashed or p's crash has been
  /// detected; the suspicion releases at `until` unless a renewal mistake
  /// or a later storm extended the window.
  void inject_suspicion(net::ProcessId q, net::ProcessId p, sim::Time until);

  /// Gray-failure knobs (see the header comment).  1.0 = nominal, exactly
  /// neutral.  Both must be > 0.
  void set_clock_rate(net::ProcessId p, double rate);
  void set_limp_factor(net::ProcessId p, double factor);
  [[nodiscard]] double clock_rate(net::ProcessId p) const {
    return clock_rate_.at(static_cast<std::size_t>(p));
  }
  [[nodiscard]] double limp_factor(net::ProcessId p) const {
    return limp_.at(static_cast<std::size_t>(p));
  }

 private:
  /// Per ordered pair (q monitors p).  The pair's RNG engine is lazy:
  /// most pairs draw zero or one variate, and start() makes one draw for
  /// each of the n(n-1) pairs.  The first variate comes straight from the
  /// pair's fork seed (shift_size = 156 seeding steps and one twist step,
  /// no engine built): start() computes them a block of pairs at a time
  /// with sim::Rng::fork_first_exponentials (the vector seeding-chain
  /// kernel where the CPU has one), and pair_draw computes a later first
  /// draw (a restarted chain) alone.
  /// Only the second draw persists the engine, forked from base_ with the
  /// pair's tag, and discards the one variate already taken.  The streams
  /// are bit-identical to the eager layout of one fork per pair.
  struct PairState {
    std::unique_ptr<sim::Rng> engine;  // null until the second draw
    bool drew_first = false;           // the first variate was drawn
    bool crashed_permanent = false;    // p crashed; suspicion is final
    sim::Time suspect_until = 0.0;     // end of the latest mistake window
    /// Token of the pair's live renewal chain: the scheduler seq of its
    /// pending next-mistake record (0: none).  A renewal record fires
    /// only if it still holds the token; one left behind when a
    /// crash/recovery restarted the chain dies silently, so restarts
    /// never double the mistake rate.
    std::uint64_t renewal = 0;
  };

  void on_crash(net::ProcessId p, sim::Time when);
  void on_recover(net::ProcessId p, sim::Time when);
  /// Single funnel for every suspect/trust flip: applies the flip to q's
  /// module and reports the *transition* (state actually changed) to the
  /// armed observer's QoS meter.  All set_suspected call sites go through
  /// here so the measured T_D / T_M / T_MR see every edge exactly once.
  void set_suspected_observed(net::ProcessId q, net::ProcessId p, bool suspected);
  void schedule_next_mistake(net::ProcessId q, net::ProcessId p, sim::Time from);
  /// Schedules (q, p)'s next mistake `draw` (an Exp(TMR) variate of the
  /// pair's stream, before the gray scaling) after `from`: a scheduler
  /// handler record with argument pair_tag(q, p), which takes the pair's
  /// renewal token.
  void schedule_mistake(net::ProcessId q, net::ProcessId p, sim::Time from, double draw);
  /// The renewal record of pair `tag` (q·n + p): a wrong suspicion, then
  /// the next renewal.
  void on_renewal(std::uint32_t tag);
  void schedule_release(net::ProcessId q, net::ProcessId p, sim::Time until);
  /// (Re)start the renewal chain of (q, p) from `from`.
  void restart_renewal(net::ProcessId q, net::ProcessId p, sim::Time from);
  /// Monitor q's effective crash/recovery detection delay:
  /// TD × limp(q) / clock_rate(q).
  [[nodiscard]] double detect_delay(net::ProcessId q) const {
    return params_.detection_time * limp_.at(static_cast<std::size_t>(q)) /
           clock_rate_.at(static_cast<std::size_t>(q));
  }
  PairState& pair(net::ProcessId q, net::ProcessId p);
  /// Fork tag of (q, p)'s stream.
  [[nodiscard]] std::uint64_t pair_tag(net::ProcessId q, net::ProcessId p) const {
    return static_cast<std::uint64_t>(q) * static_cast<std::uint64_t>(sys_->n()) +
           static_cast<std::uint64_t>(p);
  }
  /// Exponential variate from (q, p)'s lazily materialized sub-stream.
  double pair_draw(PairState& st, net::ProcessId q, net::ProcessId p, double mean);

  net::System* sys_;
  QosParams params_;
  /// Parent stream the per-pair engines fork from.
  sim::Rng base_;
  sim::Scheduler::HandlerId renewal_handler_ = 0;
  std::vector<std::unique_ptr<FailureDetector>> fds_;
  std::vector<PairState> pairs_;  // n*n, row = monitor q, col = target p
  /// Per-node gray factors (1.0 = nominal; see the header comment).
  std::vector<double> clock_rate_;
  std::vector<double> limp_;
  bool started_ = false;
};

}  // namespace fdgm::fd
