#include "fault/injector.hpp"

#include <algorithm>

#include "obs/observer.hpp"

namespace fdgm::fault {

Injector::Injector(net::System& sys, fd::QosFailureDetectorModel* fd_model,
                   FaultSchedule schedule, RestartHook on_restart)
    : sys_(&sys),
      fd_model_(fd_model),
      schedule_(std::move(schedule)),
      restart_hook_(std::move(on_restart)),
      rng_(sys.rng().fork("fault-injector")),
      limp_gen_(static_cast<std::size_t>(sys.n()), 0),
      drift_gen_(static_cast<std::size_t>(sys.n()), 0) {}

void Injector::arm() {
  if (armed_) return;
  armed_ = true;
  // Corruption needs the digest on *every* frame in flight when its
  // window opens, so checksums are latched for the whole run up front —
  // schedules without a corrupt event never stamp and stay bit-identical
  // to a build without the machinery.
  for (const FaultEvent& e : schedule_.events())
    if (e.kind == FaultKind::kCorrupt) {
      sys_->network().enable_checksums();
      break;
    }
  for (const FaultEvent& e : schedule_.events())
    sys_->scheduler().schedule_at(e.at, [this, &e] { fire(e); });
}

bool Injector::names_valid_pids(const FaultEvent& e) const {
  const auto valid = [this](net::ProcessId p) { return p >= 0 && p < sys_->n(); };
  switch (e.kind) {
    case FaultKind::kCrash:
    case FaultKind::kRecover:
    case FaultKind::kLimp:
    case FaultKind::kDrift:
      return valid(e.process);
    default:
      // Loss and delay spikes name no process: both lists are empty.
      return std::ranges::all_of(e.accused, valid) &&
             std::ranges::all_of(e.groups, [&](const std::vector<net::ProcessId>& g) {
               return std::ranges::all_of(g, valid);
             });
  }
}

void Injector::fire(const FaultEvent& e) {
  if (!names_valid_pids(e)) {
    ++skipped_;
    return;
  }
  switch (e.kind) {
    case FaultKind::kCrash:
      sys_->crash(e.process);
      break;

    case FaultKind::kRecover: {
      // Recovering an alive process is a no-op, but the event still counts
      // as fired — fired() + skipped() must account for every event.
      if (sys_->node(e.process).crashed()) {
        sys_->restart(e.process);
        if (restart_hook_) restart_hook_(e.process);
      }
      break;
    }

    case FaultKind::kPartition: {
      sys_->network().set_partition(e.groups);
      const std::uint64_t gen = ++partition_gen_;
      sys_->scheduler().schedule_at(e.until, [this, gen] {
        if (gen == partition_gen_) sys_->network().heal_partition();
      });
      break;
    }

    case FaultKind::kAsymPartition: {
      sys_->network().set_asym_partition(e.groups.at(0), e.groups.at(1));
      const std::uint64_t gen = ++apartition_gen_;
      sys_->scheduler().schedule_at(e.until, [this, gen] {
        if (gen == apartition_gen_) sys_->network().heal_asym_partition();
      });
      break;
    }

    case FaultKind::kLoss: {
      sys_->network().set_loss(e.rate, &rng_);
      const std::uint64_t gen = ++loss_gen_;
      sys_->scheduler().schedule_at(e.until, [this, gen] {
        if (gen == loss_gen_) sys_->network().clear_loss();
      });
      break;
    }

    case FaultKind::kDelaySpike: {
      sys_->network().set_delay_factor(e.factor);
      const std::uint64_t gen = ++delay_gen_;
      sys_->scheduler().schedule_at(e.until, [this, gen] {
        if (gen == delay_gen_) sys_->network().set_delay_factor(1.0);
      });
      break;
    }

    case FaultKind::kSuspicionStorm: {
      if (fd_model_ == nullptr) {
        ++skipped_;
        return;
      }
      for (net::ProcessId p : e.accused)
        for (net::ProcessId q : sys_->all())
          if (q != p && !sys_->node(q).crashed()) fd_model_->inject_suspicion(q, p, e.until);
      break;
    }

    case FaultKind::kLimp: {
      // Both faces of a limping node: its CPU serves every job slower
      // (protocol processing, send/receive pipeline stages) and — when an
      // FD model is attached — its heartbeat handling degrades the QoS
      // parameters of every pair involving it.
      sys_->network().set_cpu_limp(e.process, e.factor);
      if (fd_model_ != nullptr) fd_model_->set_limp_factor(e.process, e.factor);
      if (auto* o = sys_->obs()) o->count(e.process, obs::Counter::kLimpWindows, sys_->now());
      const std::uint64_t gen = ++limp_gen_[static_cast<std::size_t>(e.process)];
      sys_->scheduler().schedule_at(e.until, [this, p = e.process, gen] {
        if (gen != limp_gen_[static_cast<std::size_t>(p)]) return;
        sys_->network().set_cpu_limp(p, 1.0);
        if (fd_model_ != nullptr) fd_model_->set_limp_factor(p, 1.0);
      });
      break;
    }

    case FaultKind::kDrift: {
      // Clock drift only skews timer behavior, which lives in the FD
      // model; a network-only simulation has no clocks to skew.
      if (fd_model_ == nullptr) {
        ++skipped_;
        return;
      }
      fd_model_->set_clock_rate(e.process, e.factor);
      if (auto* o = sys_->obs()) o->count(e.process, obs::Counter::kDriftWindows, sys_->now());
      const std::uint64_t gen = ++drift_gen_[static_cast<std::size_t>(e.process)];
      sys_->scheduler().schedule_at(e.until, [this, p = e.process, gen] {
        if (gen != drift_gen_[static_cast<std::size_t>(p)]) return;
        fd_model_->set_clock_rate(p, 1.0);
      });
      break;
    }

    case FaultKind::kFlap: {
      // duty >= 1 means the link never goes down: schedule nothing, so a
      // degenerate flap adds zero transitions (and zero events beyond
      // this one).  Each cycle starts with its up phase; the first down
      // transition lands at at + duty * period.
      if (e.duty < 1.0) {
        const sim::Time first_down = e.at + e.duty * e.period;
        if (first_down < e.until)
          sys_->scheduler().schedule_at(first_down, [this, &e] { on_flap_down(e, 0); });
      }
      break;
    }

    case FaultKind::kCorrupt: {
      sys_->network().set_corrupt(e.rate, &rng_, e.groups);
      const std::uint64_t gen = ++corrupt_gen_;
      sys_->scheduler().schedule_at(e.until, [this, gen] {
        if (gen == corrupt_gen_) sys_->network().clear_corrupt();
      });
      break;
    }
  }
  ++fired_;
}

void Injector::on_flap_down(const FaultEvent& e, std::uint64_t cycle) {
  sys_->network().set_flap_down(e.groups.at(0), e.groups.at(1));
  if (auto* o = sys_->obs())
    o->count(e.groups[0].front(), obs::Counter::kFlapTransitions, sys_->now());
  // The down phase ends at the next cycle boundary, clipped to the
  // window's end — a flap window never leaves a link down behind.
  const sim::Time up =
      std::min(e.at + static_cast<double>(cycle + 1) * e.period, e.until);
  sys_->scheduler().schedule_at(up, [this, &e, cycle] { on_flap_up(e, cycle); });
}

void Injector::on_flap_up(const FaultEvent& e, std::uint64_t cycle) {
  sys_->network().set_flap_up(e.groups.at(0), e.groups.at(1));
  if (auto* o = sys_->obs())
    o->count(e.groups[0].front(), obs::Counter::kFlapTransitions, sys_->now());
  const sim::Time next_down =
      e.at + static_cast<double>(cycle + 1) * e.period + e.duty * e.period;
  if (next_down < e.until)
    sys_->scheduler().schedule_at(next_down, [this, &e, c = cycle + 1] { on_flap_down(e, c); });
}

}  // namespace fdgm::fault
