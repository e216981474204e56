#include "fd/qos_model.hpp"

#include <array>
#include <cstdint>
#include <stdexcept>

#include "obs/observer.hpp"

namespace fdgm::fd {

QosFailureDetectorModel::QosFailureDetectorModel(net::System& sys, QosParams params)
    : sys_(&sys),
      params_(params),
      base_(sys.rng().fork("fd-qos-model")),
      renewal_handler_(sys.scheduler().add_handler<&QosFailureDetectorModel::on_renewal>(this)) {
  if (params_.detection_time < 0)
    throw std::invalid_argument("QosFailureDetectorModel: negative TD");
  if (params_.wrong_suspicions && params_.mistake_recurrence <= 0)
    throw std::invalid_argument("QosFailureDetectorModel: TMR must be positive");
  if (params_.mistake_duration < 0)
    throw std::invalid_argument("QosFailureDetectorModel: negative TM");

  const int n = sys.n();
  // A renewal record's 32-bit argument is its pair's tag q·n + p.
  if (static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n) > UINT32_MAX)
    throw std::invalid_argument("QosFailureDetectorModel: too many processes");
  fds_.reserve(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) fds_.push_back(std::make_unique<FailureDetector>(q, n));

  // No pair engine is built here (see pair_draw): a pair's first draw
  // needs none, and only a pair that draws twice persists one.
  pairs_.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  clock_rate_.assign(static_cast<std::size_t>(n), 1.0);
  limp_.assign(static_cast<std::size_t>(n), 1.0);

  sys.add_crash_listener([this](net::ProcessId p, sim::Time t) { on_crash(p, t); });
  sys.add_recovery_listener([this](net::ProcessId p, sim::Time t) { on_recover(p, t); });
}

QosFailureDetectorModel::PairState& QosFailureDetectorModel::pair(net::ProcessId q,
                                                                  net::ProcessId p) {
  return pairs_.at(static_cast<std::size_t>(q) * static_cast<std::size_t>(sys_->n()) +
                   static_cast<std::size_t>(p));
}

double QosFailureDetectorModel::pair_draw(PairState& st, net::ProcessId q, net::ProcessId p,
                                          double mean) {
  // Mirrors Rng::exponential's mean <= 0 contract, which consumes no
  // engine state — so `drew_first` marks only a consuming draw.
  if (mean <= 0.0) return 0.0;
  if (st.engine == nullptr) {
    const std::uint64_t tag = pair_tag(q, p);
    if (!st.drew_first) {
      // First draw: computed from the fork's seed, no engine built.
      st.drew_first = true;
      return base_.fork_first_exponential(tag, mean);
    }
    // Second draw: persist the engine and discard the variate the first
    // draw took.  exponential_distribution's engine consumption is
    // independent of the mean, so mean 1 reproduces the stream position.
    st.engine = std::make_unique<sim::Rng>(base_.fork(tag));
    (void)st.engine->exponential(1.0);
  }
  return st.engine->exponential(mean);
}

void QosFailureDetectorModel::on_crash(net::ProcessId p, sim::Time when) {
  for (net::ProcessId q : sys_->all()) {
    if (q == p) continue;
    sys_->scheduler().schedule_at(when + detect_delay(q), [this, q, p] {
      PairState& st = pair(q, p);
      // Monitors observe p's state with lag TD: the heartbeat gap of the
      // crash is seen even when p restarted in the meantime.  A still-dead
      // p is suspected permanently; a restarted p is suspected until its
      // recovery is detected (on_recover schedules the trust edge at
      // restart + TD, which is strictly later than this event).
      if (sys_->node(p).crashed()) st.crashed_permanent = true;
      if (sys_->node(q).crashed()) return;  // a dead monitor notifies nobody
      if (auto* o = sys_->obs()) o->count(q, obs::Counter::kSuspicions, sys_->now());
      set_suspected_observed(q, p, true);
    });
  }
}

void QosFailureDetectorModel::on_recover(net::ProcessId p, sim::Time when) {
  // Every monitor detects the recovery with the same delay TD as a crash.
  const std::uint64_t incarnation = sys_->node(p).incarnation();
  for (net::ProcessId q : sys_->all()) {
    if (q == p) continue;
    // The crash's heartbeat-gap suspicion (see on_crash) lasts until the
    // recovery is detected; stretch the pair's window so that a mistake
    // release scheduled earlier cannot end it prematurely.
    PairState& st = pair(q, p);
    if (st.suspect_until < when + detect_delay(q))
      st.suspect_until = when + detect_delay(q);
    sys_->scheduler().schedule_at(when + detect_delay(q), [this, q, p, incarnation] {
      // Re-crashed (or restarted again) in the meantime: this detection is
      // void; the newer crash/recovery drives the pair's state.
      if (sys_->node(p).crashed() || sys_->node(p).incarnation() != incarnation) return;
      PairState& st = pair(q, p);
      st.crashed_permanent = false;
      st.suspect_until = sys_->now();
      if (!sys_->node(q).crashed()) set_suspected_observed(q, p, false);
      restart_renewal(q, p, sys_->now());
    });
  }
  // The recovered process's own modules resync immediately: it keeps
  // suspecting processes whose crash it had detected, drops everything
  // else, and its renewal processes start afresh.
  for (net::ProcessId r : sys_->all()) {
    if (r == p) continue;
    PairState& st = pair(p, r);
    st.suspect_until = when;
    set_suspected_observed(p, r, st.crashed_permanent);
    if (!st.crashed_permanent && !sys_->node(r).crashed()) restart_renewal(p, r, when);
  }
}

void QosFailureDetectorModel::start() {
  if (started_) return;
  started_ = true;
  if (!params_.wrong_suspicions) return;
  // Every pair's first gap is its first draw (a consuming one: TMR > 0),
  // computed a block of pairs at a time (Rng::fork_first_exponentials);
  // the timers are scheduled in q-major order, as before.
  constexpr std::size_t kBlock = sim::Rng::kFirstOutputsBlock;
  std::array<std::uint64_t, kBlock> tags{};
  std::array<double, kBlock> draws{};
  std::size_t k = 0;
  const auto n = static_cast<std::uint64_t>(sys_->n());
  const auto flush = [&] {
    base_.fork_first_exponentials(tags.data(), k, params_.mistake_recurrence, draws.data());
    for (std::size_t j = 0; j < k; ++j) {
      const auto q = static_cast<net::ProcessId>(tags[j] / n);
      const auto p = static_cast<net::ProcessId>(tags[j] % n);
      pair(q, p).drew_first = true;
      schedule_mistake(q, p, sys_->now(), draws[j]);
    }
    k = 0;
  };
  for (net::ProcessId q : sys_->all()) {
    for (net::ProcessId p : sys_->all()) {
      if (q == p) continue;
      tags[k] = pair_tag(q, p);
      if (++k == kBlock) flush();
    }
  }
  flush();
}

void QosFailureDetectorModel::restart_renewal(net::ProcessId q, net::ProcessId p,
                                              sim::Time from) {
  // The new record takes the pair's token, so a renewal chain still
  // pending for the pair dies when its record fires.
  if (started_ && params_.wrong_suspicions) schedule_next_mistake(q, p, from);
}

void QosFailureDetectorModel::inject_suspicion(net::ProcessId q, net::ProcessId p,
                                               sim::Time until) {
  if (q == p) return;
  PairState& st = pair(q, p);
  if (st.crashed_permanent || sys_->node(q).crashed() || sys_->node(p).crashed()) return;
  if (auto* o = sys_->obs()) o->count(q, obs::Counter::kSuspicions, sys_->now());
  set_suspected_observed(q, p, true);
  if (st.suspect_until < until) st.suspect_until = until;
  schedule_release(q, p, until);
}

void QosFailureDetectorModel::schedule_release(net::ProcessId q, net::ProcessId p,
                                               sim::Time until) {
  // End of a mistake / storm window.  Overlapping windows keep the pair
  // suspected: the trust event only fires when no later window extended
  // the suspicion.
  sys_->scheduler().schedule_at(until, [this, q, p, until] {
    PairState& st = pair(q, p);
    if (st.crashed_permanent) return;
    if (until < st.suspect_until) return;  // a later window extended it
    set_suspected_observed(q, p, false);
  });
}

void QosFailureDetectorModel::schedule_next_mistake(net::ProcessId q, net::ProcessId p,
                                                    sim::Time from) {
  schedule_mistake(q, p, from, pair_draw(pair(q, p), q, p, params_.mistake_recurrence));
}

void QosFailureDetectorModel::schedule_mistake(net::ProcessId q, net::ProcessId p,
                                               sim::Time from, double draw) {
  // A slow target clock / limping target makes wrong suspicions of it
  // more frequent; so does a fast monitor clock (see the header comment).
  // Scaling the drawn value (not the mean) keeps engine consumption
  // identical — the one-variate discard of lazy PairState stays valid.
  const double gap = draw * (clock_rate_[static_cast<std::size_t>(p)] /
                             (clock_rate_[static_cast<std::size_t>(q)] *
                              limp_[static_cast<std::size_t>(p)]));
  pair(q, p).renewal = sys_->scheduler().schedule_handler_at(
      from + gap, renewal_handler_, static_cast<std::uint32_t>(pair_tag(q, p)));
}

void QosFailureDetectorModel::on_renewal(std::uint32_t tag) {
  const auto n = static_cast<std::uint32_t>(sys_->n());
  const auto q = static_cast<net::ProcessId>(tag / n);
  const auto p = static_cast<net::ProcessId>(tag % n);
  PairState& st = pair(q, p);
  // A stale chain (the pair was reset by a crash or recovery) dies; so
  // does the chain of a permanently suspected (crashed) target or of a
  // crashed monitor — restart_renewal revives it on recovery.
  if (st.renewal != sys_->scheduler().firing_seq()) return;
  if (st.crashed_permanent || sys_->node(q).crashed() || sys_->node(p).crashed()) return;

  const sim::Time start = sys_->now();
  // A limping / slow-clocked target stays wrongly suspected longer (its
  // next heartbeat is late); a fast monitor clock clears sooner.
  const double duration = pair_draw(st, q, p, params_.mistake_duration) *
                          (limp_[static_cast<std::size_t>(p)] /
                           (clock_rate_[static_cast<std::size_t>(p)] *
                            clock_rate_[static_cast<std::size_t>(q)]));
  if (auto* o = sys_->obs()) o->count(q, obs::Counter::kSuspicions, start);
  set_suspected_observed(q, p, true);

  const sim::Time until = start + duration;
  if (st.suspect_until < until) st.suspect_until = until;
  schedule_release(q, p, until);

  schedule_next_mistake(q, p, start);
}

void QosFailureDetectorModel::set_suspected_observed(net::ProcessId q, net::ProcessId p,
                                                     bool suspected) {
  FailureDetector& m = at(q);
  const bool was = m.suspects(p);
  m.set_suspected(p, suspected);
  if (was == suspected) return;  // no edge: e.g. overlapping storm windows
  if (auto* o = sys_->obs()) {
    const int flags = (suspected ? 1 : 0) | (sys_->node(p).crashed() ? 2 : 0);
    o->on_fd_transition(q, p, flags, sys_->now());
  }
}

void QosFailureDetectorModel::set_clock_rate(net::ProcessId p, double rate) {
  if (!(rate > 0))
    throw std::invalid_argument("QosFailureDetectorModel: clock rate must be > 0");
  clock_rate_.at(static_cast<std::size_t>(p)) = rate;
}

void QosFailureDetectorModel::set_limp_factor(net::ProcessId p, double factor) {
  if (!(factor > 0))
    throw std::invalid_argument("QosFailureDetectorModel: limp factor must be > 0");
  limp_.at(static_cast<std::size_t>(p)) = factor;
}

}  // namespace fdgm::fd
