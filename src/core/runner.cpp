#include "core/runner.hpp"

#include <algorithm>
#include <cmath>

#include "obs/export_sink.hpp"

namespace fdgm::core {

double RunStats::e2e_quantile(double q) const {
  if (!e2e.has_value() || e2e->count() == 0) return std::nan("");
  return e2e->quantile(q);
}

RunStats& RunStats::merge(const RunStats& o) {
  // The histogram first: a binning mismatch throws before anything changed.
  if (o.e2e.has_value()) {
    if (e2e.has_value())
      e2e->merge(*o.e2e);
    else
      e2e = o.e2e;
  }
  events += o.events;
  sim_ms += o.sim_ms;
  retransmits += o.retransmits;
  dup_suppressed += o.dup_suppressed;
  retx_origin0 += o.retx_origin0;
  generated += o.generated;
  shed += o.shed;
  for (std::size_t c = 0; c < counters.size(); ++c) counters[c] += o.counters[c];
  causes.count += o.causes.count;
  for (std::size_t c = 0; c < causes.sums.size(); ++c) causes.sums[c] += o.causes.sums[c];
  qos += o.qos;
  spans_dropped += o.spans_dropped;
  edges_dropped += o.edges_dropped;
  snapshots_dropped += o.snapshots_dropped;
  return *this;
}

namespace {

/// run_steady: declare the run unstable when more than this many messages
/// sit undelivered for more than kStaleAgeMs.
constexpr std::size_t kUnstableBacklog = 400;
constexpr double kStaleAgeMs = 4000.0;
/// run_transient: simulated time the probe message may take to deliver.
constexpr double kProbeTimeoutMs = 30000.0;
/// run_windowed: extra simulated time allowed for the post-horizon drain.
constexpr double kDrainMs = 20000.0;

/// Reads a finished replica under the one capture rule (see RunStats):
/// run-cost fields always, observer-derived ones only when `converged`;
/// cause totals cover messages broadcast in [from, to).  The
/// exporting replica (replica 0 of a runner call; of its first sender
/// for run_transient_worst_sender) also hands its
/// observer to the export sink — the run is over, so the export sees the
/// same state the observer ends with.
RunStats capture(SimRun& run, bool exporter, bool converged, double from, double to) {
  RunStats s;
  s.events = run.system().scheduler().executed();
  s.sim_ms = run.system().now();
  s.generated = run.workload().generated();
  s.shed = run.workload().shed();
  if (const transport::Transport* t = run.system().transport()) {
    s.retransmits = t->stats().retransmits;
    s.dup_suppressed = t->stats().duplicates;
    s.retx_origin0 = t->retx_from(0);
  }
  const obs::Observer* o = run.observer();
  if (o == nullptr) return s;
  if (exporter && o->config().sink != nullptr) o->config().sink->write(*o);
  if (!converged) return s;
  for (std::size_t c = 0; c < obs::kCounterCount; ++c)
    s.counters[c] = o->total(static_cast<obs::Counter>(c));
  if (o->causal()) s.causes = o->cause_totals(from, to);
  s.qos = o->qos_measured();
  s.e2e = o->e2e_hist();
  s.spans_dropped = o->spans_dropped();
  s.edges_dropped = o->edges_dropped();
  s.snapshots_dropped = o->snapshots_dropped();
  return s;
}

/// One steady-state replica: the mean latency of its measurement window
/// (stable = it drained with a non-empty window) and its statistics.
PointResult steady_replica(SimConfig cfg, const SteadyConfig& sc,
                           const std::vector<net::ProcessId>& initial_crashes, std::size_t r) {
  cfg.seed += r;
  SimRun run(cfg, WorkloadConfig{.throughput = sc.throughput});
  for (net::ProcessId p : initial_crashes) run.system().crash_at(p, 0.0);
  run.start();

  auto& sched = run.system().scheduler();
  const sim::Time t0 = sc.warmup_ms;
  sim::Time t_end = t0;
  const double step = 250.0;
  const bool drained = [&] {
    // Phase 1: run until `samples` messages were broadcast inside the
    // measurement window and the minimum window length has elapsed.
    while (true) {
      sched.run_until(sched.now() + step);
      t_end = sched.now();
      if (run.recorder().stale_undelivered(sched.now(), kStaleAgeMs) > kUnstableBacklog)
        return false;
      if (sched.now() > sc.max_time_ms) break;
      const bool enough_samples = run.recorder().broadcast_in_window(t0, t_end) >= sc.samples;
      // The window must also be long enough for the stale-backlog check to
      // see saturation (otherwise an overloaded run could "finish" before
      // anything is old enough to count as stuck).
      const bool window_long_enough =
          (t_end - t0) >= std::max(sc.min_window_ms, kStaleAgeMs);
      if (enough_samples && window_long_enough) break;
    }
    run.workload().stop();

    // Phase 2: drain — let every message of the window get delivered.
    const sim::Time drain_deadline = sched.now() + 4.0 * kStaleAgeMs;
    while (run.recorder().undelivered_in_window(t0, t_end) > 0) {
      sched.run_until(sched.now() + step);
      if (sched.now() > drain_deadline) return false;
    }
    return true;
  }();

  PointResult out;
  const util::RunningStats window =
      drained ? run.recorder().window_stats(t0, t_end) : util::RunningStats{};
  out.stable = window.count() > 0;
  if (out.stable) out.latency = util::MeanCi{window.mean(), 0.0, 1};
  out.budget_met = run.recorder().broadcast_in_window(t0, t_end) >= sc.samples;
  out.total_samples = window.count();
  out.stats = capture(run, r == 0, out.stable, t0, t_end);
  return out;
}

/// One crash-transient replica: the probe latency (stable = the probe was
/// delivered before the timeout) and the replica's statistics.
PointResult transient_replica(SimConfig cfg, const TransientConfig& tc, std::size_t r,
                              bool exporter) {
  cfg.seed += r;
  SimRun run(cfg, WorkloadConfig{.throughput = tc.throughput});
  run.start();
  run.run_until(tc.warmup_ms);

  // At tc: crash p and have q A-broadcast the probe message.
  run.system().crash(tc.crash);
  const abcast::MsgId probe = run.proc(tc.sender).a_broadcast();
  run.recorder().on_broadcast(probe, run.system().now());

  auto& sched = run.system().scheduler();
  const sim::Time deadline = sched.now() + kProbeTimeoutMs;
  while (run.recorder().latency_of(probe) < 0 && sched.now() < deadline)
    sched.run_until(sched.now() + 50.0);

  PointResult out;
  const double latency = run.recorder().latency_of(probe);
  out.stable = latency >= 0;
  if (out.stable) out.latency = util::MeanCi{latency, 0.0, 1};
  out.stats = capture(run, exporter, out.stable, tc.warmup_ms, sched.now());
  return out;
}

/// The replicas of one transient point in replica order; replica 0
/// exports when `exporter` is set.
std::vector<PointResult> transient_replicas(const SimConfig& cfg, const TransientConfig& tc,
                                            bool exporter) {
  std::vector<PointResult> out;
  out.reserve(tc.replicas);
  for (std::size_t r = 0; r < tc.replicas; ++r)
    out.push_back(transient_replica(cfg, tc, r, exporter && r == 0));
  return out;
}

/// Probe-latency mean and CI over transient replicas; unstable when any
/// replica lost the probe.
PointResult reduce_transient(const std::vector<PointResult>& replicas) {
  PointResult out;
  std::vector<double> lats;
  for (const PointResult& r : replicas) {
    out.stats.merge(r.stats);
    out.stable = out.stable && r.stable;
    lats.push_back(r.latency.mean);
  }
  out.latency = out.stable ? util::mean_ci_95(lats) : util::MeanCi{std::nan(""), 0.0, 0};
  out.total_samples = out.stable ? lats.size() : 0;
  return out;
}

/// One windowed replica: per-window latency means (stable = it drained
/// with no empty window) and its statistics.
WindowedResult windowed_replica(SimConfig cfg, const WindowedConfig& wc, std::size_t r) {
  cfg.seed += r;
  SimRun run(cfg, WorkloadConfig{.throughput = wc.throughput});
  run.start();

  auto& sched = run.system().scheduler();
  const double step = 250.0;
  sched.run_until(wc.t_end);
  run.workload().stop();

  WindowedResult out;
  // Drain: every message of the horizon must be delivered somewhere.
  const sim::Time drain_deadline = wc.t_end + kDrainMs;
  while (out.stable && run.recorder().undelivered_in_window(0.0, wc.t_end) > 0) {
    if (sched.now() > drain_deadline)
      out.stable = false;
    else
      sched.run_until(sched.now() + step);
  }
  for (std::size_t w = 0; out.stable && w < wc.windows.size(); ++w) {
    const auto [from, to] = wc.windows[w];
    const util::RunningStats stats = run.recorder().window_stats(from, to);
    out.stable = stats.count() > 0;  // empty window: nothing to report
    out.windows.push_back(util::MeanCi{stats.mean(), 0.0, 1});
  }
  out.stats = capture(run, r == 0, out.stable, 0.0, wc.t_end);
  return out;
}

}  // namespace

PointResult run_steady(const SimConfig& cfg, const SteadyConfig& sc,
                       const std::vector<net::ProcessId>& initial_crashes) {
  std::vector<double> means;
  PointResult out;
  for (std::size_t r = 0; r < sc.replicas; ++r) {
    const PointResult rep = steady_replica(cfg, sc, initial_crashes, r);
    out.stats.merge(rep.stats);
    if (!rep.stable) {
      out.stable = false;
      continue;
    }
    means.push_back(rep.latency.mean);
    out.budget_met = out.budget_met && rep.budget_met;
    out.total_samples += rep.total_samples;
  }
  // A point is reported only when a clear majority of replicas converged;
  // this mirrors the paper leaving unusable settings off the graphs.
  if (means.size() * 2 <= sc.replicas) {
    out.stable = false;
    out.latency = util::MeanCi{std::nan(""), 0.0, means.size()};
    return out;
  }
  out.latency = util::mean_ci_95(means);
  return out;
}

PointResult run_transient(const SimConfig& cfg, const TransientConfig& tc) {
  return reduce_transient(transient_replicas(cfg, tc, true));
}

WindowedResult run_windowed(const SimConfig& cfg, const WindowedConfig& wc) {
  WindowedResult out;
  std::vector<std::vector<double>> per_window(wc.windows.size());
  for (std::size_t r = 0; r < wc.replicas; ++r) {
    const WindowedResult rep = windowed_replica(cfg, wc, r);
    out.stats.merge(rep.stats);
    if (!rep.stable) {
      out.stable = false;
      continue;
    }
    for (std::size_t w = 0; w < rep.windows.size(); ++w)
      per_window[w].push_back(rep.windows[w].mean);
  }
  // Same reporting rule as run_steady: a clear majority of replicas must
  // have converged.
  if (per_window.empty() || per_window.front().size() * 2 <= wc.replicas) {
    out.stable = false;
    out.windows.assign(wc.windows.size(), util::MeanCi{std::nan(""), 0.0, 0});
    return out;
  }
  out.windows.reserve(per_window.size());
  for (const auto& samples : per_window) out.windows.push_back(util::mean_ci_95(samples));
  return out;
}

PointResult run_transient_worst_sender(const SimConfig& cfg, TransientConfig tc) {
  // Every (sender, replica) pair runs, senders in order; the statistics
  // cover the whole grid.  The first unstable sender decides the point.
  PointResult worst;
  RunStats grid;
  bool first = true;
  for (net::ProcessId q = 0; q < cfg.n; ++q) {
    if (q == tc.crash) continue;
    tc.sender = q;
    const std::vector<PointResult> replicas = transient_replicas(cfg, tc, first);
    for (const PointResult& r : replicas) grid.merge(r.stats);
    const PointResult res = reduce_transient(replicas);
    if (first || (worst.stable && (!res.stable || res.latency.mean > worst.latency.mean)))
      worst = res;
    first = false;
  }
  worst.stats = grid;
  return worst;
}

}  // namespace fdgm::core
