// Scenario runner: executes the paper's four benchmark scenarios (§5.2)
// over replica runs and aggregates the latency statistics with 95%
// confidence intervals, exactly the way the paper's graphs report them.
//
// A runner call loops over its replicas on the calling thread (replica r
// uses seed + r) and reduces them in replica order.  Calls share no
// mutable state, so independent points may run concurrently — the bench
// driver's --jobs does exactly that — with bit-identical results.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "obs/observer.hpp"
#include "util/stats.hpp"

namespace fdgm::core {

struct SteadyConfig {
  double throughput = 100.0;  // T, messages per second
  double warmup_ms = 2000.0;
  /// Target number of measured messages per replica.
  std::size_t samples = 600;
  /// Minimum measurement window (ms) — lets rare failure-detector mistakes
  /// show up at large TMR even when `samples` are collected quickly.
  double min_window_ms = 0.0;
  /// Hard cap on simulated time per replica (ms).
  double max_time_ms = 120000.0;
  /// Independent replica runs (seeds seed, seed+1, ...).
  std::size_t replicas = 5;
};

/// Statistics of one replica run, or their sum over a point (merge()).
/// Run-cost fields (events .. shed) come from every replica, unstable ones
/// included; observer-derived fields (counters .. drops) only from a
/// replica that drained with no empty window, and stay zero unless
/// SimConfig::obs is armed (causes: unless obs.causal is on too).
struct RunStats {
  std::uint64_t events = 0;  // scheduler events executed
  double sim_ms = 0.0;       // denominator of per-simulated-second rates
  /// Transport counters (zero without SimConfig::transport or loss).
  /// retx_origin0 counts retransmissions originated by process 0, the GM
  /// sequencer: retx_origin0 / retransmits is the lossy scenarios'
  /// sequencer-concentration metric.
  std::uint64_t retransmits = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t retx_origin0 = 0;
  /// Workload arrivals submitted / shed by flow control (batching only).
  std::uint64_t generated = 0;
  std::uint64_t shed = 0;
  /// The observer's counter registry summed over nodes (see counter()).
  std::array<std::uint64_t, obs::kCounterCount> counters{};
  /// Critical-path cause sums over the measurement window; each sum /
  /// count is a per-message mean, and the means add up to the end-to-end
  /// mean.
  obs::CauseTotals causes;
  obs::QosMeasured qos;  // empirical FD QoS aggregates
  /// End-to-end latency of every observed delivery (every observer bins
  /// it the same way, so replicas merge).
  std::optional<util::Histogram> e2e;
  /// Spans, causal edges and metrics snapshots the observer's full
  /// flight-recorder slabs dropped.
  std::uint64_t spans_dropped = 0;
  std::uint64_t edges_dropped = 0;
  std::uint64_t snapshots_dropped = 0;

  [[nodiscard]] std::uint64_t counter(obs::Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  /// q-quantile of e2e; NaN when no delivery was observed.
  [[nodiscard]] double e2e_quantile(double q) const;
  /// Adds every field of `o`; throws std::invalid_argument (before
  /// changing anything) when the histograms' binning differs.
  RunStats& merge(const RunStats& o);
  bool operator==(const RunStats&) const = default;
};

/// One point of any runner: the latency over replica means, ms (95% CI),
/// and the replicas' merged statistics.
struct PointResult {
  util::MeanCi latency;
  bool stable = true;  // false: saturated / did not converge
  /// run_steady: every converged replica broadcast `samples` messages in
  /// its measurement window before `max_time_ms` ended it.  False means
  /// the point rests on fewer messages than asked for.
  bool budget_met = true;
  std::size_t total_samples = 0;
  RunStats stats;
  bool operator==(const PointResult&) const = default;
};

/// Steady-state scenarios.  `initial_crashes` are crashed at t=0 (use
/// fd_params.detection_time = 0 to model "crashed a long time ago").
PointResult run_steady(const SimConfig& cfg, const SteadyConfig& sc,
                       const std::vector<net::ProcessId>& initial_crashes = {});

struct TransientConfig {
  double throughput = 100.0;
  double warmup_ms = 1000.0;
  net::ProcessId crash = 0;   // p: process crashed at tc (coordinator/sequencer)
  net::ProcessId sender = 1;  // q: process that A-broadcasts m at tc
  std::size_t replicas = 10;
};

/// Crash-transient scenario: p crashes at tc and q A-broadcasts m at tc;
/// reports the mean latency of m over the replicas.
PointResult run_transient(const SimConfig& cfg, const TransientConfig& tc);

/// Max over senders q != crash of run_transient, the paper's L_crash
/// definition restricted to a fixed crashed process.
PointResult run_transient_worst_sender(const SimConfig& cfg, TransientConfig tc);

/// Windowed scenario runner for faulted workloads (partitions, churn,
/// storms): runs the workload to a fixed horizon, drains, and reports the
/// latency of the messages *broadcast* within each window separately —
/// e.g. before / during / after a partition.  Unlike run_steady there is
/// no mid-run backlog bailout: a fault is supposed to build a backlog; the
/// run only counts as unstable when it fails to drain afterwards (some
/// message was never delivered anywhere) or a window ends up empty.
struct WindowedConfig {
  double throughput = 100.0;
  /// Workload generation stops here (measurement horizon).
  double t_end = 10000.0;
  /// [from, to) per window, in broadcast time.
  std::vector<std::pair<double, double>> windows;
  /// Independent replica runs (seeds seed, seed+1, ...).
  std::size_t replicas = 5;
};

struct WindowedResult {
  /// One entry per window, aggregated over replica means (95% CI).
  std::vector<util::MeanCi> windows;
  bool stable = true;
  RunStats stats;  // merged over the replicas
  bool operator==(const WindowedResult&) const = default;
};

WindowedResult run_windowed(const SimConfig& cfg, const WindowedConfig& wc);

}  // namespace fdgm::core
