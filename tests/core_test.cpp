// Tests of the experiment engine: Poisson workload statistics, the latency
// recorder, SimRun wiring, determinism and the RunStats reduction.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/experiment.hpp"
#include "core/latency_recorder.hpp"
#include "core/runner.hpp"
#include "core/workload.hpp"
#include "util/stats.hpp"

namespace fdgm::core {
namespace {

TEST(LatencyRecorder, FirstDeliveryWins) {
  LatencyRecorder r;
  const abcast::MsgId id{0, 1};
  r.on_broadcast(id, 10.0);
  abcast::AppMessage m(id, 10.0);
  r.on_deliver(m, 25.0);
  r.on_deliver(m, 20.0);  // later receiver callback, earlier time is kept? no: first call wins
  EXPECT_DOUBLE_EQ(r.latency_of(id), 15.0);
  EXPECT_EQ(r.total_delivered(), 1u);
}

TEST(LatencyRecorder, UnknownDeliveryRegistersFromPayload) {
  LatencyRecorder r;
  const abcast::MsgId id{2, 7};
  abcast::AppMessage m(id, 5.0);
  r.on_deliver(m, 12.0);
  EXPECT_DOUBLE_EQ(r.latency_of(id), 7.0);
}

TEST(LatencyRecorder, WindowStatsFilterBySendTime) {
  LatencyRecorder r;
  for (int i = 0; i < 10; ++i) {
    const abcast::MsgId id{0, static_cast<std::uint64_t>(i + 1)};
    const double sent = i * 10.0;
    r.on_broadcast(id, sent);
    abcast::AppMessage m(id, sent);
    r.on_deliver(m, sent + 5.0);
  }
  const auto stats = r.window_stats(20.0, 60.0);  // sends at 20,30,40,50
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
}

TEST(LatencyRecorder, BacklogTracking) {
  LatencyRecorder r;
  r.on_broadcast({0, 1}, 0.0);
  r.on_broadcast({0, 2}, 50.0);
  abcast::AppMessage m({0, 1}, 0.0);
  r.on_deliver(m, 60.0);
  EXPECT_EQ(r.undelivered_in_window(0.0, 100.0), 1u);
  EXPECT_EQ(r.stale_undelivered(100.0, 40.0), 1u);   // msg 2 is 50ms old
  EXPECT_EQ(r.stale_undelivered(100.0, 60.0), 0u);
}

TEST(LatencyRecorder, NegativeLatencyForUndelivered) {
  LatencyRecorder r;
  r.on_broadcast({0, 1}, 0.0);
  EXPECT_LT(r.latency_of({0, 1}), 0.0);
  EXPECT_LT(r.latency_of({9, 9}), 0.0);
}

TEST(Workload, PoissonRateMatchesThroughput) {
  SimConfig cfg;
  cfg.n = 4;
  cfg.seed = 5;
  SimRun run(cfg, WorkloadConfig{.throughput = 200.0});
  run.start();
  run.run_until(20000.0);  // 20 s at 200/s -> ~4000 messages
  const double generated = static_cast<double>(run.workload().generated());
  EXPECT_NEAR(generated, 4000.0, 4000.0 * 0.08);
}

TEST(Workload, CrashedProcessStopsBroadcasting) {
  SimConfig cfg;
  cfg.n = 2;
  cfg.seed = 5;
  SimRun run(cfg, WorkloadConfig{.throughput = 100.0});
  run.system().crash_at(0, 0.0);
  run.start();
  run.run_until(10000.0);
  // Only p1 broadcasts: ~500 instead of ~1000.
  const double generated = static_cast<double>(run.workload().generated());
  EXPECT_NEAR(generated, 500.0, 500.0 * 0.15);
}

TEST(Workload, StopHaltsGeneration) {
  SimConfig cfg;
  cfg.n = 2;
  cfg.seed = 5;
  SimRun run(cfg, WorkloadConfig{.throughput = 1000.0});
  run.start();
  run.run_until(1000.0);
  run.workload().stop();
  const auto before = run.workload().generated();
  run.run_until(3000.0);
  EXPECT_EQ(run.workload().generated(), before);
}

TEST(Workload, RejectsBadConfig) {
  SimConfig cfg;
  cfg.n = 2;
  SimRun run(cfg);  // default workload is fine
  EXPECT_THROW(
      {
        SimRun bad(cfg, WorkloadConfig{.throughput = 0.0});
      },
      std::invalid_argument);
}

TEST(SimRun, DeliveriesReachRecorder) {
  SimConfig cfg;
  cfg.n = 3;
  cfg.seed = 2;
  SimRun run(cfg, WorkloadConfig{.throughput = 100.0});
  run.start();
  run.run_until(2000.0);
  EXPECT_GT(run.recorder().total_delivered(), 100u);
  const auto stats = run.recorder().window_stats(0.0, 1500.0);
  EXPECT_GT(stats.mean(), 3.0);   // at least one network round-trip
  EXPECT_LT(stats.mean(), 50.0);  // and far from saturation at T=100
}

TEST(SimRun, DeterministicAcrossIdenticalConfigs) {
  auto once = [] {
    SimConfig cfg;
    cfg.n = 3;
    cfg.seed = 77;
    SimRun run(cfg, WorkloadConfig{.throughput = 150.0});
    run.start();
    run.run_until(3000.0);
    return run.recorder().window_stats(0.0, 3000.0).mean();
  };
  EXPECT_DOUBLE_EQ(once(), once());
}

TEST(SimRun, DifferentSeedsDiffer) {
  auto once = [](std::uint64_t seed) {
    SimConfig cfg;
    cfg.n = 3;
    cfg.seed = seed;
    SimRun run(cfg, WorkloadConfig{.throughput = 150.0});
    run.start();
    run.run_until(3000.0);
    return run.recorder().window_stats(0.0, 3000.0).mean();
  };
  EXPECT_NE(once(1), once(2));
}

TEST(SimRun, AlgorithmNames) {
  EXPECT_STREQ(algorithm_name(Algorithm::kFd), "FD");
  EXPECT_STREQ(algorithm_name(Algorithm::kGm), "GM");
  EXPECT_STREQ(algorithm_name(Algorithm::kGmNonUniform), "GM-nonuniform");
}

/// Every RunStats field set to k times a per-field base value (the e2e
/// histogram holds k samples), so filled(a).merge(filled(b)) must equal
/// filled(a + b) field for field.
RunStats filled(int k) {
  const auto u = static_cast<std::uint64_t>(k);
  const double d = static_cast<double>(k);
  RunStats s;
  s.events = 1 * u;
  s.sim_ms = 1.5 * d;
  s.retransmits = 2 * u;
  s.dup_suppressed = 3 * u;
  s.retx_origin0 = 4 * u;
  s.generated = 5 * u;
  s.shed = 6 * u;
  for (std::size_t c = 0; c < s.counters.size(); ++c) s.counters[c] = (7 + c) * u;
  s.causes.count = 9 * u;
  for (std::size_t c = 0; c < s.causes.sums.size(); ++c)
    s.causes.sums[c] = static_cast<double>(c + 1) * 0.125 * d;
  s.qos = obs::QosMeasured{10 * u, 11 * u, 2.5 * d, 12 * u, 13 * u, 3.5 * d, 14 * u, 4.5 * d};
  s.e2e = util::Histogram(0.0, 100.0, 10);
  for (int i = 0; i < k; ++i) s.e2e->add(42.0);
  s.spans_dropped = 15 * u;
  s.edges_dropped = 16 * u;
  s.snapshots_dropped = 17 * u;
  return s;
}

TEST(RunStats, MergeSumsEveryField) {
  RunStats merged = filled(1);
  merged.merge(filled(2));
  EXPECT_EQ(merged, filled(3));
  EXPECT_EQ(merged.counter(obs::Counter::kViewChanges),
            3 * (7 + static_cast<std::uint64_t>(obs::Counter::kViewChanges)));
  EXPECT_EQ(merged.e2e->count(), 3u);
  // Merging into an empty record copies the histogram.
  EXPECT_EQ(RunStats{}.merge(filled(2)), filled(2));
  // A replica without an armed observer leaves the histogram untouched.
  EXPECT_EQ(filled(2).merge(RunStats{}).e2e, filled(2).e2e);
  EXPECT_TRUE(std::isnan(RunStats{}.e2e_quantile(0.5)));

  // Histograms with shared binning merge bin by bin.
  RunStats a;
  a.e2e = util::Histogram(0.0, 100.0, 10);
  a.e2e->add(5.0);
  RunStats b;
  b.e2e = util::Histogram(0.0, 100.0, 10);
  b.e2e->add(95.0);
  b.e2e->add(95.0);
  b.e2e->add(95.0);
  a.merge(b);
  EXPECT_EQ(a.e2e->count(), 4u);
  EXPECT_GT(a.e2e_quantile(0.5), 90.0);
  EXPECT_LT(a.e2e_quantile(0.1), 10.0);

  // Mismatched binning throws before any field is summed.
  RunStats wider = filled(1);
  wider.e2e = util::Histogram(0.0, 200.0, 10);
  const RunStats before = a;
  EXPECT_THROW(a.merge(wider), std::invalid_argument);
  EXPECT_EQ(a, before);
}

}  // namespace
}  // namespace fdgm::core
