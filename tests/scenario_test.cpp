// Integration tests of the four benchmark scenarios (paper §5.2) — small
// versions of the paper's figures whose qualitative shape is asserted:
//
//   normal-steady:    FD == GM latency (Fig. 4);
//   crash-steady:     latency drops with crashes, GM <= FD (Fig. 5);
//   suspicion-steady: GM collapses at small TMR where FD still works
//                     (Fig. 6) and GM is sensitive to TM (Fig. 7);
//   crash-transient:  overhead a few times the normal latency, FD < GM
//                     (Fig. 8).
#include <gtest/gtest.h>

#include <cmath>

#include "core/runner.hpp"

namespace fdgm::core {
namespace {

SimConfig base(Algorithm a, int n, std::uint64_t seed = 1) {
  SimConfig cfg;
  cfg.algorithm = a;
  cfg.n = n;
  cfg.seed = seed;
  return cfg;
}

SteadyConfig quick_steady(double T) {
  SteadyConfig sc;
  sc.throughput = T;
  sc.warmup_ms = 1000.0;
  sc.samples = 300;
  sc.replicas = 3;
  sc.max_time_ms = 60000.0;
  return sc;
}

TEST(Scenario, NormalSteadyFdEqualsGm) {
  for (int n : {3, 7}) {
    const PointResult fd = run_steady(base(Algorithm::kFd, n), quick_steady(100.0));
    const PointResult gm = run_steady(base(Algorithm::kGm, n), quick_steady(100.0));
    ASSERT_TRUE(fd.stable);
    ASSERT_TRUE(gm.stable);
    // Identical message pattern => identical latency (same seeds).
    EXPECT_NEAR(fd.latency.mean, gm.latency.mean, 0.2) << "n=" << n;
  }
}

TEST(Scenario, NormalSteadyLatencyGrowsWithLoad) {
  const PointResult lo = run_steady(base(Algorithm::kFd, 3), quick_steady(50.0));
  const PointResult hi = run_steady(base(Algorithm::kFd, 3), quick_steady(500.0));
  ASSERT_TRUE(lo.stable && hi.stable);
  EXPECT_GT(hi.latency.mean, lo.latency.mean);
}

TEST(Scenario, NormalSteadyLatencyGrowsWithN) {
  const PointResult n3 = run_steady(base(Algorithm::kFd, 3), quick_steady(100.0));
  const PointResult n7 = run_steady(base(Algorithm::kFd, 7), quick_steady(100.0));
  ASSERT_TRUE(n3.stable && n7.stable);
  EXPECT_GT(n7.latency.mean, n3.latency.mean);
}

TEST(Scenario, CrashSteadyLatencyDecreasesWithCrashes) {
  // Crashed processes stop loading the network (Fig. 5).
  SimConfig cfg = base(Algorithm::kFd, 7);
  cfg.fd_params.detection_time = 0.0;
  SteadyConfig sc = quick_steady(300.0);
  const PointResult none = run_steady(cfg, sc);
  const PointResult two = run_steady(cfg, sc, {5, 6});
  ASSERT_TRUE(none.stable && two.stable);
  EXPECT_LT(two.latency.mean, none.latency.mean);
}

TEST(Scenario, CrashSteadyGmSlightlyBetterThanFd) {
  // The sequencer waits for a majority of the *shrunken* view, the FD
  // coordinator still needs a majority of n (Fig. 5).
  SimConfig fd_cfg = base(Algorithm::kFd, 7);
  fd_cfg.fd_params.detection_time = 0.0;
  SimConfig gm_cfg = base(Algorithm::kGm, 7);
  gm_cfg.fd_params.detection_time = 0.0;
  SteadyConfig sc = quick_steady(200.0);
  sc.warmup_ms = 2000.0;
  const PointResult fd = run_steady(fd_cfg, sc, {4, 5, 6});
  const PointResult gm = run_steady(gm_cfg, sc, {4, 5, 6});
  ASSERT_TRUE(fd.stable && gm.stable);
  EXPECT_LT(gm.latency.mean, fd.latency.mean);
}

TEST(Scenario, SuspicionSteadyGmCollapsesWhereFdWorks) {
  // Fig. 6, n=3, T=10/s: at TMR = 10 ms the FD algorithm still works
  // while the GM algorithm thrashes on view changes.
  fd::QosParams qp;
  qp.wrong_suspicions = true;
  qp.mistake_recurrence = 10.0;
  qp.mistake_duration = 0.0;
  SimConfig fd_cfg = base(Algorithm::kFd, 3);
  fd_cfg.fd_params = qp;
  SimConfig gm_cfg = base(Algorithm::kGm, 3);
  gm_cfg.fd_params = qp;
  SteadyConfig sc = quick_steady(10.0);
  sc.samples = 60;
  sc.max_time_ms = 30000.0;
  const PointResult fd = run_steady(fd_cfg, sc);
  const PointResult gm = run_steady(gm_cfg, sc);
  EXPECT_TRUE(fd.stable);
  // Our GM implementation degrades more gracefully than the paper's
  // ("does not work below TMR = 50 ms"), but it must be clearly worse
  // than the FD algorithm in this regime.
  EXPECT_TRUE(!gm.stable || gm.latency.mean > 1.25 * fd.latency.mean);
}

TEST(Scenario, SuspicionSteadyGmWorseThanFdAtModerateTmr) {
  fd::QosParams qp;
  qp.wrong_suspicions = true;
  qp.mistake_recurrence = 500.0;
  qp.mistake_duration = 0.0;
  SimConfig fd_cfg = base(Algorithm::kFd, 3);
  fd_cfg.fd_params = qp;
  SimConfig gm_cfg = base(Algorithm::kGm, 3);
  gm_cfg.fd_params = qp;
  SteadyConfig sc = quick_steady(10.0);
  sc.samples = 100;
  sc.min_window_ms = 5000.0;
  const PointResult fd = run_steady(fd_cfg, sc);
  const PointResult gm = run_steady(gm_cfg, sc);
  ASSERT_TRUE(fd.stable);
  if (gm.stable) {
    EXPECT_GT(gm.latency.mean, fd.latency.mean);
  }
}

TEST(Scenario, SuspicionSteadyGmSensitiveToMistakeDuration) {
  // Fig. 7: growing TM hurts the GM algorithm (repeated exclusions and
  // rejoins) while the FD algorithm stays usable.
  fd::QosParams qp;
  qp.wrong_suspicions = true;
  qp.mistake_recurrence = 1000.0;
  qp.mistake_duration = 100.0;
  SimConfig fd_cfg = base(Algorithm::kFd, 3);
  fd_cfg.fd_params = qp;
  SimConfig gm_cfg = base(Algorithm::kGm, 3);
  gm_cfg.fd_params = qp;
  SteadyConfig sc = quick_steady(10.0);
  sc.samples = 100;
  sc.min_window_ms = 5000.0;
  const PointResult fd = run_steady(fd_cfg, sc);
  const PointResult gm = run_steady(gm_cfg, sc);
  ASSERT_TRUE(fd.stable);
  if (gm.stable) {
    EXPECT_GT(gm.latency.mean, 1.5 * fd.latency.mean);
  }
}

TEST(Scenario, CrashTransientFdBeatsGm) {
  // Fig. 8: after the crash of the coordinator/sequencer the FD algorithm
  // recovers with one extra consensus round; the GM algorithm pays a full
  // view change.
  for (double td : {0.0, 10.0}) {
    SimConfig fd_cfg = base(Algorithm::kFd, 3);
    fd_cfg.fd_params.detection_time = td;
    SimConfig gm_cfg = base(Algorithm::kGm, 3);
    gm_cfg.fd_params.detection_time = td;
    TransientConfig tc;
    tc.throughput = 50.0;
    tc.replicas = 8;
    tc.crash = 0;
    tc.sender = 1;
    const PointResult fd = run_transient(fd_cfg, tc);
    const PointResult gm = run_transient(gm_cfg, tc);
    ASSERT_TRUE(fd.stable && gm.stable) << td;
    EXPECT_LT(fd.latency.mean, gm.latency.mean) << "TD=" << td;
    // Latency always exceeds the detection time.
    EXPECT_GE(fd.latency.mean, td);
    EXPECT_GE(gm.latency.mean, td);
  }
}

TEST(Scenario, CrashTransientOverheadIsModest) {
  // "The latency overhead of both algorithms is only a few times higher
  // than the latency in the normal-steady scenario" (§7).
  SimConfig cfg = base(Algorithm::kFd, 3);
  cfg.fd_params.detection_time = 10.0;
  TransientConfig tc;
  tc.throughput = 50.0;
  tc.replicas = 8;
  const PointResult t = run_transient(cfg, tc);
  const PointResult steady = run_steady(base(Algorithm::kFd, 3), quick_steady(50.0));
  ASSERT_TRUE(t.stable && steady.stable);
  const double overhead = t.latency.mean - 10.0;
  EXPECT_LT(overhead, 6.0 * steady.latency.mean);
}

TEST(Scenario, TransientWorstSenderPicksMaximum) {
  SimConfig cfg = base(Algorithm::kFd, 3);
  cfg.fd_params.detection_time = 10.0;
  TransientConfig tc;
  tc.throughput = 50.0;
  tc.replicas = 4;
  tc.crash = 0;
  const PointResult worst = run_transient_worst_sender(cfg, tc);
  ASSERT_TRUE(worst.stable);
  for (net::ProcessId q : {1, 2}) {
    tc.sender = q;
    const PointResult r = run_transient(cfg, tc);
    EXPECT_LE(r.latency.mean, worst.latency.mean + 1e-9);
  }
}

TEST(Scenario, UnstablePointReportsNan) {
  // Far beyond saturation the runner must flag instability, not hang.
  SteadyConfig sc = quick_steady(5000.0);
  sc.max_time_ms = 20000.0;
  sc.replicas = 2;
  const PointResult r = run_steady(base(Algorithm::kFd, 3), sc);
  EXPECT_FALSE(r.stable);
  EXPECT_TRUE(std::isnan(r.latency.mean));
}

}  // namespace
}  // namespace fdgm::core
