// Tests of the parallel experiment engine: pool basics, fan-out ordering,
// exception propagation, and the determinism contract — run_steady /
// run_transient produce bit-identical results for every job count.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/parallel.hpp"
#include "core/runner.hpp"

namespace fdgm::core {
namespace {

TEST(EffectiveJobs, ZeroMeansHardware) {
  EXPECT_GE(effective_jobs(0), 1u);
  EXPECT_EQ(effective_jobs(1), 1u);
  EXPECT_EQ(effective_jobs(7), 7u);
}

TEST(ThreadPool, RunsAllSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) pool.submit([&] { counter.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 100);
  }
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&] { counter.fetch_add(1); });
  }  // ~ThreadPool joins after the queue drained
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::atomic<int>> hits(257);
    parallel_for(hits.size(), jobs, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, ZeroCountIsANoop) {
  parallel_for(0, 8, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(16, 4,
                   [](std::size_t i) {
                     if (i == 7) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelMap, ResultsInIndexOrder) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    const auto out = parallel_map(100, jobs, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(SharedPool, ReusedAcrossSequentialFanOutsCoversEveryIndex) {
  ThreadPool pool(4);
  for (int round = 0; round < 5; ++round) {
    std::vector<std::atomic<int>> hits(123);
    parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
  EXPECT_EQ(pool.workers(), 4u);
}

TEST(SharedPool, MapMatchesSequentialAndPropagatesExceptions) {
  ThreadPool pool(3);
  const auto out = parallel_map(pool, 64, [](std::size_t i) { return 3 * i + 1; });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 3 * i + 1);
  EXPECT_THROW(parallel_for(pool, 16,
                            [](std::size_t i) {
                              if (i == 3) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // The pool survives a throwing fan-out and keeps serving.
  const auto again = parallel_map(pool, 8, [](std::size_t i) { return i; });
  for (std::size_t i = 0; i < again.size(); ++i) EXPECT_EQ(again[i], i);
}

SteadyConfig small_steady(std::size_t jobs) {
  SteadyConfig sc;
  sc.throughput = 100.0;
  sc.warmup_ms = 500.0;
  sc.samples = 80;
  sc.replicas = 4;
  sc.max_time_ms = 30000.0;
  sc.jobs = jobs;
  return sc;
}

TEST(RunnerParallel, SteadyIdenticalAcrossJobCounts) {
  SimConfig cfg;
  cfg.n = 3;
  cfg.seed = 42;
  cfg.obs.enabled = true;  // passive; fills the observer-derived stats
  const PointResult seq = run_steady(cfg, small_steady(1));
  ASSERT_TRUE(seq.stable);
  for (std::size_t jobs : {std::size_t{2}, std::size_t{4}, std::size_t{0}}) {
    const PointResult par = run_steady(cfg, small_steady(jobs));
    ASSERT_TRUE(par.stable) << "jobs=" << jobs;
    // Bit-identical, not approximately equal: same seeds, same reduction
    // order, no shared state between replicas.
    EXPECT_EQ(seq.latency.mean, par.latency.mean) << "jobs=" << jobs;
    EXPECT_EQ(seq.latency.half_width, par.latency.half_width) << "jobs=" << jobs;
    EXPECT_EQ(seq.total_samples, par.total_samples) << "jobs=" << jobs;
    EXPECT_EQ(seq.stats, par.stats) << "jobs=" << jobs;
  }
  EXPECT_GT(seq.stats.events, 0u);
  EXPECT_GT(seq.stats.phases.count, 0u);
}

TEST(RunnerParallel, TransientIdenticalAcrossJobCounts) {
  SimConfig cfg;
  cfg.n = 3;
  cfg.seed = 7;
  cfg.fd_params.detection_time = 10.0;
  TransientConfig tc;
  tc.throughput = 50.0;
  tc.replicas = 6;
  tc.jobs = 1;
  const PointResult seq = run_transient(cfg, tc);
  ASSERT_TRUE(seq.stable);
  tc.jobs = 4;
  const PointResult par = run_transient(cfg, tc);
  ASSERT_TRUE(par.stable);
  EXPECT_EQ(seq.latency.mean, par.latency.mean);
  EXPECT_EQ(seq.latency.half_width, par.latency.half_width);
}

TEST(RunnerParallel, WorstSenderIdenticalAcrossJobCounts) {
  SimConfig cfg;
  cfg.n = 3;
  cfg.seed = 11;
  cfg.fd_params.detection_time = 10.0;
  TransientConfig tc;
  tc.throughput = 50.0;
  tc.replicas = 4;
  tc.crash = 0;
  tc.jobs = 1;
  const PointResult seq = run_transient_worst_sender(cfg, tc);
  ASSERT_TRUE(seq.stable);
  tc.jobs = 4;
  const PointResult par = run_transient_worst_sender(cfg, tc);
  ASSERT_TRUE(par.stable);
  EXPECT_EQ(seq.latency.mean, par.latency.mean);
  EXPECT_EQ(seq.latency.half_width, par.latency.half_width);
}

TEST(RunnerParallel, UnstablePointStillFlaggedWhenParallel) {
  SteadyConfig sc = small_steady(4);
  sc.throughput = 5000.0;  // far beyond saturation
  sc.replicas = 2;
  sc.max_time_ms = 20000.0;
  SimConfig cfg;
  cfg.n = 3;
  const PointResult r = run_steady(cfg, sc);
  EXPECT_FALSE(r.stable);
  EXPECT_TRUE(std::isnan(r.latency.mean));
}

}  // namespace
}  // namespace fdgm::core
