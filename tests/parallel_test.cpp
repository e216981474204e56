// Tests of the fan-out primitive (every index once, ordering, exception
// propagation after join) and the determinism contract: a runner call
// made concurrently with others returns exactly what it returns alone.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
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

// The next two tests and the SharedPool ones keep the names they had when
// the fan-out ran on a pool class; they check the same properties of
// parallel_for itself.
TEST(ThreadPool, RunsAllSubmittedTasks) {
  std::atomic<int> counter{0};
  parallel_for(100, 4, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  // Every index has finished, not just started, when parallel_for returns:
  // the worker threads were joined.
  std::atomic<int> finished{0};
  parallel_for(50, 2, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    finished.fetch_add(1);
  });
  EXPECT_EQ(finished.load(), 50);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  // 0 = one per hardware thread; 300 > count starts only `count` threads.
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}, std::size_t{0}, std::size_t{300}}) {
    std::vector<std::atomic<int>> hits(257);
    parallel_for(hits.size(), jobs, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "jobs=" << jobs;
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
  for (int round = 0; round < 5; ++round) {
    std::vector<std::atomic<int>> hits(123);
    parallel_for(hits.size(), 4, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "round " << round;
  }
}

TEST(SharedPool, MapMatchesSequentialAndPropagatesExceptions) {
  const auto out = parallel_map(64, 3, [](std::size_t i) { return 3 * i + 1; });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 3 * i + 1);
  // The exception surfaces only after every thread joined: the other
  // indices all ran to completion first.
  std::atomic<int> completed{0};
  EXPECT_THROW(parallel_for(16, 3,
                            [&](std::size_t i) {
                              if (i == 3) throw std::runtime_error("boom");
                              completed.fetch_add(1);
                            }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 15);
  // A throwing fan-out leaves nothing behind; the next call works.
  const auto again = parallel_map(8, 3, [](std::size_t i) { return i; });
  for (std::size_t i = 0; i < again.size(); ++i) EXPECT_EQ(again[i], i);
}

SteadyConfig small_steady() {
  SteadyConfig sc;
  sc.throughput = 100.0;
  sc.warmup_ms = 500.0;
  sc.samples = 80;
  sc.replicas = 4;
  sc.max_time_ms = 30000.0;
  return sc;
}

// The RunnerParallel tests make one runner call serially and then the same
// call on 4 concurrent parallel_map workers — the shape of
// `fdgm_bench --jobs N` rows.  Every copy must match the serial result
// bit for bit, statistics included: same seeds, same reduction order, no
// state shared between concurrent runs.
TEST(RunnerParallel, SteadyIdenticalAcrossJobCounts) {
  SimConfig cfg;
  cfg.n = 3;
  cfg.seed = 42;
  cfg.obs.enabled = true;  // passive; fills the observer-derived stats
  const PointResult seq = run_steady(cfg, small_steady());
  ASSERT_TRUE(seq.stable);
  EXPECT_GT(seq.stats.events, 0u);
  ASSERT_TRUE(seq.stats.e2e.has_value());
  EXPECT_GT(seq.stats.e2e->count(), 0u);
  for (const PointResult& par :
       parallel_map(4, 4, [&](std::size_t) { return run_steady(cfg, small_steady()); }))
    EXPECT_EQ(par, seq);
}

TEST(RunnerParallel, TransientIdenticalAcrossJobCounts) {
  SimConfig cfg;
  cfg.n = 3;
  cfg.seed = 7;
  cfg.fd_params.detection_time = 10.0;
  TransientConfig tc;
  tc.throughput = 50.0;
  tc.replicas = 6;
  const PointResult seq = run_transient(cfg, tc);
  ASSERT_TRUE(seq.stable);
  for (const PointResult& par :
       parallel_map(4, 4, [&](std::size_t) { return run_transient(cfg, tc); }))
    EXPECT_EQ(par, seq);
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
  const PointResult seq = run_transient_worst_sender(cfg, tc);
  ASSERT_TRUE(seq.stable);
  for (const PointResult& par :
       parallel_map(4, 4, [&](std::size_t) { return run_transient_worst_sender(cfg, tc); }))
    EXPECT_EQ(par, seq);
}

TEST(RunnerParallel, UnstablePointStillFlaggedWhenParallel) {
  SteadyConfig sc = small_steady();
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
