// Submission batching + adaptive flow control (abcast::BatchConfig).
//
// The unbatched bit-identity contract is covered by determinism_test (the
// pre-batching golden hashes must keep passing with the batching machinery
// compiled in).  This file covers the armed side: the credit window and
// its release on delivery, adaptive batch amortization under load,
// deterministic open-loop shedding, and a 5%-loss fuzz showing both stacks
// keep atomic-broadcast safety when submissions travel in batches.
#include <gtest/gtest.h>

#include <vector>

#include "core/experiment.hpp"
#include "fault/fault_schedule.hpp"

namespace fdgm::core {
namespace {

abcast::BatchConfig armed() {
  abcast::BatchConfig b;
  b.enabled = true;
  return b;
}

/// The credit window: abcast.cpp's kCreditWindow.
constexpr std::size_t kCreditWindow = 64;

TEST(Batching, CreditWindowExhaustsAndReopensOnDelivery) {
  SimConfig cfg;
  cfg.algorithm = Algorithm::kFd;
  cfg.n = 3;
  cfg.seed = 11;
  cfg.batching = armed();
  SimRun run(cfg, WorkloadConfig{.throughput = 100.0});

  auto& p0 = run.proc(0);

  for (std::size_t i = 0; i < kCreditWindow; ++i) {
    EXPECT_TRUE(p0.can_submit()) << i;
    p0.a_broadcast();
  }
  EXPECT_EQ(p0.in_flight(), kCreditWindow);
  EXPECT_FALSE(p0.can_submit());

  // Deliveries release credits and the exhausted window reopens.
  run.system().scheduler().run();
  EXPECT_EQ(p0.in_flight(), 0u);
  EXPECT_TRUE(p0.can_submit());
}

TEST(Batching, AdaptiveTargetAmortizesOrderingUnderLoad) {
  for (Algorithm algo : {Algorithm::kFd, Algorithm::kGm}) {
    SCOPED_TRACE(algorithm_name(algo));
    SimConfig cfg;
    cfg.algorithm = algo;
    cfg.n = 5;
    cfg.seed = 21;
    cfg.batching = armed();
    SimRun run(cfg, WorkloadConfig{.throughput = 3000.0});
    run.start();
    run.run_until(2000.0);
    run.workload().stop();
    run.run_until(6000.0);

    // Everything submitted was delivered (flow control shed the rest
    // before it was ever recorded)...
    EXPECT_EQ(run.recorder().undelivered_in_window(0.0, 2000.0), 0u);
    EXPECT_GT(run.workload().generated(), 0u);

    // ...and the ordering work was amortized: fewer flushes than
    // submissions means batches of size > 1 actually formed.
    std::uint64_t flushes = 0;
    for (int p = 0; p < cfg.n; ++p) flushes += run.proc(p).batches_flushed();
    EXPECT_GT(flushes, 0u);
    EXPECT_LT(flushes, run.workload().generated());

    // All processes agree on what was delivered.
    for (int p = 1; p < cfg.n; ++p)
      EXPECT_EQ(run.proc(p).delivered_count(), run.proc(0).delivered_count());
  }
}

TEST(Batching, OpenLoopLoadShedsDeterministically) {
  auto shed_of = [](std::uint64_t seed) {
    SimConfig cfg;
    cfg.algorithm = Algorithm::kGm;
    cfg.n = 3;
    cfg.seed = seed;
    cfg.batching = armed();
    SimRun run(cfg, WorkloadConfig{.throughput = 4000.0});
    run.start();
    run.run_until(1000.0);
    return std::pair{run.workload().generated(), run.workload().shed()};
  };
  const auto [generated, shed] = shed_of(31);
  EXPECT_GT(generated, 0u);
  EXPECT_GT(shed, 0u);  // the credit window cannot absorb 4000 msgs/s (about half shed)
  // Same seed, same counters: shedding is part of the deterministic run.
  EXPECT_EQ(shed_of(31), std::pair(generated, shed));
}

TEST(Batching, ShedIsZeroWithBatchingOff) {
  SimConfig cfg;
  cfg.algorithm = Algorithm::kFd;
  cfg.n = 3;
  cfg.seed = 41;
  SimRun run(cfg, WorkloadConfig{.throughput = 4000.0});
  run.start();
  run.run_until(500.0);
  EXPECT_EQ(run.workload().shed(), 0u);
}

/// Delivery order of one process (5%-loss fuzz below).  Keeps feeding the
/// run's latency recorder, which this sink displaces.
struct Orders final : abcast::DeliverSink {
  SimRun* run = nullptr;
  std::vector<abcast::MsgId> order;
  void on_deliver(const abcast::AppMessage& m) override {
    order.push_back(m.id);
    run->recorder().on_deliver(m, run->system().now());
  }
};

TEST(Batching, LossFuzzKeepsAgreementAndFifoWithBatchesOnTheWire) {
  for (Algorithm algo : {Algorithm::kFd, Algorithm::kGm}) {
    SCOPED_TRACE(algorithm_name(algo));
    SimConfig cfg;
    cfg.algorithm = algo;
    cfg.n = 3;
    cfg.seed = 777;
    cfg.transport.enabled = true;
    cfg.batching = armed();
    cfg.fd_params.detection_time = 30.0;
    fault::FaultEvent e;
    e.kind = fault::FaultKind::kLoss;
    e.rate = 0.05;
    e.at = 0.0;
    e.until = 1.0e9;
    cfg.faults.add(e);

    SimRun run(cfg, WorkloadConfig{.throughput = 500.0});
    std::vector<Orders> sinks(3);
    for (int p = 0; p < 3; ++p) {
      sinks[static_cast<std::size_t>(p)].run = &run;
      run.proc(p).set_deliver_sink(&sinks[static_cast<std::size_t>(p)]);
    }
    run.start();
    run.run_until(3000.0);
    run.workload().stop();
    run.run_until(20000.0);

    // Drained: every accepted submission was delivered despite the loss.
    EXPECT_EQ(run.recorder().undelivered_in_window(0.0, 3000.0), 0u);
    ASSERT_FALSE(sinks[0].order.empty());

    // Agreement: all replicas delivered the same total order (same set
    // included).
    EXPECT_EQ(sinks[0].order, sinks[1].order);
    EXPECT_EQ(sinks[0].order, sinks[2].order);

    // Per-origin FIFO survived the batch packing.
    std::vector<std::uint64_t> last_seq(3, 0);
    for (const abcast::MsgId& id : sinks[0].order) {
      auto& last = last_seq[static_cast<std::size_t>(id.origin)];
      EXPECT_LT(last, id.seq);
      last = id.seq;
    }
  }
}

}  // namespace
}  // namespace fdgm::core
