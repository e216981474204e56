// Tests of the fault-injection subsystem: schedule parsing round-trips,
// the network fault-filter stage (partition hold/heal, loss, delay
// spikes), recovery rejoin through the GM state-transfer path and the FD
// log sync, suspicion storms, and bit-identical results across job counts
// for a faulted scenario.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/experiment.hpp"
#include "core/parallel.hpp"
#include "core/runner.hpp"
#include "fault/fault_schedule.hpp"
#include "fault/injector.hpp"
#include "net/system.hpp"

namespace fdgm {
namespace {

using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultSchedule;

// ------------------------------------------------------------- parsing

TEST(FaultSchedule, ParsesTheIssueExample) {
  const FaultSchedule s = FaultSchedule::parse("crash p0 @500; partition {0,1|2} @1000 heal @3000");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.events()[0].kind, FaultKind::kCrash);
  EXPECT_EQ(s.events()[0].process, 0);
  EXPECT_DOUBLE_EQ(s.events()[0].at, 500.0);
  EXPECT_EQ(s.events()[1].kind, FaultKind::kPartition);
  EXPECT_EQ(s.events()[1].groups, (std::vector<std::vector<net::ProcessId>>{{0, 1}, {2}}));
  EXPECT_DOUBLE_EQ(s.events()[1].at, 1000.0);
  EXPECT_DOUBLE_EQ(s.events()[1].until, 3000.0);
}

TEST(FaultSchedule, RoundTripsThroughToString) {
  const char* specs[] = {
      "crash p0 @500",
      "recover p3 @1500.5",
      "partition {p0,p1|p2,p3} @1000 heal @3000",
      "loss 0.25 @100 for 400",
      "delay x4 @100 for 50",
      "storm p1,p2 @1000 for 50",
      "crash p1 @5; recover p1 @10; storm p0 @20 for 5",
      "crash p0 @123456.75",  // > 6 significant digits must survive
      "loss 0.2 @0.1 for 1e6",
      "apartition p0,p1->p2 @1000 heal @3000",
      "apartition p3->p0,p1,p2 @500 heal @501",
  };
  for (const char* spec : specs) {
    const FaultSchedule parsed = FaultSchedule::parse(spec);
    EXPECT_EQ(FaultSchedule::parse(parsed.to_string()), parsed) << spec;
  }
}

TEST(FaultSchedule, KeepsEventsOrderedByTime) {
  const FaultSchedule s = FaultSchedule::parse("recover p0 @900; crash p0 @400; storm p1 @600 for 10");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.events()[0].at, 400.0);
  EXPECT_DOUBLE_EQ(s.events()[1].at, 600.0);
  EXPECT_DOUBLE_EQ(s.events()[2].at, 900.0);
}

TEST(FaultSchedule, RejectsMalformedInput) {
  EXPECT_THROW(FaultSchedule::parse("crash x @10"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("crash p0"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("partition {0,1} @5 heal @9"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("loss 1.5 @0 for 10"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("delay 4 @0 for 10"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("explode p0 @10"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("partition {0|1} @10 heal @5"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("crash p1e300 @5"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("crash p1.5 @5"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("partition {0,1|1,2} @5 heal @9"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("apartition p0,p1 @5 heal @9"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("apartition ->p1 @5 heal @9"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("apartition p0-> @5 heal @9"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("apartition p0->p1 @9 heal @5"), std::invalid_argument);
  // Times that would corrupt or abort the scheduler must fail at parse.
  EXPECT_THROW(FaultSchedule::parse("crash p0 @-5"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("crash p0 @nan"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("delay xinf @0 for 10"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("loss 0.5 @10 for inf"), std::invalid_argument);
}

// ------------------------------------------------- network fault filter

/// Counts deliveries per node.
class Counter final : public net::Layer {
 public:
  void on_message(const net::Message&) override { ++count; }
  int count = 0;
};

struct NetFixture {
  explicit NetFixture(int n) : sys(n, net::NetworkConfig{1.0}, 1) {
    for (int i = 0; i < n; ++i) {
      counters.push_back(std::make_unique<Counter>());
      sys.node(i).register_handler(net::ProtocolId::kApplication, counters.back().get());
    }
  }
  net::PayloadPtr payload() { return sys.arena().make<net::BlankPayload>(); }

  net::System sys;
  std::vector<std::unique_ptr<Counter>> counters;
};

TEST(FaultFilter, PartitionHoldsCrossGroupDeliveriesUntilHeal) {
  NetFixture f(4);
  f.sys.network().set_partition({{0, 1}, {2, 3}});
  f.sys.node(0).multicast_others(f.sys.all(), net::ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  EXPECT_EQ(f.counters[1]->count, 1);  // same group
  EXPECT_EQ(f.counters[2]->count, 0);  // held
  EXPECT_EQ(f.counters[3]->count, 0);
  EXPECT_EQ(f.sys.network().held_deliveries(), 2u);

  f.sys.network().heal_partition();
  f.sys.scheduler().run();
  EXPECT_EQ(f.counters[2]->count, 1);  // released at the heal
  EXPECT_EQ(f.counters[3]->count, 1);
}

TEST(FaultFilter, UnlistedProcessesFormAnImplicitGroup) {
  NetFixture f(5);
  f.sys.network().set_partition({{0, 1}, {2}});
  EXPECT_FALSE(f.sys.network().partitioned(0, 1));
  EXPECT_TRUE(f.sys.network().partitioned(0, 2));
  EXPECT_TRUE(f.sys.network().partitioned(2, 3));
  EXPECT_FALSE(f.sys.network().partitioned(3, 4));  // both unlisted: same side
}

TEST(FaultFilter, FullLossDropsEveryRemoteDelivery) {
  NetFixture f(3);
  sim::Rng rng(7);
  f.sys.network().set_loss(1.0, &rng);
  f.sys.node(0).multicast_others(f.sys.all(), net::ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  EXPECT_EQ(f.counters[1]->count, 0);
  EXPECT_EQ(f.counters[2]->count, 0);
  EXPECT_EQ(f.sys.network().lost_deliveries(), 2u);

  f.sys.network().clear_loss();
  f.sys.node(0).multicast_others(f.sys.all(), net::ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  EXPECT_EQ(f.counters[1]->count, 1);
  EXPECT_EQ(f.counters[2]->count, 1);
}

TEST(FaultFilter, AsymPartitionCutsOnlyTheGivenDirection) {
  NetFixture f(3);
  f.sys.network().set_asym_partition({0}, {2});
  EXPECT_TRUE(f.sys.network().asym_cut(0, 2));
  EXPECT_FALSE(f.sys.network().asym_cut(2, 0));
  f.sys.node(0).send(2, net::ProtocolId::kApplication, f.payload());  // held
  f.sys.node(2).send(0, net::ProtocolId::kApplication, f.payload());  // flows
  f.sys.node(0).send(1, net::ProtocolId::kApplication, f.payload());  // unrelated link
  f.sys.scheduler().run();
  EXPECT_EQ(f.counters[2]->count, 0);
  EXPECT_EQ(f.counters[0]->count, 1);
  EXPECT_EQ(f.counters[1]->count, 1);
  EXPECT_EQ(f.sys.network().held_deliveries(), 1u);

  f.sys.network().heal_asym_partition();
  f.sys.scheduler().run();
  EXPECT_EQ(f.counters[2]->count, 1);  // released at the heal
}

TEST(FaultFilter, AsymPartitionReplacementRefiltersHeldMessages) {
  NetFixture f(3);
  f.sys.network().set_asym_partition({0}, {1});
  f.sys.node(0).send(1, net::ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  EXPECT_EQ(f.counters[1]->count, 0);
  // The replacing cut no longer blocks 0 -> 1: the held message flows.
  f.sys.network().set_asym_partition({1}, {2});
  f.sys.scheduler().run();
  EXPECT_EQ(f.counters[1]->count, 1);
}

TEST(FaultFilter, AsymPartitionRejectsBadIds) {
  NetFixture f(2);
  EXPECT_THROW(f.sys.network().set_asym_partition({0}, {7}), std::out_of_range);
  EXPECT_THROW(f.sys.network().set_asym_partition({-1}, {0}), std::out_of_range);
}

TEST(Injector, AsymPartitionHoldsAndHealsOnSchedule) {
  core::SimConfig cfg;
  cfg.n = 3;
  cfg.faults = FaultSchedule::parse("apartition p0->p2 @100 heal @400");
  core::SimRun run(cfg, core::WorkloadConfig{.throughput = 10.0});
  run.start();
  run.run_until(200.0);
  EXPECT_TRUE(run.system().network().asym_cut(0, 2));
  EXPECT_FALSE(run.system().network().asym_cut(2, 0));
  run.run_until(500.0);
  EXPECT_FALSE(run.system().network().asym_cut(0, 2));
}

TEST(FaultFilter, CrashAtAndRestartAtDriveTheNodeLifecycle) {
  NetFixture f(2);
  f.sys.crash_at(1, 10.0);
  f.sys.restart_at(1, 20.0);
  f.sys.scheduler().run_until(15.0);
  EXPECT_TRUE(f.sys.node(1).crashed());
  f.sys.node(0).send(1, net::ProtocolId::kApplication, f.payload());  // dropped: dst dead
  f.sys.scheduler().run_until(25.0);
  EXPECT_FALSE(f.sys.node(1).crashed());
  EXPECT_EQ(f.counters[1]->count, 0);
  f.sys.node(0).send(1, net::ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  EXPECT_EQ(f.counters[1]->count, 1);
}

TEST(FaultFilter, DelayFactorScalesTheWireStage) {
  NetFixture f(2);
  f.sys.network().set_delay_factor(5.0);
  f.sys.node(0).send(1, net::ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  // lambda + 5 * network time + lambda = 1 + 5 + 1.
  EXPECT_DOUBLE_EQ(f.sys.now(), 7.0);
  EXPECT_EQ(f.counters[1]->count, 1);
}

// -------------------------------------------------------- injector basics

TEST(Injector, FiresScheduledEventsAndSkipsBadIds) {
  core::SimConfig cfg;
  cfg.n = 3;
  cfg.faults = FaultSchedule::parse("crash p1 @100; crash p9 @200");
  core::SimRun run(cfg, core::WorkloadConfig{.throughput = 50.0});
  run.start();
  run.run_until(500.0);
  EXPECT_TRUE(run.system().node(1).crashed());
  ASSERT_NE(run.injector(), nullptr);
  EXPECT_EQ(run.injector()->fired(), 1u);
  EXPECT_EQ(run.injector()->skipped(), 1u);
}

TEST(Injector, EveryKindNamingABadIdIsSkipped) {
  // One event per kind that names processes, each with one id past n-1
  // in the field it names: its target, a group or the accused.  The loss
  // event names none and fires.
  core::SimConfig cfg;
  cfg.n = 3;
  cfg.faults = FaultSchedule::parse(
      "crash p3 @100; recover p3 @110; partition {0|3} @120 heal @130; "
      "apartition p0->p3 @140 heal @150; storm p1,p3 @160 for 5; limp p3 x2 @170 for 5; "
      "flap p3->p0 period 4 duty 0.5 @180 for 8; drift p3 x0.5 @190 for 5; "
      "corrupt 0.1 p0->p3 @200 for 5; loss 0.1 @210 for 5");
  core::SimRun run(cfg, core::WorkloadConfig{.throughput = 50.0});
  run.start();
  run.run_until(500.0);
  ASSERT_NE(run.injector(), nullptr);
  EXPECT_EQ(run.injector()->skipped(), 9u);
  EXPECT_EQ(run.injector()->fired(), 1u);
  for (int p = 0; p < 3; ++p) EXPECT_FALSE(run.system().node(p).crashed()) << p;
}

TEST(Injector, RecoveryRestartsTheNodeAndItsWorkload) {
  core::SimConfig cfg;
  cfg.n = 3;
  cfg.faults = FaultSchedule::parse("crash p2 @200; recover p2 @600");
  core::SimRun run(cfg, core::WorkloadConfig{.throughput = 300.0});
  run.start();
  run.run_until(400.0);
  EXPECT_TRUE(run.system().node(2).crashed());
  const std::uint64_t sent_while_down = run.system().node(2).sent_count();
  run.run_until(3000.0);
  EXPECT_FALSE(run.system().node(2).crashed());
  EXPECT_EQ(run.system().node(2).incarnation(), 1u);
  // The Poisson arrival chain resumed after the restart.
  EXPECT_GT(run.system().node(2).sent_count(), sent_while_down);
}

// ------------------------------------------------------- suspicion storms

TEST(Injector, StormForcesAndReleasesSuspicions) {
  core::SimConfig cfg;
  cfg.n = 3;
  cfg.faults = FaultSchedule::parse("storm p0 @300 for 100");
  core::SimRun run(cfg, core::WorkloadConfig{.throughput = 50.0});
  run.start();
  run.run_until(350.0);
  EXPECT_TRUE(run.fd_model().at(1).suspects(0));
  EXPECT_TRUE(run.fd_model().at(2).suspects(0));
  EXPECT_FALSE(run.fd_model().at(0).suspects(1));  // only the accused is suspected
  run.run_until(1500.0);
  EXPECT_FALSE(run.fd_model().at(1).suspects(0));
  EXPECT_FALSE(run.fd_model().at(2).suspects(0));
}

// ------------------------------------------- crash-recovery, both stacks

/// Runs a crash+recover cycle against one algorithm and checks that the
/// recovered process catches up with the group: same log prefix, workload
/// keeps being delivered afterwards.
void check_recovery(core::Algorithm algo) {
  core::SimConfig cfg;
  cfg.algorithm = algo;
  cfg.n = 3;
  cfg.fd_params.detection_time = 10.0;
  cfg.faults = FaultSchedule::parse("crash p2 @500; recover p2 @1500");
  core::SimRun run(cfg, core::WorkloadConfig{.throughput = 200.0});
  run.start();
  run.run_until(6000.0);
  run.workload().stop();
  run.run_until(12000.0);

  const auto& rec = run.recorder();
  EXPECT_EQ(rec.stale_undelivered(run.system().now(), 2000.0), 0u)
      << "messages stuck undelivered after the recovery";
  // The recovered process rejoined and caught up: it delivered messages
  // broadcast long after its crash window.
  const std::uint64_t d2 = run.proc(2).delivered_count();
  const std::uint64_t d0 = run.proc(0).delivered_count();
  EXPECT_GT(d2, 0u);
  EXPECT_GE(d2 + 50, d0) << "recovered process lagging far behind";
}

TEST(Recovery, GmProcessRejoinsViaStateTransfer) { check_recovery(core::Algorithm::kGm); }

TEST(Recovery, FdProcessCatchesUpViaLogSync) { check_recovery(core::Algorithm::kFd); }

TEST(Recovery, GmBufferedOwnMessagesSurviveACrashDuringRejoin) {
  // p2 recovers at 600 but cannot rejoin before the recovery is detected
  // (TD = 300, trust at 900); meanwhile its workload resumes and buffers
  // own messages — which the recorder already counted.  The re-crash at
  // 800 hits while still excluded; the buffer must survive into the next
  // incarnation or those messages can never be delivered anywhere.
  core::SimConfig cfg;
  cfg.algorithm = core::Algorithm::kGm;
  cfg.n = 3;
  cfg.fd_params.detection_time = 300.0;
  cfg.faults = FaultSchedule::parse("crash p2 @500; recover p2 @600; crash p2 @800; recover p2 @1600");
  core::SimRun run(cfg, core::WorkloadConfig{.throughput = 300.0});
  run.start();
  run.run_until(6000.0);
  run.workload().stop();
  run.run_until(12000.0);
  EXPECT_EQ(run.recorder().stale_undelivered(run.system().now(), 2000.0), 0u)
      << "messages submitted while excluded were lost across the re-crash";
}

TEST(Recovery, GmLogsAgreeAfterChurn) {
  core::SimConfig cfg;
  cfg.algorithm = core::Algorithm::kGm;
  cfg.n = 3;
  cfg.faults = FaultSchedule::parse("crash p2 @500; recover p2 @1200; crash p2 @2500; recover p2 @3200");
  core::SimRun run(cfg, core::WorkloadConfig{.throughput = 200.0});
  run.start();
  run.run_until(7000.0);
  run.workload().stop();
  run.run_until(13000.0);

  auto& p0 = dynamic_cast<abcast::GmAbcastProcess&>(run.proc(0));
  auto& p2 = dynamic_cast<abcast::GmAbcastProcess&>(run.proc(2));
  // p0 went through at least exclusion + readmission per churn cycle.
  EXPECT_GE(p0.membership().views_installed(), 4u);
  // Total order: the shorter log is a prefix of the longer one.
  const auto& log0 = p0.log();
  const auto& log2 = p2.log();
  const std::size_t common = std::min(log0.size(), log2.size());
  ASSERT_GT(common, 0u);
  for (std::size_t i = 0; i < common; ++i)
    ASSERT_EQ(log0[i]->id, log2[i]->id) << "order diverged at " << i;
  EXPECT_GE(log2.size() + 50, log0.size());
}

TEST(Recovery, FdLogsAgreeAfterChurn) {
  core::SimConfig cfg;
  cfg.algorithm = core::Algorithm::kFd;
  cfg.n = 3;
  cfg.faults = FaultSchedule::parse("crash p1 @500; recover p1 @1200; crash p1 @2500; recover p1 @3200");
  core::SimRun run(cfg, core::WorkloadConfig{.throughput = 200.0});
  run.start();
  run.run_until(7000.0);
  run.workload().stop();
  run.run_until(13000.0);

  auto& p0 = dynamic_cast<abcast::FdAbcastProcess&>(run.proc(0));
  auto& p1 = dynamic_cast<abcast::FdAbcastProcess&>(run.proc(1));
  const auto& log0 = p0.log();
  const auto& log1 = p1.log();
  const std::size_t common = std::min(log0.size(), log1.size());
  ASSERT_GT(common, 0u);
  for (std::size_t i = 0; i < common; ++i)
    ASSERT_EQ(log0[i]->id, log1[i]->id) << "order diverged at " << i;
  EXPECT_GE(log1.size() + 50, log0.size());
}

// ------------------------------------------- partition through the stacks

TEST(Partition, DeliveryResumesAcrossTheHealBothAlgorithms) {
  for (core::Algorithm algo : {core::Algorithm::kFd, core::Algorithm::kGm}) {
    core::SimConfig cfg;
    cfg.algorithm = algo;
    cfg.n = 5;
    cfg.faults = FaultSchedule::parse("partition {0,1,2|3,4} @1000 heal @2500");
    core::SimRun run(cfg, core::WorkloadConfig{.throughput = 100.0});
    run.start();
    run.run_until(6000.0);
    run.workload().stop();
    run.run_until(12000.0);
    EXPECT_EQ(run.recorder().stale_undelivered(run.system().now(), 2000.0), 0u)
        << core::algorithm_name(algo) << ": messages lost across the partition";
    EXPECT_GT(run.system().network().held_deliveries(), 0u);
  }
}

TEST(Partition, AsymmetricCutDrainsAfterHealBothAlgorithms) {
  for (core::Algorithm algo : {core::Algorithm::kFd, core::Algorithm::kGm}) {
    core::SimConfig cfg;
    cfg.algorithm = algo;
    cfg.n = 5;
    // The majority can be heard by the minority's senders but not reach
    // them: minority members learn the order only at the heal.
    cfg.faults = FaultSchedule::parse("apartition p0,p1,p2->p3,p4 @1000 heal @2500");
    core::SimRun run(cfg, core::WorkloadConfig{.throughput = 100.0});
    run.start();
    run.run_until(6000.0);
    run.workload().stop();
    run.run_until(12000.0);
    EXPECT_EQ(run.recorder().stale_undelivered(run.system().now(), 2000.0), 0u)
        << core::algorithm_name(algo) << ": messages lost across the directed cut";
    EXPECT_GT(run.system().network().held_deliveries(), 0u);
  }
}

// ----------------------------------------------------- jobs determinism

TEST(Determinism, FaultedScenarioIsBitIdenticalAcrossJobs) {
  core::SimConfig cfg;
  cfg.algorithm = core::Algorithm::kGm;
  cfg.n = 5;
  cfg.seed = 42;
  cfg.faults = FaultSchedule::parse(
      "crash p4 @1200; recover p4 @1700; storm p0 @2600 for 20; "
      "partition {0,1,2|3,4} @3000 heal @3800");
  core::WindowedConfig wc;
  wc.throughput = 100.0;
  wc.t_end = 5000.0;
  wc.windows = {{500.0, 2500.0}, {2500.0, 5000.0}};
  wc.replicas = 4;

  // The serial call against the same call on 8 concurrent workers (as
  // `--jobs` runs rows): bit-identical, not approximately equal.
  const core::WindowedResult seq = core::run_windowed(cfg, wc);
  ASSERT_EQ(seq.windows.size(), wc.windows.size());
  for (const core::WindowedResult& par :
       core::parallel_map(8, 8, [&](std::size_t) { return core::run_windowed(cfg, wc); }))
    EXPECT_EQ(par, seq);
}

}  // namespace
}  // namespace fdgm
