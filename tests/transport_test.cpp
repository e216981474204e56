// Tests of the retransmission transport (src/transport/): in-order
// transparency on loss-free channels, gap detection + NACK recovery,
// exponential-backoff timer behavior under tail loss, duplicate
// suppression with explicit acks, multi-gap reorder buffering, the
// loss-fuzz property (same delivered set, per-origin FIFO, intra-run
// total-order agreement at 5% loss) and jobs-count determinism of the
// lossy runner path.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "abcast/abcast.hpp"
#include "core/experiment.hpp"
#include "core/parallel.hpp"
#include "core/runner.hpp"
#include "net/system.hpp"
#include "sim/rng.hpp"
#include "transport/transport.hpp"

namespace fdgm::transport {
namespace {

/// Test payload with an identifying value (kind >= 32: test-local).
class TestMsg final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kApplication;
  static constexpr std::uint8_t kKind = 40;
  explicit TestMsg(int v) : Payload(kProto, kKind), v(v) {}
  int v;
};

/// Records the values delivered to one node, in order.
class Recorder final : public net::Layer {
 public:
  void on_message(const net::Message& m) override {
    const TestMsg* p = net::payload_cast<TestMsg>(m);
    ASSERT_NE(p, nullptr);
    values.push_back(p->v);
  }
  std::vector<int> values;
};

struct Fixture {
  explicit Fixture(int n, Config cfg = Config{.enabled = true}, net::NetworkConfig net = {})
      : sys(n, net, 1, cfg) {
    for (int i = 0; i < n; ++i) {
      recorders.push_back(std::make_unique<Recorder>());
      sys.node(i).register_handler(net::ProtocolId::kApplication, recorders.back().get());
    }
  }

  void send(net::ProcessId from, net::ProcessId to, int v) {
    sys.node(from).send(to, net::ProtocolId::kApplication, sys.arena().make<TestMsg>(v));
  }
  void run_for(double ms) { sys.scheduler().run_until(sys.now() + ms); }
  Transport& tp() { return *sys.transport(); }

  net::System sys;
  std::vector<std::unique_ptr<Recorder>> recorders;
};

TEST(Transport, InOrderNoLossIsTransparent) {
  Fixture f(2);
  for (int v = 1; v <= 5; ++v) f.send(0, 1, v);
  f.sys.scheduler().run();
  EXPECT_EQ(f.recorders[1]->values, (std::vector<int>{1, 2, 3, 4, 5}));
  const Stats& st = f.tp().stats();
  EXPECT_EQ(st.data_frames, 5u);
  EXPECT_EQ(st.retransmits, 0u);
  EXPECT_EQ(st.nacks, 0u);
  EXPECT_EQ(st.acks, 0u);
  EXPECT_EQ(st.duplicates, 0u);
  EXPECT_EQ(st.buffered, 0u);
  // No loss, no buffering: the channel carries no recovery state at all.
  EXPECT_EQ(f.tp().outstanding(0, 1), 0u);
  EXPECT_EQ(f.tp().expected_seq(0, 1), 6u);
  EXPECT_EQ(f.sys.scheduler().pending(), 0u);  // no retransmission timers
}

TEST(Transport, GapTriggersNackRecoveryInOrder) {
  Fixture f(2);
  sim::Rng loss_rng(7);
  f.send(0, 1, 1);
  f.run_for(10.0);
  ASSERT_EQ(f.recorders[1]->values, (std::vector<int>{1}));

  f.sys.network().set_loss(1.0, &loss_rng);
  f.send(0, 1, 2);  // dropped after the wire stage
  f.run_for(10.0);
  f.sys.network().clear_loss();
  EXPECT_EQ(f.tp().outstanding(0, 1), 1u);  // buffered for retransmission

  f.send(0, 1, 3);  // creates the gap at the receiver -> NACK -> retransmit
  f.run_for(200.0);
  EXPECT_EQ(f.recorders[1]->values, (std::vector<int>{1, 2, 3}));
  const Stats& st = f.tp().stats();
  EXPECT_GE(st.nacks, 1u);
  EXPECT_GE(st.retransmits, 1u);
  EXPECT_GE(st.buffered, 1u);
  EXPECT_EQ(f.tp().outstanding(0, 1), 0u);  // acked and pruned
  EXPECT_EQ(f.tp().expected_seq(0, 1), 4u);
}

TEST(Transport, TailLossRecoveredByBackoffTimer) {
  Fixture f(2);
  sim::Rng loss_rng(7);
  f.send(0, 1, 1);
  f.run_for(10.0);

  f.sys.network().set_loss(1.0, &loss_rng);
  f.send(0, 1, 2);  // the last frame of the conversation: no successor
  // First timer round fires inside the loss window, so the retransmission
  // is dropped too and the RTO doubles.
  f.run_for(70.0);
  f.sys.network().clear_loss();
  EXPECT_EQ(f.recorders[1]->values, (std::vector<int>{1}));
  EXPECT_GE(f.tp().stats().timer_rounds, 1u);

  // The backed-off round lands after the window and succeeds; the retx
  // flag elicits an explicit ACK that empties the ring.
  f.run_for(400.0);
  EXPECT_EQ(f.recorders[1]->values, (std::vector<int>{1, 2}));
  const Stats& st = f.tp().stats();
  EXPECT_GE(st.retransmits, 2u);
  EXPECT_GE(st.timer_rounds, 2u);
  EXPECT_GE(st.acks, 1u);
  EXPECT_EQ(f.tp().outstanding(0, 1), 0u);
  EXPECT_EQ(f.sys.scheduler().pending(), 0u);  // timer cancelled, channel idle
}

TEST(Transport, SpuriousRetransmitIsSuppressedAndAcked) {
  Fixture f(2);
  sim::Rng loss_rng(7);
  // Loss "active" but vanishingly unlikely: the frame is buffered and
  // timed, yet delivered on the first attempt.  With no reverse traffic
  // the sender can only learn the outcome from the dup-triggered ACK.
  f.sys.network().set_loss(1e-12, &loss_rng);
  f.send(0, 1, 1);
  f.run_for(500.0);
  f.sys.network().clear_loss();

  EXPECT_EQ(f.recorders[1]->values, (std::vector<int>{1}));  // exactly once
  const Stats& st = f.tp().stats();
  EXPECT_EQ(st.retransmits, 1u);  // one spurious round before the ACK
  EXPECT_EQ(st.duplicates, 1u);
  EXPECT_EQ(st.acks, 1u);
  EXPECT_EQ(f.tp().outstanding(0, 1), 0u);
  EXPECT_EQ(f.sys.scheduler().pending(), 0u);
}

TEST(Transport, MultiGapReorderDeliversInSequence) {
  Fixture f(2);
  sim::Rng loss_rng(7);
  f.send(0, 1, 1);
  f.run_for(10.0);

  f.sys.network().set_loss(1.0, &loss_rng);
  f.send(0, 1, 2);
  f.send(0, 1, 3);
  f.run_for(10.0);
  f.sys.network().clear_loss();
  EXPECT_EQ(f.tp().outstanding(0, 1), 2u);

  f.send(0, 1, 4);
  f.send(0, 1, 5);
  f.run_for(400.0);
  EXPECT_EQ(f.recorders[1]->values, (std::vector<int>{1, 2, 3, 4, 5}));
  const Stats& st = f.tp().stats();
  EXPECT_GE(st.buffered, 2u);  // 4 and 5 parked while 2, 3 were recovered
  EXPECT_GE(st.retransmits, 2u);
  EXPECT_EQ(f.tp().expected_seq(0, 1), 6u);
  EXPECT_EQ(f.tp().outstanding(0, 1), 0u);
}

// Composition race: a frame stamped while the loss filter is off is not
// ring-buffered — but if a directed cut holds it and the heal lands
// inside a loss window, the re-injection runs the loss filter again and
// can drop it.  The drop notification must insert it into the ring, or
// the channel deadlocks on the missing sequence number forever.
TEST(Transport, HeldFrameDroppedAtHealIsStillRecovered) {
  Fixture f(2);
  sim::Rng loss_rng(7);
  f.send(0, 1, 1);
  f.run_for(10.0);

  f.sys.network().set_asym_partition({0}, {1});
  f.send(0, 1, 2);  // stamped loss-free, then held by the cut
  f.run_for(10.0);
  EXPECT_EQ(f.tp().outstanding(0, 1), 0u);  // not buffered: it cannot be lost yet

  f.sys.network().set_loss(1.0, &loss_rng);
  f.sys.network().heal_asym_partition();  // re-filter drops the held frame
  f.run_for(5.0);
  f.sys.network().clear_loss();
  EXPECT_EQ(f.tp().outstanding(0, 1), 1u);  // the drop notification buffered it

  f.send(0, 1, 3);  // reveals the gap -> NACK -> retransmit of the lost frame
  f.run_for(400.0);
  EXPECT_EQ(f.recorders[1]->values, (std::vector<int>{1, 2, 3}));
  EXPECT_GE(f.tp().stats().retransmits, 1u);
  EXPECT_EQ(f.tp().outstanding(0, 1), 0u);
}

TEST(Transport, TimerArmedWhileStampingClosesOnlyAGroupAtItsInstant) {
  // A multicast's receive jobs at idle receivers end at one instant.
  // Loss-free, they fire from one scheduler record.  Inside a loss window
  // stamping each copy arms its channel's retransmission timer, a record
  // inserted between two members.  With lambda = 1 that timer is due an
  // RTO after the wire, long after the jobs: it cannot fall between them,
  // and the jobs still fire from one record.
  for (const bool lossy : {false, true}) {
    Fixture f(4);
    sim::Rng loss_rng(9);
    if (lossy) f.sys.network().set_loss(1e-12, &loss_rng);
    f.sys.node(0).multicast_others(f.sys.all(), net::ProtocolId::kApplication,
                                   f.sys.arena().make<TestMsg>(7));
    f.sys.scheduler().run_until(2.0);  // send CPU [0, 1], wire [1, 2]
    // Send CPU and wire, then one receive group (and three timers).
    EXPECT_EQ(f.sys.scheduler().inserted(), lossy ? 6u : 3u) << "lossy " << lossy;
    f.sys.scheduler().run_until(3.0);
    EXPECT_EQ(f.sys.scheduler().executed(), 5u) << "lossy " << lossy;
    for (int p = 1; p < 4; ++p)
      EXPECT_EQ(f.recorders[static_cast<std::size_t>(p)]->values, std::vector<int>{7});
  }
}

TEST(Transport, TimerAtTheReceiveInstantClosesTheReceiveGroup) {
  // lambda equal to the base RTO: the timer armed while stamping each copy
  // is due exactly when the receive jobs end, and fires before the jobs
  // that follow it.  Each job then keeps its own record: send CPU, wire,
  // and a timer plus a single-job group per destination.
  Fixture f(4, Config{.enabled = true}, net::NetworkConfig{.lambda = 50.0});
  sim::Rng loss_rng(9);
  f.sys.network().set_loss(1e-12, &loss_rng);
  f.sys.node(0).multicast_others(f.sys.all(), net::ProtocolId::kApplication,
                                 f.sys.arena().make<TestMsg>(7));
  f.sys.scheduler().run_until(51.0);  // send CPU [0, 50], wire [50, 51]
  EXPECT_EQ(f.sys.scheduler().inserted(), 8u);
  f.sys.scheduler().run();
  for (int p = 1; p < 4; ++p)
    EXPECT_EQ(f.recorders[static_cast<std::size_t>(p)]->values, std::vector<int>{7});
}

TEST(Transport, ChannelsSequenceIndependently) {
  Fixture f(3);
  for (int v = 1; v <= 3; ++v) {
    f.send(0, 2, v);
    f.send(1, 2, 10 + v);
  }
  f.sys.scheduler().run();
  EXPECT_EQ(f.tp().expected_seq(0, 2), 4u);
  EXPECT_EQ(f.tp().expected_seq(1, 2), 4u);
  EXPECT_EQ(f.tp().expected_seq(0, 1), 1u);  // untouched channel
  // Per-origin FIFO within the interleaved arrival order.
  std::vector<int> from0;
  std::vector<int> from1;
  for (int v : f.recorders[2]->values) (v < 10 ? from0 : from1).push_back(v);
  EXPECT_EQ(from0, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(from1, (std::vector<int>{11, 12, 13}));
}

// ------------------------------------------------ full-stack properties

struct Delivered {
  /// Per process, the global delivery order of (origin, seq).
  std::vector<std::vector<abcast::MsgId>> order;
};

Delivered run_stack(core::Algorithm algo, double loss_rate, double horizon, double drain) {
  core::SimConfig cfg;
  cfg.algorithm = algo;
  cfg.n = 3;
  cfg.seed = 777;
  cfg.transport.enabled = true;
  cfg.fd_params.detection_time = 30.0;
  if (loss_rate > 0.0) {
    fault::FaultEvent e;
    e.kind = fault::FaultKind::kLoss;
    e.rate = loss_rate;
    e.at = 0.0;
    e.until = 1.0e9;
    cfg.faults.add(e);
  }
  core::SimRun run(cfg, core::WorkloadConfig{.throughput = 200.0});
  Delivered d;
  d.order.resize(3);
  struct OrderSink final : abcast::DeliverSink {
    Delivered* d = nullptr;
    int p = 0;
    void on_deliver(const abcast::AppMessage& m) override {
      d->order[static_cast<std::size_t>(p)].push_back(m.id);
    }
  };
  std::vector<OrderSink> sinks(3);
  for (int p = 0; p < 3; ++p) {
    auto& sink = sinks[static_cast<std::size_t>(p)];
    sink.d = &d;
    sink.p = p;
    run.proc(p).set_deliver_sink(&sink);
  }
  run.start();
  run.run_until(horizon);
  run.workload().stop();
  run.run_until(horizon + drain);
  return d;
}

// The ISSUE's loss-fuzz property: at 5% sustained loss both stacks must
// deliver exactly the messages of the loss-free run (same set), keep
// per-origin FIFO order, and keep all replicas of one run in agreement on
// the total order (atomic broadcast survives the lossy channel).
TEST(TransportStack, LossFuzzSameSetPerOriginFifoAndAgreement) {
  for (core::Algorithm algo : {core::Algorithm::kFd, core::Algorithm::kGm}) {
    SCOPED_TRACE(core::algorithm_name(algo));
    const Delivered clean = run_stack(algo, 0.0, 3000.0, 8000.0);
    const Delivered lossy = run_stack(algo, 0.05, 3000.0, 15000.0);

    // Intra-run agreement: every process delivered the same total order.
    for (int p = 1; p < 3; ++p) {
      EXPECT_EQ(lossy.order[0], lossy.order[static_cast<std::size_t>(p)]);
      EXPECT_EQ(clean.order[0], clean.order[static_cast<std::size_t>(p)]);
    }
    ASSERT_FALSE(clean.order[0].empty());

    // Same delivered set as the loss-free run.
    std::vector<abcast::MsgId> a = clean.order[0];
    std::vector<abcast::MsgId> b = lossy.order[0];
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "message set changed under loss";

    // Per-origin FIFO: each sender's messages appear in seq order.
    for (const Delivered* d : {&clean, &lossy}) {
      std::map<net::ProcessId, std::uint64_t> last;
      for (const abcast::MsgId& id : d->order[0]) {
        EXPECT_LT(last[id.origin], id.seq);
        last[id.origin] = id.seq;
      }
    }
  }
}

// The lossy runner path must stay bit-identical for any job count: the
// same call on 4 concurrent workers (as `--jobs` runs rows) reproduces
// the serial result, statistics included.
TEST(TransportStack, LossyRunStatsIdenticalAcrossJobCounts) {
  core::SimConfig cfg;
  cfg.algorithm = core::Algorithm::kFd;
  cfg.n = 3;
  cfg.seed = 4242;
  cfg.transport.enabled = true;
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kLoss;
  e.rate = 0.02;
  e.at = 0.0;
  e.until = 1.0e9;
  cfg.faults.add(e);

  core::SteadyConfig sc;
  sc.throughput = 150.0;
  sc.samples = 120;
  sc.warmup_ms = 500.0;
  sc.replicas = 4;

  const core::PointResult r1 = core::run_steady(cfg, sc);
  ASSERT_TRUE(r1.stable);
  EXPECT_GT(r1.stats.retransmits, 0u);  // the loss actually exercised recovery
  for (const core::PointResult& r4 :
       core::parallel_map(4, 4, [&](std::size_t) { return core::run_steady(cfg, sc); }))
    EXPECT_EQ(r4, r1);
}

}  // namespace
}  // namespace fdgm::transport
