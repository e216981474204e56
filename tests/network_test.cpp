// Tests of the contention-aware network model (paper §6.1): exact timing
// of the CPU(λ) / network(1) / CPU(λ) pipeline, FIFO queueing at both
// resource types, multicast cost, the rejected self-send, and the
// software-crash semantics.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "net/message.hpp"
#include "net/system.hpp"

namespace fdgm::net {
namespace {

/// Records (destination, time) of every delivery to one node.
class Recorder final : public Layer {
 public:
  explicit Recorder(System& sys) : sys_(&sys) {}
  void on_message(const Message& m) override { arrivals.emplace_back(m.src, sys_->now()); }
  std::vector<std::pair<ProcessId, sim::Time>> arrivals;

 private:
  System* sys_;
};

/// Oversized payload for the timing-independence test.
class BigPayload final : public Payload {
 public:
  static constexpr ProtocolId kProto = ProtocolId::kApplication;
  static constexpr std::uint8_t kKind = 32;
  BigPayload() : Payload(kProto, kKind) {}
  std::vector<int> blob = std::vector<int>(1000, 7);
};

struct Fixture {
  explicit Fixture(int n, double lambda = 1.0) : sys(n, NetworkConfig{lambda}, 1) {
    for (int i = 0; i < n; ++i) {
      recorders.push_back(std::make_unique<Recorder>(sys));
      sys.node(i).register_handler(ProtocolId::kApplication, recorders.back().get());
    }
  }
  PayloadPtr payload() { return sys.arena().make<BlankPayload>(); }

  System sys;
  std::vector<std::unique_ptr<Recorder>> recorders;
};

TEST(Network, UnicastTakesLambdaPlusOnePlusLambda) {
  Fixture f(2);
  f.sys.node(0).send(1, ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  ASSERT_EQ(f.recorders[1]->arrivals.size(), 1u);
  EXPECT_DOUBLE_EQ(f.recorders[1]->arrivals[0].second, 3.0);  // 1 + 1 + 1
}

TEST(Network, LambdaScalesCpuStages) {
  Fixture f(2, 2.5);
  f.sys.node(0).send(1, ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  EXPECT_DOUBLE_EQ(f.recorders[1]->arrivals[0].second, 6.0);  // 2.5 + 1 + 2.5
}

TEST(Network, LambdaZeroIsPureWire) {
  Fixture f(2, 0.0);
  f.sys.node(0).send(1, ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  EXPECT_DOUBLE_EQ(f.recorders[1]->arrivals[0].second, 1.0);
}

TEST(Network, SenderCpuSerializesBackToBackSends) {
  Fixture f(3);
  // Two sends at t=0 from the same host: CPU jobs at [0,1] and [1,2];
  // wire at [1,2] and [2,3]; receive CPUs in parallel on distinct hosts.
  f.sys.node(0).send(1, ProtocolId::kApplication, f.payload());
  f.sys.node(0).send(2, ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  EXPECT_DOUBLE_EQ(f.recorders[1]->arrivals[0].second, 3.0);
  EXPECT_DOUBLE_EQ(f.recorders[2]->arrivals[0].second, 4.0);
}

TEST(Network, WireSerializesConcurrentSenders) {
  Fixture f(3);
  // p0 and p1 both send to p2 at t=0: CPU stages run in parallel (distinct
  // hosts), the wire serializes [1,2], [2,3]; p2's CPU serializes receives.
  f.sys.node(0).send(2, ProtocolId::kApplication, f.payload());
  f.sys.node(1).send(2, ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  ASSERT_EQ(f.recorders[2]->arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(f.recorders[2]->arrivals[0].second, 3.0);
  EXPECT_DOUBLE_EQ(f.recorders[2]->arrivals[1].second, 4.0);
}

TEST(Network, ReceiverCpuSerializesDeliveries) {
  Fixture f(3, 2.0);
  f.sys.node(0).send(2, ProtocolId::kApplication, f.payload());
  f.sys.node(1).send(2, ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  // CPU send [0,2] both; wire [2,3] and [3,4]; recv CPU [3,5] and [5,7].
  EXPECT_DOUBLE_EQ(f.recorders[2]->arrivals[0].second, 5.0);
  EXPECT_DOUBLE_EQ(f.recorders[2]->arrivals[1].second, 7.0);
}

TEST(Network, MulticastUsesOneWireSlot) {
  Fixture f(4);
  f.sys.node(0).multicast_others(f.sys.all(), ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  EXPECT_EQ(f.sys.network().network_uses(), 1u);
  // All remote receivers get it at λ+1+λ = 3 (their CPUs are parallel).
  for (int p = 1; p < 4; ++p) {
    ASSERT_EQ(f.recorders[static_cast<std::size_t>(p)]->arrivals.size(), 1u) << p;
    EXPECT_DOUBLE_EQ(f.recorders[static_cast<std::size_t>(p)]->arrivals[0].second, 3.0);
  }
}

TEST(Network, SendToSelfThrows) {
  // A process handles its own messages locally; nothing reaches its CPU.
  Fixture f(2);
  EXPECT_THROW(f.sys.node(0).send(0, ProtocolId::kApplication, f.payload()), std::logic_error);
  f.sys.scheduler().run();
  EXPECT_EQ(f.sys.node(0).sent_count(), 0u);
  EXPECT_EQ(f.sys.network().cpu_uses(0), 0u);
  EXPECT_TRUE(f.recorders[0]->arrivals.empty());
}

TEST(Network, MulticastToSubsetOnlyReachesSubset) {
  Fixture f(4);
  f.sys.node(0).multicast_others({1, 3}, ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  EXPECT_EQ(f.recorders[1]->arrivals.size(), 1u);
  EXPECT_TRUE(f.recorders[2]->arrivals.empty());
  EXPECT_EQ(f.recorders[3]->arrivals.size(), 1u);
}

TEST(Network, PerPairFifoOrder) {
  Fixture f(2);
  // Tag messages via distinct payload identities; check arrival order by
  // send order using timestamps (strictly increasing).
  for (int i = 0; i < 5; ++i) f.sys.node(0).send(1, ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  ASSERT_EQ(f.recorders[1]->arrivals.size(), 5u);
  for (std::size_t i = 1; i < 5; ++i)
    EXPECT_LT(f.recorders[1]->arrivals[i - 1].second, f.recorders[1]->arrivals[i].second);
}

TEST(Network, CrashedProcessSendsNothing) {
  Fixture f(2);
  f.sys.crash(0);
  f.sys.node(0).send(1, ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  EXPECT_TRUE(f.recorders[1]->arrivals.empty());
  EXPECT_EQ(f.sys.node(0).sent_count(), 0u);
}

TEST(Network, MessagesInFlightAtCrashStillDelivered) {
  // Software crash: the send was accepted by the CPU before the crash.
  Fixture f(2);
  f.sys.node(0).send(1, ProtocolId::kApplication, f.payload());
  f.sys.crash_at(0, 0.5);
  f.sys.scheduler().run();
  ASSERT_EQ(f.recorders[1]->arrivals.size(), 1u);
  EXPECT_DOUBLE_EQ(f.recorders[1]->arrivals[0].second, 3.0);
}

TEST(Network, CrashedReceiverDropsButCpuIsOccupied) {
  Fixture f(2);
  f.sys.crash(1);
  f.sys.node(0).send(1, ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  EXPECT_TRUE(f.recorders[1]->arrivals.empty());
  EXPECT_EQ(f.sys.node(1).received_count(), 0u);
  // The receive-side CPU job still ran (NIC/kernel processing).
  EXPECT_EQ(f.sys.network().cpu_uses(1), 1u);
}

TEST(Network, CrashIsIdempotentAndNotifiesOnce) {
  Fixture f(2);
  int notifications = 0;
  f.sys.add_crash_listener([&](ProcessId, sim::Time) { ++notifications; });
  f.sys.crash(0);
  f.sys.crash(0);
  EXPECT_EQ(notifications, 1);
  EXPECT_TRUE(f.sys.node(0).crashed());
}

TEST(Network, AliveListExcludesCrashed) {
  Fixture f(3);
  f.sys.crash(1);
  const auto alive = f.sys.alive();
  EXPECT_EQ(alive, (std::vector<ProcessId>{0, 2}));
}

TEST(Network, DeliveryTapSeesEveryDelivery) {
  Fixture f(3);
  int taps = 0;
  f.sys.network().set_delivery_tap([&](const Message&, ProcessId) { ++taps; });
  f.sys.node(0).multicast_others(f.sys.all(), ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  EXPECT_EQ(taps, 2);
}

TEST(Network, UtilizationAccounting) {
  Fixture f(2);
  f.sys.node(0).send(1, ProtocolId::kApplication, f.payload());
  f.sys.node(0).send(1, ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  EXPECT_DOUBLE_EQ(f.sys.network().network_busy_time(), 2.0);
  EXPECT_EQ(f.sys.network().cpu_uses(0), 2u);
  EXPECT_EQ(f.sys.network().cpu_uses(1), 2u);
}

TEST(Network, RejectsBadDestinations) {
  Fixture f(2);
  EXPECT_THROW(f.sys.node(0).send(7, ProtocolId::kApplication, f.payload()),
               std::out_of_range);
}

TEST(Network, MessageTimingIndependentOfPayloadSize) {
  // The model charges one wire unit per message regardless of content —
  // the paper's abstraction.  Two different payloads, same timing.
  Fixture f(2);
  f.sys.node(0).send(1, ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  const double t1 = f.recorders[1]->arrivals[0].second;
  Fixture g(2);
  g.sys.node(0).send(1, ProtocolId::kApplication, g.sys.arena().make<BigPayload>());
  g.sys.scheduler().run();
  EXPECT_DOUBLE_EQ(g.recorders[1]->arrivals[0].second, t1);
}

TEST(Network, MulticastReceiveJobsFireTogetherInDestinationOrder) {
  // Idle receivers finish a multicast's receive jobs at one instant: one
  // scheduler record fires them in destination-list order, and executed()
  // still counts each job.  A receiver whose CPU is slower finishes later,
  // in a record of its own, without splitting or reordering the others.
  Fixture f(6);
  using Arrival = std::pair<ProcessId, sim::Time>;
  std::vector<Arrival> order;
  f.sys.network().set_delivery_tap(
      [&](const Message&, ProcessId d) { order.emplace_back(d, f.sys.now()); });
  f.sys.node(0).multicast_others({5, 2, 4, 1, 3}, ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  const std::vector<Arrival> together = {{5, 3.0}, {2, 3.0}, {4, 3.0}, {1, 3.0}, {3, 3.0}};
  EXPECT_EQ(order, together);
  EXPECT_EQ(f.sys.scheduler().inserted(), 3u);  // send CPU, wire, one receive group
  EXPECT_EQ(f.sys.scheduler().executed(), 7u);  // send CPU, wire, five receive jobs

  // p2's CPU limps at a quarter of its speed, so its receive job ends at
  // t0 + 6; p1's, p3's and p4's end at t0 + 3 and still fire in list
  // order, from one record: the group at t0 + 3 stays open past p2's.
  order.clear();
  const sim::Time t0 = f.sys.now();
  const std::uint64_t records = f.sys.scheduler().inserted();
  f.sys.network().set_cpu_limp(2, 4.0);
  f.sys.node(0).multicast_others({1, 2, 3, 4}, ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  const std::vector<Arrival> split = {{1, t0 + 3.0}, {3, t0 + 3.0}, {4, t0 + 3.0}, {2, t0 + 6.0}};
  EXPECT_EQ(order, split);
  EXPECT_EQ(f.sys.scheduler().inserted() - records, 4u);  // send CPU, wire, two groups
}

TEST(Network, HeldMessagesReleasedByOneHealKeepTheirOwnPayloads) {
  // Three messages held across a partition, released by one heal, in
  // held order: m1 p0 -> p2, m3 p1 -> p3, m2 p1 -> p2.  At λ = 0 all three
  // receive jobs end at the heal instant, at λ = 1 the first two do: jobs
  // of different messages must not share a group, whatever the instant,
  // and each receiver gets its own message from its own source.
  for (const double lambda : {0.0, 1.0}) {
    Fixture f(4, lambda);
    struct Arrival {
      const Payload* payload;
      ProcessId src;
      ProcessId dst;
      bool operator==(const Arrival&) const = default;
    };
    std::vector<Arrival> arrivals;
    f.sys.network().set_delivery_tap(
        [&](const Message& m, ProcessId d) { arrivals.push_back({m.payload, m.src, d}); });
    f.sys.network().set_partition({{0, 1}, {2, 3}});
    const PayloadPtr m1 = f.payload();
    const PayloadPtr m2 = f.payload();
    const PayloadPtr m3 = f.payload();
    f.sys.node(0).send(2, ProtocolId::kApplication, m1);
    f.sys.scheduler().run();
    f.sys.node(1).send(3, ProtocolId::kApplication, m3);
    f.sys.scheduler().run();
    f.sys.node(1).send(2, ProtocolId::kApplication, m2);
    f.sys.scheduler().run();
    ASSERT_EQ(f.sys.network().held_deliveries(), 3u) << "lambda " << lambda;
    ASSERT_TRUE(arrivals.empty());
    f.sys.network().heal_partition();
    f.sys.scheduler().run();
    const std::vector<Arrival> expected = {{m1, 0, 2}, {m3, 1, 3}, {m2, 1, 2}};
    EXPECT_EQ(arrivals, expected) << "lambda " << lambda;
    ASSERT_EQ(f.recorders[2]->arrivals.size(), 2u);
    EXPECT_EQ(f.recorders[2]->arrivals[0].first, 0);
    EXPECT_EQ(f.recorders[2]->arrivals[1].first, 1);
  }
}

TEST(Network, GroupJoinsOnlyTheLatestRecordAtItsInstant) {
  // Held in this order: X p0 -> p2, Y p1 -> p3, X again (the same
  // payload) p0 -> p4.  The heal ends all three receive jobs at one
  // instant.  The third carries the first one's message, but Y's record
  // was scheduled at that instant in between, so it must not join the
  // first one's group: the deliveries keep the held order.
  Fixture f(5);
  std::vector<ProcessId> order;
  f.sys.network().set_delivery_tap([&](const Message&, ProcessId d) { order.push_back(d); });
  f.sys.network().set_partition({{0, 1}, {2, 3, 4}});
  const PayloadPtr x = f.payload();
  f.sys.node(0).send(2, ProtocolId::kApplication, x);
  f.sys.scheduler().run();
  f.sys.node(1).send(3, ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  f.sys.node(0).send(4, ProtocolId::kApplication, x);
  f.sys.scheduler().run();
  ASSERT_EQ(f.sys.network().held_deliveries(), 3u);
  const std::uint64_t records = f.sys.scheduler().inserted();
  f.sys.network().heal_partition();
  EXPECT_EQ(f.sys.scheduler().inserted() - records, 3u);
  f.sys.scheduler().run();
  EXPECT_EQ(order, (std::vector<ProcessId>{2, 3, 4}));
}

}  // namespace
}  // namespace fdgm::net
