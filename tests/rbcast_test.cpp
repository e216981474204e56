// Tests of the reliable broadcast layer: single-multicast fast path,
// duplicate suppression, relay on suspicion, garbage collection, and
// client-tag routing.  The delivery tests run twice: Rbcast.* with relays
// on, RbcastRelayOff.* in the relay-off mode both protocol stacks run,
// where the layer must also retain nothing.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fd/qos_model.hpp"
#include "net/system.hpp"
#include "rbcast/reliable_broadcast.hpp"

namespace fdgm::rbcast {
namespace {

constexpr int kTag = 1;

class Body final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kApplication;
  static constexpr std::uint8_t kKind = 33;
  explicit Body(int v) : Payload(kProto, kKind), value(v) {}
  int value;
};

struct Fixture {
  explicit Fixture(int n, fd::QosParams qp = {}, RbConfig cfg = {}) : sys(n, {}, 1), fd(sys, qp) {
    deliveries.reserve(static_cast<std::size_t>(n));  // lambdas keep pointers
    for (int i = 0; i < n; ++i) {
      stacks.push_back(std::make_unique<ReliableBroadcast>(sys, i, fd.at(i), cfg));
      auto* log = &deliveries.emplace_back();
      stacks.back()->register_client(
          kTag, [log](const RbId&, net::ProcessId origin, net::PayloadPtr p) {
            const Body* b = net::payload_cast<Body>(p);
            log->emplace_back(origin, b != nullptr ? b->value : -1);
          });
    }
    fd.start();
  }

  net::System sys;
  fd::QosFailureDetectorModel fd;
  std::vector<std::unique_ptr<ReliableBroadcast>> stacks;
  std::vector<std::vector<std::pair<net::ProcessId, int>>> deliveries;
};

/// Without relays nothing may be retained, whatever was delivered.
void expect_no_retention(const Fixture& f, const RbConfig& cfg) {
  if (cfg.relay_on_suspicion) return;
  for (const auto& st : f.stacks) EXPECT_EQ(st->retained(), 0u);
}

constexpr RbConfig kRelayOn{.relay_on_suspicion = true};
constexpr RbConfig kRelayOff{.relay_on_suspicion = false};

// Defines Rbcast.Name (relays on) and RbcastRelayOff.Name (relays off)
// over one body that receives the mode as `cfg`.
#define RB_TEST_BOTH_MODES(Name)                        \
  void Name##Body(const RbConfig& cfg);                 \
  TEST(Rbcast, Name) { Name##Body(kRelayOn); }          \
  TEST(RbcastRelayOff, Name) { Name##Body(kRelayOff); } \
  void Name##Body(const RbConfig& cfg)

RB_TEST_BOTH_MODES(EveryoneDeliversOnce) {
  Fixture f(4, {}, cfg);
  f.stacks[0]->broadcast(kTag, f.sys.arena().make<Body>(7));
  f.sys.scheduler().run();
  for (int p = 0; p < 4; ++p) {
    ASSERT_EQ(f.deliveries[static_cast<std::size_t>(p)].size(), 1u) << p;
    EXPECT_EQ(f.deliveries[static_cast<std::size_t>(p)][0], std::make_pair(0, 7));
  }
  expect_no_retention(f, cfg);
}

TEST(Rbcast, FailureFreeCostsOneWireSlot) {
  Fixture f(5);
  f.stacks[2]->broadcast(kTag, f.sys.arena().make<Body>(1));
  f.sys.scheduler().run();
  EXPECT_EQ(f.sys.network().network_uses(), 1u);
  for (const auto& st : f.stacks) EXPECT_EQ(st->relays(), 0u);
}

RB_TEST_BOTH_MODES(SenderDeliversLocallyImmediately) {
  Fixture f(3, {}, cfg);
  f.stacks[0]->broadcast(kTag, f.sys.arena().make<Body>(5));
  // Before running the scheduler at all: local delivery already happened.
  EXPECT_EQ(f.deliveries[0].size(), 1u);
  f.sys.scheduler().run();
  EXPECT_EQ(f.deliveries[0].size(), 1u);  // self copy deduplicated
  expect_no_retention(f, cfg);
}

RB_TEST_BOTH_MODES(OrderPreservedPerOrigin) {
  Fixture f(3, {}, cfg);
  for (int i = 0; i < 5; ++i) f.stacks[0]->broadcast(kTag, f.sys.arena().make<Body>(i));
  f.sys.scheduler().run();
  for (int p = 0; p < 3; ++p) {
    ASSERT_EQ(f.deliveries[static_cast<std::size_t>(p)].size(), 5u);
    for (int i = 0; i < 5; ++i)
      EXPECT_EQ(f.deliveries[static_cast<std::size_t>(p)][static_cast<std::size_t>(i)].second, i);
  }
  expect_no_retention(f, cfg);
}

TEST(Rbcast, SuspicionTriggersRelay) {
  fd::QosParams qp;
  qp.detection_time = 10.0;
  Fixture f(3, qp);
  f.stacks[0]->broadcast(kTag, f.sys.arena().make<Body>(3));
  f.sys.scheduler().run();
  f.sys.crash(0);
  f.sys.scheduler().run();  // detection at +10ms -> relays fire
  std::uint64_t total_relays = 0;
  for (const auto& st : f.stacks) total_relays += st->relays();
  EXPECT_EQ(total_relays, 2u);  // p1 and p2 each relay once
  // Still delivered exactly once everywhere.
  for (int p = 1; p < 3; ++p) EXPECT_EQ(f.deliveries[static_cast<std::size_t>(p)].size(), 1u);
}

TEST(Rbcast, RelayHappensAtMostOncePerMessage) {
  fd::QosParams qp;
  qp.wrong_suspicions = true;
  qp.mistake_recurrence = 50.0;
  qp.mistake_duration = 1.0;
  Fixture f(3, qp);
  f.stacks[0]->broadcast(kTag, f.sys.arena().make<Body>(3));
  f.sys.scheduler().run_until(5000.0);  // many suspicion edges of p0
  EXPECT_LE(f.stacks[1]->relays(), 1u);
  EXPECT_LE(f.stacks[2]->relays(), 1u);
  EXPECT_EQ(f.deliveries[1].size(), 1u);
}

TEST(Rbcast, ReleasedMessagesAreNotRelayed) {
  fd::QosParams qp;
  qp.detection_time = 10.0;
  Fixture f(3, qp);
  RbId seen_id{};
  // Re-register a client on stack 1 that releases immediately: use a
  // separate tag to keep the fixture's logging client.
  f.stacks[1]->register_client(2, [&](const RbId& id, net::ProcessId, const net::PayloadPtr&) {
    seen_id = id;
    f.stacks[1]->release(id);
  });
  f.stacks[0]->register_client(2, [](const RbId&, net::ProcessId, const net::PayloadPtr&) {});
  f.stacks[2]->register_client(2, [](const RbId&, net::ProcessId, const net::PayloadPtr&) {});
  f.stacks[0]->broadcast(2, f.sys.arena().make<Body>(9));
  f.sys.scheduler().run();
  EXPECT_EQ(f.stacks[1]->retained(), 0u);
  f.sys.crash(0);
  f.sys.scheduler().run();
  EXPECT_EQ(f.stacks[1]->relays(), 0u);
  EXPECT_EQ(f.stacks[2]->relays(), 1u);  // did not release, so it relays
}

RB_TEST_BOTH_MODES(GroupBroadcastReachesGroupOnly) {
  Fixture f(4, {}, cfg);
  f.stacks[0]->broadcast_group(kTag, {0, 1, 2}, f.sys.arena().make<Body>(1));
  f.sys.scheduler().run();
  EXPECT_EQ(f.deliveries[0].size(), 1u);
  EXPECT_EQ(f.deliveries[1].size(), 1u);
  EXPECT_EQ(f.deliveries[2].size(), 1u);
  EXPECT_TRUE(f.deliveries[3].empty());
  expect_no_retention(f, cfg);
}

TEST(Rbcast, DistinctClientTagsAreIsolated) {
  Fixture f(2);
  std::vector<int> tag2;
  f.stacks[0]->register_client(2, [](const RbId&, net::ProcessId, const net::PayloadPtr&) {});
  f.stacks[1]->register_client(2, [&](const RbId&, net::ProcessId, const net::PayloadPtr& p) {
    tag2.push_back(net::payload_cast<Body>(p)->value);
  });
  f.stacks[0]->broadcast(2, f.sys.arena().make<Body>(77));
  f.sys.scheduler().run();
  EXPECT_EQ(tag2, (std::vector<int>{77}));
  EXPECT_TRUE(f.deliveries[1].empty());  // kTag client saw nothing
}

TEST(Rbcast, DuplicateClientTagRejected) {
  Fixture f(2);
  EXPECT_THROW(f.stacks[0]->register_client(
                   kTag, [](const RbId&, net::ProcessId, const net::PayloadPtr&) {}),
               std::logic_error);
}

TEST(Rbcast, RetainedCountTracksLifecycle) {
  Fixture f(2);
  EXPECT_EQ(f.stacks[1]->retained(), 0u);
  f.stacks[0]->broadcast(kTag, f.sys.arena().make<Body>(1));
  f.sys.scheduler().run();
  EXPECT_EQ(f.stacks[1]->retained(), 1u);
}

RB_TEST_BOTH_MODES(CrashedReceiverDoesNotDeliver) {
  Fixture f(3, {}, cfg);
  f.sys.crash(2);
  f.stacks[0]->broadcast(kTag, f.sys.arena().make<Body>(4));
  f.sys.scheduler().run();
  EXPECT_TRUE(f.deliveries[2].empty());
  EXPECT_EQ(f.deliveries[1].size(), 1u);
  EXPECT_EQ(f.deliveries[0].size(), 1u);
  expect_no_retention(f, cfg);
}

RB_TEST_BOTH_MODES(ManyOriginsInterleaved) {
  Fixture f(3, {}, cfg);
  for (int round = 0; round < 10; ++round)
    for (int p = 0; p < 3; ++p)
      f.stacks[static_cast<std::size_t>(p)]->broadcast(kTag, f.sys.arena().make<Body>(round));
  f.sys.scheduler().run();
  for (int p = 0; p < 3; ++p) EXPECT_EQ(f.deliveries[static_cast<std::size_t>(p)].size(), 30u);
  expect_no_retention(f, cfg);
}

}  // namespace
}  // namespace fdgm::rbcast
