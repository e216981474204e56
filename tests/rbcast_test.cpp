// Tests of the reliable broadcast layer: one multicast per broadcast
// (also while the origin is wrongly suspected), local delivery first, no
// second delivery at the origin, delivery once everywhere, and the
// argument that replaces relays on suspicion: under loss the transport
// keeps repairing a multicast after its origin crashed, so every correct
// destination still delivers it exactly once.  The delivery tests run
// twice: Rbcast.* as is, RbcastRelayOff.* under a failure detector that
// keeps wrongly suspecting every process, where the layer must deliver
// the same and still send one multicast per broadcast.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "fd/qos_model.hpp"
#include "net/system.hpp"
#include "rbcast/reliable_broadcast.hpp"
#include "transport/transport.hpp"

namespace fdgm::rbcast {
namespace {

class Body final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kApplication;
  static constexpr std::uint8_t kKind = 33;
  Body(net::ProcessId origin, int v) : Payload(kProto, kKind), origin(origin), value(v) {}
  net::ProcessId origin;
  int value;
};

/// Logs every R-delivery of one process as (origin, value).
class LogSink final : public Sink {
 public:
  void on_rdeliver(net::PayloadPtr p) override {
    const Body* b = net::payload_cast<Body>(p);
    log.emplace_back(b != nullptr ? b->origin : -1, b != nullptr ? b->value : -1);
  }
  std::vector<std::pair<net::ProcessId, int>> log;
};

/// Counts the suspicion edges one failure detector raises against p.
class SuspicionCounter final : public fd::SuspicionListener {
 public:
  explicit SuspicionCounter(net::ProcessId p) : p_(p) {}
  void on_suspect(net::ProcessId p) override { count += p == p_ ? 1 : 0; }
  int count = 0;

 private:
  net::ProcessId p_;
};

struct Fixture {
  explicit Fixture(int n, std::uint64_t seed = 1, transport::Config tp = {})
      : sys(n, {}, seed, tp), sinks(static_cast<std::size_t>(n)) {
    for (int i = 0; i < n; ++i) {
      LogSink& sink = sinks[static_cast<std::size_t>(i)];
      stacks.push_back(std::make_unique<ReliableBroadcast>(sys, i, sink));
    }
  }

  void broadcast(net::ProcessId from, int v) {
    stacks[static_cast<std::size_t>(from)]->broadcast(sys.arena().make<Body>(from, v));
    ++multicasts;
  }

  /// R-deliveries at process p, in order.
  [[nodiscard]] const std::vector<std::pair<net::ProcessId, int>>& deliveries(
      net::ProcessId p) const {
    return sinks[static_cast<std::size_t>(p)].log;
  }

  /// Starts a failure detector whose modules keep wrongly suspecting
  /// every process (call before any broadcast).
  void suspect_everyone() {
    fd::QosParams qp;
    qp.wrong_suspicions = true;
    qp.mistake_recurrence = 50.0;
    qp.mistake_duration = 1.0;
    fd = std::make_unique<fd::QosFailureDetectorModel>(sys, qp);
    fd->at(1).add_listener(&p0_at_p1);
    fd->start();
  }

  /// Runs to quiescence, or for 5 s while suspicions keep renewing.
  void run() {
    if (fd == nullptr) {
      sys.scheduler().run();
    } else {
      sys.scheduler().run_until(sys.scheduler().now() + 5000.0);
    }
  }

  /// Under suspect_everyone(): the origin was suspected many times, and
  /// no suspicion cost a wire slot.
  void expect_no_relays() {
    if (fd == nullptr) return;
    EXPECT_GE(p0_at_p1.count, 20);
    EXPECT_EQ(sys.network().network_uses(), multicasts);
  }

  net::System sys;
  SuspicionCounter p0_at_p1{0};
  std::unique_ptr<fd::QosFailureDetectorModel> fd;
  std::uint64_t multicasts = 0;
  std::vector<LogSink> sinks;  // sized once: the stacks keep references
  std::vector<std::unique_ptr<ReliableBroadcast>> stacks;
};

// Defines Rbcast.Name and RbcastRelayOff.Name over one body, which
// receives whether to run under Fixture::suspect_everyone().
#define RB_TEST_BOTH_MODES(Name)                     \
  void Name##Body(bool suspecting);                  \
  TEST(Rbcast, Name) { Name##Body(false); }          \
  TEST(RbcastRelayOff, Name) { Name##Body(true); }   \
  void Name##Body(bool suspecting)

RB_TEST_BOTH_MODES(EveryoneDeliversOnce) {
  Fixture f(4);
  if (suspecting) f.suspect_everyone();
  f.broadcast(0, 7);
  f.run();
  for (int p = 0; p < 4; ++p) {
    ASSERT_EQ(f.deliveries(p).size(), 1u) << p;
    EXPECT_EQ(f.deliveries(p)[0], std::make_pair(0, 7));
  }
  f.expect_no_relays();
}

TEST(Rbcast, FailureFreeCostsOneWireSlot) {
  Fixture f(5);
  f.broadcast(2, 1);
  f.sys.scheduler().run();
  EXPECT_EQ(f.sys.network().network_uses(), 1u);
}

TEST(Rbcast, WronglySuspectedOriginCostsOneWireSlot) {
  // Suspecting the origin sends nothing: the layer does not relay.
  Fixture f(3);
  f.suspect_everyone();
  f.broadcast(0, 3);
  f.run();
  EXPECT_EQ(f.sys.network().network_uses(), 1u);
  for (int p = 0; p < 3; ++p) EXPECT_EQ(f.deliveries(p).size(), 1u);
  f.expect_no_relays();
}

RB_TEST_BOTH_MODES(SenderDeliversLocallyImmediately) {
  Fixture f(3);
  if (suspecting) f.suspect_everyone();
  f.broadcast(0, 5);
  // Before running the scheduler at all: local delivery already happened.
  EXPECT_EQ(f.deliveries(0).size(), 1u);
  f.run();
  EXPECT_EQ(f.deliveries(0).size(), 1u);  // no second delivery at the origin
  f.expect_no_relays();
}

RB_TEST_BOTH_MODES(OrderPreservedPerOrigin) {
  Fixture f(3);
  if (suspecting) f.suspect_everyone();
  for (int i = 0; i < 5; ++i) f.broadcast(0, i);
  f.run();
  for (int p = 0; p < 3; ++p) {
    ASSERT_EQ(f.deliveries(p).size(), 5u);
    for (int i = 0; i < 5; ++i)
      EXPECT_EQ(f.deliveries(p)[static_cast<std::size_t>(i)].second, i);
  }
  f.expect_no_relays();
}

RB_TEST_BOTH_MODES(CrashedReceiverDoesNotDeliver) {
  Fixture f(3);
  if (suspecting) f.suspect_everyone();
  f.sys.crash(2);
  f.broadcast(0, 4);
  f.run();
  EXPECT_TRUE(f.deliveries(2).empty());
  EXPECT_EQ(f.deliveries(1).size(), 1u);
  EXPECT_EQ(f.deliveries(0).size(), 1u);
  f.expect_no_relays();
}

RB_TEST_BOTH_MODES(ManyOriginsInterleaved) {
  Fixture f(3);
  if (suspecting) f.suspect_everyone();
  for (int round = 0; round < 10; ++round)
    for (int p = 0; p < 3; ++p) f.broadcast(p, round);
  f.run();
  for (int p = 0; p < 3; ++p) EXPECT_EQ(f.deliveries(p).size(), 30u);
  f.expect_no_relays();
}

TEST(Rbcast, LossyMulticastReachesEveryoneAfterOriginCrash) {
  // Half the frames are lost, and the origin crashes 3 ms after its one
  // multicast, before any retransmission timer fired.  The transport
  // lives below the crash line, so it keeps repairing the multicast, and
  // no receiver needs a relay to deliver it.
  std::uint64_t retx_after_crash = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Fixture f(5, seed, transport::Config{.enabled = true});
    sim::Rng loss_rng(seed);
    f.sys.network().set_loss(0.5, &loss_rng);
    f.broadcast(0, 9);
    f.sys.scheduler().run_until(3.0);
    f.sys.crash(0);
    const std::uint64_t retx_at_crash = f.sys.transport()->stats().retransmits;
    EXPECT_EQ(retx_at_crash, 0u);
    f.sys.scheduler().run_until(203.0);
    f.sys.network().clear_loss();
    f.sys.scheduler().run_until(5000.0);
    for (int p = 1; p < 5; ++p) {
      ASSERT_EQ(f.deliveries(p).size(), 1u)
          << "seed " << seed << " p" << p;
      EXPECT_EQ(f.deliveries(p)[0], std::make_pair(0, 9));
    }
    retx_after_crash += f.sys.transport()->stats().retransmits - retx_at_crash;
  }
  EXPECT_GT(retx_after_crash, 0u);
}

}  // namespace
}  // namespace fdgm::rbcast
