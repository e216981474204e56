// Tests of the FD stack's reliable broadcast (FdAbcastProcess R-delivers
// its own data): one kReliableBroadcast multicast per broadcast (also
// while the origin is wrongly suspected), local R-delivery first,
// A-delivery once everywhere, and the argument that replaces relays on
// suspicion: under loss the transport keeps repairing a multicast after
// its origin crashed, so every correct destination still delivers it
// exactly once.  The delivery tests run twice: Rbcast.* as is,
// RbcastRelayOff.* under a failure detector that keeps wrongly suspecting
// every process, where the stack must deliver the same and still send one
// multicast per broadcast.
//
// R-delivery is observed through the network's delivery tap (the
// kReliableBroadcast frames: consensus runs on its own protocol), the
// sender's pending messages before the scheduler runs, and the
// A-delivery logs.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "abcast/fd_abcast.hpp"
#include "fd/qos_model.hpp"
#include "net/system.hpp"
#include "sim/rng.hpp"
#include "transport/transport.hpp"

namespace fdgm::abcast {
namespace {

/// Counts the suspicion edges one failure detector raises against p.
class SuspicionCounter final : public fd::SuspicionListener {
 public:
  explicit SuspicionCounter(net::ProcessId p) : p_(p) {}
  void on_suspect(net::ProcessId p) override { count += p == p_ ? 1 : 0; }
  int count = 0;

 private:
  net::ProcessId p_;
};

/// Failure detector parameters under which every module keeps wrongly
/// suspecting every process.
fd::QosParams suspecting_everyone() {
  fd::QosParams qp;
  qp.wrong_suspicions = true;
  qp.mistake_recurrence = 50.0;
  qp.mistake_duration = 1.0;
  return qp;
}

struct Fixture {
  explicit Fixture(int n, bool suspect_all = false, std::uint64_t seed = 1,
                   transport::Config tp = {}, fd::QosParams qp = {})
      : suspecting(suspect_all),
        sys(n, {}, seed, tp),
        fd(sys, suspect_all ? suspecting_everyone() : qp) {
    for (int i = 0; i < n; ++i)
      procs.push_back(std::make_unique<FdAbcastProcess>(sys, i, fd.at(i)));
    sys.network().set_delivery_tap([this](const net::Message& m, net::ProcessId) {
      if (m.proto == net::ProtocolId::kReliableBroadcast) ++rb_frames;
    });
    if (suspecting) fd.at(1).add_listener(&p0_at_p1);
    fd.start();
  }

  MsgId broadcast(net::ProcessId from) {
    ++broadcasts;
    return procs[static_cast<std::size_t>(from)]->a_broadcast();
  }

  /// A-deliveries at process p, in order.
  [[nodiscard]] std::vector<MsgId> deliveries(net::ProcessId p) const {
    std::vector<MsgId> ids;
    for (AppMessagePtr m : procs[static_cast<std::size_t>(p)]->log()) ids.push_back(m->id);
    return ids;
  }

  /// Runs to quiescence, or for 5 s while suspicions keep renewing.
  void run() {
    if (suspecting)
      sys.scheduler().run_until(sys.scheduler().now() + 5000.0);
    else
      sys.scheduler().run();
  }

  /// One multicast per broadcast: n-1 frames each, no relay.  While
  /// suspecting, the origin was also suspected many times.
  void expect_no_relays() {
    EXPECT_EQ(rb_frames, broadcasts * static_cast<std::uint64_t>(sys.n() - 1));
    if (suspecting) {
      EXPECT_GE(p0_at_p1.count, 20);
    }
  }

  bool suspecting;  // under suspecting_everyone()
  net::System sys;
  fd::QosFailureDetectorModel fd;
  SuspicionCounter p0_at_p1{0};
  std::vector<std::unique_ptr<FdAbcastProcess>> procs;
  std::uint64_t rb_frames = 0;
  std::uint64_t broadcasts = 0;
};

// Defines Rbcast.Name and RbcastRelayOff.Name over one body, which
// receives whether to run under a failure detector suspecting everyone.
#define RB_TEST_BOTH_MODES(Name)                     \
  void Name##Body(bool suspecting);                  \
  TEST(Rbcast, Name) { Name##Body(false); }          \
  TEST(RbcastRelayOff, Name) { Name##Body(true); }   \
  void Name##Body(bool suspecting)

RB_TEST_BOTH_MODES(EveryoneDeliversOnce) {
  Fixture f(4, suspecting);
  const MsgId id = f.broadcast(0);
  f.run();
  for (int p = 0; p < 4; ++p) EXPECT_EQ(f.deliveries(p), std::vector<MsgId>{id}) << p;
  f.expect_no_relays();
}

TEST(Rbcast, FailureFreeCostsOneWireSlot) {
  Fixture f(5);
  f.broadcast(2);
  f.sys.scheduler().run();
  EXPECT_EQ(f.rb_frames, 4u);
}

TEST(Rbcast, WronglySuspectedOriginCostsOneWireSlot) {
  // Suspecting the origin sends nothing: the stack does not relay.
  Fixture f(3, /*suspecting=*/true);
  f.broadcast(0);
  f.run();
  EXPECT_EQ(f.rb_frames, 2u);
  for (int p = 0; p < 3; ++p) EXPECT_EQ(f.deliveries(p).size(), 1u);
  f.expect_no_relays();
}

RB_TEST_BOTH_MODES(SenderDeliversLocallyImmediately) {
  Fixture f(3, suspecting);
  const MsgId id = f.broadcast(0);
  // Before running the scheduler at all: the sender R-delivered the
  // message, nobody else did, and no frame arrived yet.
  EXPECT_EQ(f.procs[0]->data_plane_dbg().pending, 1u);
  for (int p = 1; p < 3; ++p)
    EXPECT_EQ(f.procs[static_cast<std::size_t>(p)]->data_plane_dbg().pending, 0u) << p;
  EXPECT_EQ(f.rb_frames, 0u);
  f.run();
  EXPECT_EQ(f.deliveries(0), std::vector<MsgId>{id});  // once at the origin
  f.expect_no_relays();
}

RB_TEST_BOTH_MODES(OrderPreservedPerOrigin) {
  Fixture f(3, suspecting);
  std::vector<MsgId> sent;
  for (int i = 0; i < 5; ++i) sent.push_back(f.broadcast(0));
  f.run();
  for (int p = 0; p < 3; ++p) EXPECT_EQ(f.deliveries(p), sent) << p;
  f.expect_no_relays();
}

RB_TEST_BOTH_MODES(CrashedReceiverDoesNotDeliver) {
  Fixture f(3, suspecting);
  f.sys.crash(2);
  const MsgId id = f.broadcast(0);
  f.run();
  EXPECT_TRUE(f.deliveries(2).empty());
  EXPECT_EQ(f.deliveries(1), std::vector<MsgId>{id});
  EXPECT_EQ(f.deliveries(0), std::vector<MsgId>{id});
  f.expect_no_relays();
}

RB_TEST_BOTH_MODES(ManyOriginsInterleaved) {
  Fixture f(3, suspecting);
  for (int round = 0; round < 10; ++round)
    for (int p = 0; p < 3; ++p) f.broadcast(p);
  f.run();
  for (int p = 0; p < 3; ++p) EXPECT_EQ(f.deliveries(p).size(), 30u);
  // Every process delivers the same sequence.
  for (int p = 1; p < 3; ++p) EXPECT_EQ(f.deliveries(p), f.deliveries(0)) << p;
  f.expect_no_relays();
}

TEST(Rbcast, LossyMulticastReachesEveryoneAfterOriginCrash) {
  // Half the frames are lost, and the origin crashes 3 ms after its one
  // multicast, before any retransmission timer fired.  The transport
  // lives below the crash line, so it keeps repairing the multicast, and
  // no receiver needs a relay to deliver it; the survivors order it once
  // they suspect the crashed round-1 coordinator.
  fd::QosParams qp;
  qp.detection_time = 30.0;
  std::uint64_t retx_after_crash = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Fixture f(5, /*suspecting=*/false, seed, transport::Config{.enabled = true}, qp);
    sim::Rng loss_rng(seed);
    f.sys.network().set_loss(0.5, &loss_rng);
    const MsgId id = f.broadcast(0);
    f.sys.scheduler().run_until(3.0);
    f.sys.crash(0);
    const std::uint64_t retx_at_crash = f.sys.transport()->stats().retransmits;
    EXPECT_EQ(retx_at_crash, 0u);
    f.sys.scheduler().run_until(203.0);
    f.sys.network().clear_loss();
    f.sys.scheduler().run_until(5000.0);
    for (int p = 1; p < 5; ++p)
      EXPECT_EQ(f.deliveries(p), std::vector<MsgId>{id}) << "seed " << seed << " p" << p;
    retx_after_crash += f.sys.transport()->stats().retransmits - retx_at_crash;
  }
  EXPECT_GT(retx_after_crash, 0u);
}

}  // namespace
}  // namespace fdgm::abcast
