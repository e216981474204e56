// The paper's Fig. 1 claim: in a failure-free run the FD and GM
// algorithms put the same messages on the network.  One A-broadcast at
// p1, n = 3, λ = 1: m (multicast), the proposal / SEQNUM (multicast), two
// acks (unicasts) and the decision / DELIVER (multicast) — eight frames
// in five wire slots on both stacks, with the same timestamps, sources
// and destinations, and the same A-delivery instants.
#include <gtest/gtest.h>

#include <compare>
#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "abcast/fd_abcast.hpp"
#include "abcast/gm_abcast.hpp"
#include "fd/qos_model.hpp"
#include "net/system.hpp"

namespace fdgm::abcast {
namespace {

/// One network delivery, or one A-delivery: (time, src, dst) with
/// src == dst for an A-delivery at that process.
struct Event {
  double t;
  net::ProcessId src;
  net::ProcessId dst;
  friend auto operator<=>(const Event&, const Event&) = default;
  friend void PrintTo(const Event& e, std::ostream* os) {
    *os << "(t=" << e.t << ", p" << e.src << " -> p" << e.dst << ")";
  }
};

struct Trace {
  std::vector<Event> frames;
  std::vector<Event> deliveries;
  std::uint64_t wire_slots = 0;
};

/// Records every local A-delivery of one process.
class DeliveryLog final : public DeliverSink {
 public:
  DeliveryLog(net::System& sys, net::ProcessId self, std::vector<Event>& out)
      : sys_(&sys), self_(self), out_(&out) {}
  void on_deliver(const AppMessage&) override { out_->push_back({sys_->now(), self_, self_}); }

 private:
  net::System* sys_;
  net::ProcessId self_;
  std::vector<Event>* out_;
};

template <typename Proc>
Trace trace_one_broadcast() {
  Trace tr;
  net::System sys(3, net::NetworkConfig{1.0}, 1);
  fd::QosFailureDetectorModel fdm(sys, {});
  std::vector<std::unique_ptr<Proc>> procs;
  std::vector<std::unique_ptr<DeliveryLog>> logs;
  for (int i = 0; i < 3; ++i) {
    procs.push_back(std::make_unique<Proc>(sys, i, fdm.at(i)));
    logs.push_back(std::make_unique<DeliveryLog>(sys, i, tr.deliveries));
    procs.back()->set_deliver_sink(logs.back().get());
  }
  fdm.start();
  sys.network().set_delivery_tap([&](const net::Message& m, net::ProcessId dst) {
    tr.frames.push_back({sys.now(), m.src, dst});
  });
  procs[1]->a_broadcast();
  sys.scheduler().run();
  tr.wire_slots = sys.network().network_uses();
  return tr;
}

TEST(Fig1, FdAndGmPutTheSameFramesOnTheNetwork) {
  const Trace fd = trace_one_broadcast<FdAbcastProcess>();
  const Trace gm = trace_one_broadcast<GmAbcastProcess>();
  // m, the proposal / SEQNUM, two acks, the decision / DELIVER.
  const std::vector<Event> frames = {
      {3.0, 1, 0},
      {3.0, 1, 2},
      {6.0, 0, 1},
      {6.0, 0, 2},
      {9.0, 1, 0},
      {10.0, 2, 0},
      {13.0, 0, 1},
      {13.0, 0, 2},
  };
  EXPECT_EQ(fd.frames, frames);
  EXPECT_EQ(gm.frames, fd.frames);
  EXPECT_EQ(fd.wire_slots, 5u);
  EXPECT_EQ(gm.wire_slots, 5u);
  const std::vector<Event> deliveries = {{9.0, 0, 0}, {13.0, 1, 1}, {13.0, 2, 2}};
  EXPECT_EQ(fd.deliveries, deliveries);
  EXPECT_EQ(gm.deliveries, fd.deliveries);
}

}  // namespace
}  // namespace fdgm::abcast
