// Reproduces Figure 1 of the paper: the message exchange of a single
// A-broadcast under both algorithms, with neither crashes nor suspicions.
// The two algorithms generate the same pattern:
//     m (multicast) ; proposal/seqnum (multicast) ; acks (unicasts) ;
//     decision/deliver (multicast)
// This example prints every network delivery with its timestamp so the
// pattern (and its equality across the algorithms) is visible.
#include <cstdio>
#include <memory>
#include <vector>

#include "abcast/fd_abcast.hpp"
#include "abcast/gm_abcast.hpp"
#include "fd/qos_model.hpp"
#include "net/system.hpp"

using namespace fdgm;

namespace {

/// Prints every local A-delivery with its latency.
struct DeliveryPrinter final : abcast::DeliverSink {
  net::System* sys = nullptr;
  net::ProcessId id = 0;
  void on_deliver(const abcast::AppMessage& msg) override {
    std::printf("  t=%5.1f ms   A-deliver(m) at p%d  (latency %.1f ms)\n", sys->now(), id,
                sys->now() - msg.sent_at);
  }
};

template <typename Proc>
void trace(const char* name) {
  std::printf("--- %s algorithm: A-broadcast(m) at p1, n = 3, lambda = 1 ---\n", name);
  net::System sys(3, {}, 1);
  fd::QosFailureDetectorModel fdm(sys, {});
  std::vector<std::unique_ptr<Proc>> procs;
  for (int i = 0; i < 3; ++i) procs.push_back(std::make_unique<Proc>(sys, i, fdm.at(i)));
  fdm.start();

  sys.network().set_delivery_tap([&](const net::Message& m, net::ProcessId dst) {
    const char* proto = "?";
    switch (m.proto) {
      case net::ProtocolId::kReliableBroadcast:
        proto = "rbcast";
        break;
      case net::ProtocolId::kConsensus:
        proto = "consensus";
        break;
      case net::ProtocolId::kAtomicBroadcast:
        proto = "abcast";
        break;
      default:
        break;
    }
    std::printf("  t=%5.1f ms   p%d -> p%d   [%s]\n", sys.now(), m.src, dst, proto);
  });

  std::vector<DeliveryPrinter> printers(procs.size());
  for (std::size_t i = 0; i < procs.size(); ++i) {
    printers[i].sys = &sys;
    printers[i].id = procs[i]->id();
    procs[i]->set_deliver_sink(&printers[i]);
  }

  procs[1]->a_broadcast();
  sys.scheduler().run();
  std::printf("  wire slots used: %llu\n\n",
              static_cast<unsigned long long>(sys.network().network_uses()));
}

}  // namespace

int main() {
  std::printf("Figure 1 trace: example run of the two atomic broadcast algorithms\n\n");
  trace<abcast::FdAbcastProcess>("FD (Chandra-Toueg)");
  trace<abcast::GmAbcastProcess>("GM (fixed sequencer)");
  return 0;
}
