// Gray-failure fault model tests: grammar round-trips and diagnostics for
// the four gray kinds (limp / flap / drift / corrupt), a parser fuzz loop,
// per-kind unit semantics (CPU stretch, deterministic link flapping, clock
// skew in the QoS detector, checksum-detected corruption with and without
// the retransmission transport), exact neutrality of factor-1 windows, and
// bit-identity of gray-faulted runs however they are driven (one
// run_until call, 1 ms slices, concurrent replica workers) and across
// replica job counts.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/parallel.hpp"
#include "core/runner.hpp"
#include "fault/fault_schedule.hpp"
#include "fault/injector.hpp"
#include "net/system.hpp"
#include "obs/observer.hpp"
#include "transport/transport.hpp"

namespace fdgm {
namespace {

using fault::FaultKind;
using fault::FaultSchedule;

// ------------------------------------------------------------- grammar

TEST(GrayGrammar, ParsesTheFourKinds) {
  const FaultSchedule s = FaultSchedule::parse(
      "limp p3 x4 @1000 for 2000; flap p0->p2 period 40 duty 0.5 @1000 for 2000; "
      "drift p1 x0.8 @1000 for 2000; corrupt 0.01 @1000 for 2000");
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.events()[0].kind, FaultKind::kLimp);
  EXPECT_EQ(s.events()[0].process, 3);
  EXPECT_DOUBLE_EQ(s.events()[0].factor, 4.0);
  EXPECT_DOUBLE_EQ(s.events()[0].until, 3000.0);
  EXPECT_EQ(s.events()[1].kind, FaultKind::kFlap);
  EXPECT_EQ(s.events()[1].groups,
            (std::vector<std::vector<net::ProcessId>>{{0}, {2}}));
  EXPECT_DOUBLE_EQ(s.events()[1].period, 40.0);
  EXPECT_DOUBLE_EQ(s.events()[1].duty, 0.5);
  EXPECT_EQ(s.events()[2].kind, FaultKind::kDrift);
  EXPECT_DOUBLE_EQ(s.events()[2].factor, 0.8);
  EXPECT_EQ(s.events()[3].kind, FaultKind::kCorrupt);
  EXPECT_DOUBLE_EQ(s.events()[3].rate, 0.01);
  EXPECT_TRUE(s.events()[3].groups.empty());
}

TEST(GrayGrammar, RoundTripsThroughToString) {
  const char* specs[] = {
      "limp p3 x4 @1000 for 2000",
      "limp p0 x1.5 @0.25 for 1e6",
      "drift p1 x0.8 @1000 for 2000",
      "flap p0->p2 period 40 duty 0.5 @1000 for 2000",
      "flap p0,p1->p2,p3 period 12.5 duty 0.125 @500 for 250",
      "corrupt 0.01 @1000 for 2000",
      "corrupt 0.05 p0,p1->p2 @1000 for 2000",
      "limp p0 x2 @100 for 50; corrupt 1 @200 for 10; drift p2 x0.5 @300 for 5",
  };
  for (const char* spec : specs) {
    const FaultSchedule parsed = FaultSchedule::parse(spec);
    EXPECT_EQ(FaultSchedule::parse(parsed.to_string()), parsed) << spec;
  }
}

TEST(GrayGrammar, RejectsMalformedInput) {
  EXPECT_THROW(FaultSchedule::parse("limp p0 4 @0 for 10"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("limp p0 x0 @0 for 10"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("limp p0 x-3 @0 for 10"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("limp x4 @0 for 10"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("drift p0 x4 @0"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("flap p0->p1 period 0 duty 0.5 @0 for 10"),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("flap p0->p1 period 40 duty 1.5 @0 for 10"),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("flap p0,p1 period 40 duty 0.5 @0 for 10"),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("corrupt 1.5 @0 for 10"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("corrupt 0.5 p0p1 @0 for 10"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("corrupt 0.5 @0 for -10"), std::invalid_argument);
  EXPECT_THROW(FaultSchedule::parse("limp p0 xnan @0 for 10"), std::invalid_argument);
}

TEST(GrayGrammar, DiagnosticsCarryTokenAndOffset) {
  try {
    (void)FaultSchedule::parse("limp p0 4 @0 for 10");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("at token '4'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(offset 8)"), std::string::npos) << msg;
  }
  // Offsets are absolute in the full schedule string, not per-event.
  try {
    (void)FaultSchedule::parse("crash p0 @5; limp p1 y4 @0 for 5");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("at token 'y4'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(offset 21)"), std::string::npos) << msg;
  }
}

// Garbage in, exception (or a parse) out — never a crash, never a hang.
// Seeded mt19937: the corpus is identical on every run.
TEST(GrayGrammar, FuzzedInputNeverCrashes) {
  std::mt19937 rng(20260808);
  const std::string pool =
      "limp flap drift corrupt crash recover partition apartition loss delay storm "
      "p0123456789 xX@.,;->{}| for period duty heal einf-+\t ";
  const char* seeds[] = {
      "limp p3 x4 @1000 for 2000",
      "flap p0->p2 period 40 duty 0.5 @1000 for 2000",
      "drift p1 x0.8 @1000 for 2000",
      "corrupt 0.05 p0,p1->p2 @1000 for 2000",
      "partition {0,1|2} @1000 heal @3000",
  };
  auto try_parse = [](const std::string& text) {
    try {
      const FaultSchedule s = FaultSchedule::parse(text);
      (void)s.to_string();
    } catch (const std::invalid_argument&) {
      // expected for most inputs
    }
  };
  for (int i = 0; i < 2000; ++i) {
    // Pure noise.
    std::string noise;
    const std::size_t len = rng() % 64;
    for (std::size_t j = 0; j < len; ++j) noise += pool[rng() % pool.size()];
    try_parse(noise);
    // A valid spec with a random splice of noise (truncations, overwrites,
    // insertions) — closer to real typos than uniform noise.
    std::string mutated = seeds[rng() % std::size(seeds)];
    const std::size_t at = rng() % (mutated.size() + 1);
    const std::size_t cut = rng() % 8;
    mutated.erase(at, cut);
    std::string splice;
    for (std::size_t j = 0, m = rng() % 8; j < m; ++j) splice += pool[rng() % pool.size()];
    mutated.insert(std::min(at, mutated.size()), splice);
    try_parse(mutated);
  }
}

// --------------------------------------------------------- limp (unit)

/// Counts deliveries per node (same shape as fault_test's fixture).
class Counter final : public net::Layer {
 public:
  void on_message(const net::Message&) override { ++count; }
  int count = 0;
};

struct NetFixture {
  explicit NetFixture(int n, transport::Config tp = {}) : sys(n, net::NetworkConfig{1.0}, 1, tp) {
    for (int i = 0; i < n; ++i) {
      counters.push_back(std::make_unique<Counter>());
      sys.node(i).register_handler(net::ProtocolId::kApplication, counters.back().get());
    }
  }
  net::PayloadPtr payload() { return sys.arena().make<net::BlankPayload>(); }

  net::System sys;
  std::vector<std::unique_ptr<Counter>> counters;
};

TEST(GrayLimp, StretchesOnlyTheLimpingNodesCpuStages) {
  {
    NetFixture f(2);  // baseline: lambda + wire + lambda = 3 ms
    f.sys.node(0).send(1, net::ProtocolId::kApplication, f.payload());
    f.sys.scheduler().run();
    EXPECT_DOUBLE_EQ(f.sys.now(), 3.0);
  }
  {
    NetFixture f(2);  // receiver limps: 1 + 1 + 4
    f.sys.network().set_cpu_limp(1, 4.0);
    f.sys.node(0).send(1, net::ProtocolId::kApplication, f.payload());
    f.sys.scheduler().run();
    EXPECT_DOUBLE_EQ(f.sys.now(), 6.0);
    EXPECT_EQ(f.counters[1]->count, 1);
  }
  {
    NetFixture f(2);  // sender limps: 4 + 1 + 1
    f.sys.network().set_cpu_limp(0, 4.0);
    f.sys.node(0).send(1, net::ProtocolId::kApplication, f.payload());
    f.sys.scheduler().run();
    EXPECT_DOUBLE_EQ(f.sys.now(), 6.0);
  }
  NetFixture bad(2);
  EXPECT_THROW(bad.sys.network().set_cpu_limp(0, 0.0), std::invalid_argument);
  EXPECT_THROW(bad.sys.network().set_cpu_limp(0, -1.0), std::invalid_argument);
}

TEST(GrayLimp, InjectorArmsAndResetsTheWindow) {
  core::SimConfig cfg;
  cfg.n = 3;
  cfg.faults = FaultSchedule::parse("limp p1 x4 @100 for 200");
  core::SimRun run(cfg, core::WorkloadConfig{.throughput = 10.0});
  run.start();
  run.run_until(150.0);
  EXPECT_DOUBLE_EQ(run.system().network().cpu_limp(1), 4.0);
  EXPECT_DOUBLE_EQ(run.fd_model().limp_factor(1), 4.0);
  EXPECT_DOUBLE_EQ(run.system().network().cpu_limp(0), 1.0);
  run.run_until(400.0);
  EXPECT_DOUBLE_EQ(run.system().network().cpu_limp(1), 1.0);
  EXPECT_DOUBLE_EQ(run.fd_model().limp_factor(1), 1.0);
}

// --------------------------------------------------------- flap (unit)

TEST(GrayFlap, DownHoldsUpReleasesAndCountersNest) {
  NetFixture f(3);
  f.sys.network().set_flap_down({0}, {1});
  EXPECT_TRUE(f.sys.network().flap_blocked(0, 1));
  EXPECT_FALSE(f.sys.network().flap_blocked(1, 0));  // directed
  f.sys.node(0).send(1, net::ProtocolId::kApplication, f.payload());  // held
  f.sys.node(1).send(0, net::ProtocolId::kApplication, f.payload());  // flows
  f.sys.node(0).send(2, net::ProtocolId::kApplication, f.payload());  // unrelated
  f.sys.scheduler().run();
  EXPECT_EQ(f.counters[1]->count, 0);
  EXPECT_EQ(f.counters[0]->count, 1);
  EXPECT_EQ(f.counters[2]->count, 1);
  EXPECT_EQ(f.sys.network().held_deliveries(), 1u);

  // Overlapping windows nest: two downs need two ups.
  f.sys.network().set_flap_down({0}, {1});
  f.sys.network().set_flap_up({0}, {1});
  EXPECT_TRUE(f.sys.network().flap_blocked(0, 1));
  f.sys.scheduler().run();
  EXPECT_EQ(f.counters[1]->count, 0);
  f.sys.network().set_flap_up({0}, {1});
  EXPECT_FALSE(f.sys.network().flap_blocked(0, 1));
  f.sys.scheduler().run();
  EXPECT_EQ(f.counters[1]->count, 1);  // released at the final up
}

TEST(GrayFlap, RejectedUpBringsNoLinkUp) {
  // The id check runs before any count changes: a bad id in the `to` set
  // must not bring 0->1 up on the way to the throw.
  NetFixture f(3);
  f.sys.network().set_flap_down({0}, {1});
  EXPECT_THROW(f.sys.network().set_flap_up({0}, {1, 99}), std::out_of_range);
  EXPECT_TRUE(f.sys.network().flap_blocked(0, 1));
  f.sys.network().set_flap_up({0}, {1});
  EXPECT_FALSE(f.sys.network().flap_blocked(0, 1));
}

TEST(GrayFlap, InjectorDrivesTheDeterministicCycle) {
  // Cycle = up phase then down phase: down at 150, up 200, down 250,
  // up 300, down 350, clipped up at 400 — six transitions, window clean.
  core::SimConfig cfg;
  cfg.n = 3;
  cfg.obs.enabled = true;
  cfg.faults = FaultSchedule::parse("flap p0->p1 period 100 duty 0.5 @100 for 300");
  core::SimRun run(cfg, core::WorkloadConfig{.throughput = 10.0});
  run.start();
  run.run_until(120.0);
  EXPECT_FALSE(run.system().network().flap_blocked(0, 1));  // up phase first
  run.run_until(160.0);
  EXPECT_TRUE(run.system().network().flap_blocked(0, 1));
  run.run_until(210.0);
  EXPECT_FALSE(run.system().network().flap_blocked(0, 1));
  run.run_until(260.0);
  EXPECT_TRUE(run.system().network().flap_blocked(0, 1));
  run.run_until(500.0);
  EXPECT_FALSE(run.system().network().flap_blocked(0, 1));  // window never leaves it down
  ASSERT_NE(run.observer(), nullptr);
  EXPECT_EQ(run.observer()->total(obs::Counter::kFlapTransitions), 6u);
}

TEST(GrayFlap, FullDutyIsANoOp) {
  core::SimConfig cfg;
  cfg.n = 2;
  cfg.obs.enabled = true;
  cfg.faults = FaultSchedule::parse("flap p0->p1 period 50 duty 1 @100 for 300");
  core::SimRun run(cfg, core::WorkloadConfig{.throughput = 10.0});
  run.start();
  run.run_until(600.0);
  EXPECT_FALSE(run.system().network().flap_blocked(0, 1));
  EXPECT_EQ(run.observer()->total(obs::Counter::kFlapTransitions), 0u);
}

// -------------------------------------------------------- drift (unit)

TEST(GrayDrift, FastClockDetectsACrashSooner) {
  // TD = 30; p1's clock runs 2x fast, so p1's effective detection delay is
  // 15 ms while p2 still takes 30: after p0's crash at 100, p1 suspects by
  // 120, p2 only by 140.
  core::SimConfig cfg;
  cfg.n = 3;
  cfg.fd_params.detection_time = 30.0;
  cfg.faults = FaultSchedule::parse("drift p1 x2 @0 for 1000; crash p0 @100");
  core::SimRun run(cfg, core::WorkloadConfig{.throughput = 10.0});
  run.start();
  run.run_until(120.0);
  EXPECT_TRUE(run.fd_model().at(1).suspects(0));
  EXPECT_FALSE(run.fd_model().at(2).suspects(0));
  EXPECT_DOUBLE_EQ(run.fd_model().clock_rate(1), 2.0);
  run.run_until(140.0);
  EXPECT_TRUE(run.fd_model().at(2).suspects(0));
  run.run_until(1100.0);
  EXPECT_DOUBLE_EQ(run.fd_model().clock_rate(1), 1.0);  // window reset
}

TEST(GrayDrift, SlowClockDetectsACrashLater) {
  core::SimConfig cfg;
  cfg.n = 3;
  cfg.fd_params.detection_time = 30.0;
  cfg.faults = FaultSchedule::parse("drift p1 x0.5 @0 for 1000; crash p0 @100");
  core::SimRun run(cfg, core::WorkloadConfig{.throughput = 10.0});
  run.start();
  run.run_until(140.0);
  EXPECT_FALSE(run.fd_model().at(1).suspects(0));  // needs 30 / 0.5 = 60 ms
  EXPECT_TRUE(run.fd_model().at(2).suspects(0));
  run.run_until(170.0);
  EXPECT_TRUE(run.fd_model().at(1).suspects(0));
}

// ------------------------------------------------------ corrupt (unit)

TEST(GrayCorrupt, DigestFlipsOnAnyIdentityField) {
  const net::BlankPayload payload;
  net::Message m{0, net::ProtocolId::kApplication, {}, &payload};
  m.frame.seq = 7;
  m.frame.check = net::frame_digest(m);
  EXPECT_TRUE(net::frame_checksum_ok(m));
  net::Message damaged = m;
  damaged.frame.check ^= 0xA5;  // what the corrupt filter does in transit
  EXPECT_FALSE(net::frame_checksum_ok(damaged));
  net::Message other = m;
  other.src = 2;
  EXPECT_NE(net::frame_digest(other), net::frame_digest(m));
  net::Message reseq = m;
  reseq.frame.seq = 8;
  EXPECT_NE(net::frame_digest(reseq), net::frame_digest(m));
  // The mutable header bits are excluded: acks and the retx flag change
  // between stamping and verification.
  net::Message acked = m;
  acked.frame.ack = 99;
  acked.frame.seq |= net::FrameHeader::kRetxBit;
  EXPECT_EQ(net::frame_digest(acked), net::frame_digest(m));
}

TEST(GrayCorrupt, WithoutTransportDetectedFramesAreDroppedAndCounted) {
  NetFixture f(2);
  f.sys.network().enable_checksums();
  sim::Rng rng(9);
  f.sys.network().set_corrupt(1.0, &rng);
  f.sys.node(0).send(1, net::ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  EXPECT_EQ(f.counters[1]->count, 0);  // detected at delivery, dropped
  EXPECT_EQ(f.sys.network().corrupted_deliveries(), 1u);
  EXPECT_EQ(f.sys.network().corruption_detected(), 1u);

  f.sys.network().clear_corrupt();
  f.sys.node(0).send(1, net::ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  EXPECT_EQ(f.counters[1]->count, 1);  // clean frames flow again
  EXPECT_EQ(f.sys.network().corruption_detected(), 1u);
}

TEST(GrayCorrupt, RateZeroWindowDropsNothing) {
  // Any corrupt event arms frame checksums run-wide, a rate-0 one too.
  // It damages no frame, so on either stack no frame may be dropped or
  // counted as corrupt.
  for (core::Algorithm algo : {core::Algorithm::kFd, core::Algorithm::kGm}) {
    core::SimConfig cfg;
    cfg.algorithm = algo;
    cfg.n = 3;
    cfg.transport.enabled = true;
    cfg.obs.enabled = true;
    cfg.faults = FaultSchedule::parse("corrupt 0 @500 for 300");
    core::SimRun run(cfg, core::WorkloadConfig{.throughput = 200.0});
    run.start();
    run.run_until(4000.0);
    const char* name = core::algorithm_name(algo);
    EXPECT_EQ(run.system().network().corrupted_deliveries(), 0u) << name;
    ASSERT_NE(run.system().transport(), nullptr);
    EXPECT_EQ(run.system().transport()->stats().corrupt_dropped, 0u) << name;
    ASSERT_NE(run.observer(), nullptr);
    EXPECT_EQ(run.observer()->total(obs::Counter::kCorruptionDetected), 0u) << name;
  }
}

TEST(GrayCorrupt, RejectsBadRates) {
  NetFixture f(2);
  sim::Rng rng(9);
  EXPECT_THROW(f.sys.network().set_corrupt(1.5, &rng), std::invalid_argument);
  EXPECT_THROW(f.sys.network().set_corrupt(-0.5, &rng), std::invalid_argument);
}

TEST(GrayCorrupt, RejectedWindowKeepsThePreviousOne) {
  // The id check runs before the link matrix is rebuilt: a bad id leaves
  // the previous window, its links and its rate in force.
  NetFixture f(3);
  f.sys.network().enable_checksums();
  sim::Rng rng(9);
  f.sys.network().set_corrupt(1.0, &rng, {{0}, {1}});
  EXPECT_THROW(f.sys.network().set_corrupt(0.5, &rng, {{0}, {99}}), std::out_of_range);
  f.sys.node(0).send(1, net::ProtocolId::kApplication, f.payload());
  f.sys.node(0).send(2, net::ProtocolId::kApplication, f.payload());
  f.sys.scheduler().run();
  EXPECT_EQ(f.counters[1]->count, 0);  // 0->1 still corrupted, at rate 1
  EXPECT_EQ(f.counters[2]->count, 1);  // 0->2 never was
  EXPECT_EQ(f.sys.network().corrupted_deliveries(), 1u);
}

TEST(GrayCorrupt, TransportRecoversEverythingAcrossAFullCorruptionWindow) {
  for (core::Algorithm algo : {core::Algorithm::kFd, core::Algorithm::kGm}) {
    core::SimConfig cfg;
    cfg.algorithm = algo;
    cfg.n = 3;
    cfg.transport.enabled = true;
    cfg.faults = FaultSchedule::parse("corrupt 1 @500 for 300");
    core::SimRun run(cfg, core::WorkloadConfig{.throughput = 200.0});
    run.start();
    run.run_until(4000.0);
    run.workload().stop();
    run.run_until(10000.0);
    EXPECT_EQ(run.recorder().stale_undelivered(run.system().now(), 2000.0), 0u)
        << core::algorithm_name(algo) << ": messages lost to corruption";
    EXPECT_GT(run.system().network().corrupted_deliveries(), 0u);
    ASSERT_NE(run.system().transport(), nullptr);
    EXPECT_GT(run.system().transport()->stats().corrupt_dropped, 0u);
    EXPECT_GT(run.system().transport()->stats().retransmits, 0u);
    // Detection happened in the transport's verify, not at final delivery.
    EXPECT_EQ(run.system().network().corruption_detected(), 0u);
  }
}

// ------------------------------------------------- neutrality & identity

// A factor-1 gray window must be *exactly* neutral on the latency numbers:
// x * 1.0 == x for every service time and timer.  (The injector events
// themselves change the executed-event count, so this is asserted on the
// windowed latency means, not on the delivery hash.)
TEST(GrayDeterminism, FactorOneWindowsAreExactlyNeutral) {
  core::WindowedConfig wc;
  wc.throughput = 100.0;
  wc.t_end = 3000.0;
  wc.windows = {{500.0, 3000.0}};
  wc.replicas = 2;
  for (core::Algorithm algo : {core::Algorithm::kFd, core::Algorithm::kGm}) {
    core::SimConfig plain;
    plain.algorithm = algo;
    plain.n = 3;
    plain.seed = 77;
    plain.fd_params.detection_time = 30.0;
    plain.fd_params.wrong_suspicions = true;
    plain.fd_params.mistake_recurrence = 2000.0;
    plain.fd_params.mistake_duration = 50.0;
    core::SimConfig neutral = plain;
    neutral.faults =
        FaultSchedule::parse("limp p0 x1 @600 for 1000; drift p1 x1 @600 for 1000");
    const core::WindowedResult a = core::run_windowed(plain, wc);
    const core::WindowedResult b = core::run_windowed(neutral, wc);
    ASSERT_TRUE(a.stable);
    ASSERT_TRUE(b.stable);
    EXPECT_EQ(a.windows[0].mean, b.windows[0].mean) << core::algorithm_name(algo);
    EXPECT_EQ(a.windows[0].half_width, b.windows[0].half_width);
  }
}

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

struct HashSink final : abcast::DeliverSink {
  Fnv* f = nullptr;
  core::SimRun* run = nullptr;
  int p = 0;
  void on_deliver(const abcast::AppMessage& m) override {
    f->mix(static_cast<std::uint64_t>(p));
    f->mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(m.id.origin)));
    f->mix(m.id.seq);
    f->mix(std::bit_cast<std::uint64_t>(m.sent_at));
    f->mix(std::bit_cast<std::uint64_t>(run->system().now()));
  }
};

/// Delivery-sequence hash of a run with all four gray kinds active at
/// once, transport armed (so corruption is recovered, not lost).
/// `slice_ms` > 0 drives the run in run_until slices of that length.
std::uint64_t gray_hash(core::Algorithm algo, double slice_ms = 0.0) {
  core::SimConfig cfg;
  cfg.algorithm = algo;
  cfg.n = 5;
  cfg.seed = 424242;
  cfg.transport.enabled = true;
  cfg.fd_params.detection_time = 30.0;
  cfg.fd_params.wrong_suspicions = true;
  cfg.fd_params.mistake_recurrence = 2000.0;
  cfg.fd_params.mistake_duration = 50.0;
  cfg.faults = FaultSchedule::parse(
      "limp p0 x4 @800 for 600; drift p1 x0.7 @900 for 500; "
      "flap p0->p2 period 80 duty 0.5 @1000 for 400; corrupt 0.08 @1200 for 300");
  core::SimRun run(cfg, core::WorkloadConfig{.throughput = 200.0});
  Fnv f;
  std::vector<HashSink> sinks(static_cast<std::size_t>(cfg.n));
  for (int p = 0; p < cfg.n; ++p) {
    auto& sink = sinks[static_cast<std::size_t>(p)];
    sink.f = &f;
    sink.run = &run;
    sink.p = p;
    run.proc(p).set_deliver_sink(&sink);
  }
  run.start();
  if (slice_ms > 0.0)
    for (double t = slice_ms; t < 3000.0; t += slice_ms) run.run_until(t);
  run.run_until(3000.0);
  f.mix(run.system().scheduler().executed());
  return f.h;
}

// All four gray kinds at once must be bit-identical — delivery sequence
// AND executed event count — in one run_until call, in 1 ms slices (the
// wheel cursor parks at every boundary), and on every worker of a pool
// running 8 copies concurrently.
TEST(GrayDeterminism, GrayRunBitIdenticalAcrossBackends) {
  for (core::Algorithm algo : {core::Algorithm::kFd, core::Algorithm::kGm}) {
    const std::uint64_t ref = gray_hash(algo);
    EXPECT_EQ(gray_hash(algo, 1.0), ref) << core::algorithm_name(algo) << " sliced";
    const std::vector<std::uint64_t> pooled =
        core::parallel_map(8, 8, [algo](std::size_t) { return gray_hash(algo); });
    for (std::uint64_t h : pooled) EXPECT_EQ(h, ref) << core::algorithm_name(algo) << " pool of 8";
  }
}

// Gray-faulted windowed scenarios reduce identically for any job count:
// the same call on 8 concurrent workers (as `--jobs` runs rows)
// reproduces the serial result, statistics included.
TEST(GrayDeterminism, GrayWindowedBitIdenticalAcrossJobs) {
  core::SimConfig cfg;
  cfg.algorithm = core::Algorithm::kGm;
  cfg.n = 5;
  cfg.seed = 42;
  cfg.obs.enabled = true;
  cfg.fd_params.detection_time = 30.0;
  cfg.fd_params.wrong_suspicions = true;
  cfg.fd_params.mistake_recurrence = 2000.0;
  cfg.fd_params.mistake_duration = 50.0;
  cfg.faults = FaultSchedule::parse(
      "limp p0 x4 @1200 for 800; flap p1->p0 period 100 duty 0.5 @2200 for 600; "
      "drift p2 x1.5 @3000 for 500");
  core::WindowedConfig wc;
  wc.throughput = 100.0;
  wc.t_end = 5000.0;
  wc.windows = {{500.0, 2500.0}, {2500.0, 5000.0}};
  wc.replicas = 4;

  const core::WindowedResult seq = core::run_windowed(cfg, wc);
  EXPECT_GT(seq.stats.counter(obs::Counter::kSuspicions), 0u);
  for (const core::WindowedResult& par :
       core::parallel_map(8, 8, [&](std::size_t) { return core::run_windowed(cfg, wc); }))
    EXPECT_EQ(par, seq);
}

}  // namespace
}  // namespace fdgm
