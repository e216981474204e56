// Microbenchmarks of the simulation substrate: event-core throughput
// (schedule→fire, schedule/cancel/fire), network-hop cost, multicast
// fan-out and end-to-end consensus/abcast instance cost.  These bound how
// much simulated time the figure benches can afford.
//
// The scheduler kernels also report allocs_per_event, counted by the
// global operator new override below — the refactored event core must
// show 0 in steady state (asserted by scheduler_test's allocation
// harness; the counter here tracks the same property per benchmark run).
//
// Timed by the built-in harness in bench/microbench.hpp (a Google
// Benchmark API subset plus --benchmark_format=json).  Before/after
// numbers for the PR-3 event core refactor are recorded in BENCH_pr3.json
// at the repository root.
#include "microbench.hpp"

#include <array>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <vector>

#include "core/experiment.hpp"
#include "fd/qos_model.hpp"
#include "net/system.hpp"
#include "obs/observer.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "transport/transport.hpp"

// GCC pairs the malloc-backed operator new below with the free-backed
// operator delete across inlining and flags a false mismatch; the pair
// is consistent by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

// ---------------------------------------------------------- alloc counting
namespace {
std::uint64_t g_allocs = 0;
}
void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

using namespace fdgm;

namespace {

std::uint64_t g_sink = 0;

void BM_SchedulerScheduleFire(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  sim::Scheduler s;
  // Realistic callback capture (~40 bytes, like a network pipeline stage).
  auto schedule_batch = [&] {
    sim::Scheduler* sp = &s;
    for (int i = 0; i < batch; ++i) {
      std::uint64_t a = static_cast<std::uint64_t>(i);
      std::uint64_t b = a ^ 0x9e3779b97f4a7c15ULL;
      s.schedule_after(static_cast<double>(i % 64), [sp, a, b, i] {
        g_sink += a + b + static_cast<std::uint64_t>(i) + sp->executed();
      });
    }
  };
  // Warm-up: grow queue/slab capacity (several laps so the wheel's cursor
  // has visited every bucket it will revisit).
  for (int r = 0; r < 4; ++r) {
    schedule_batch();
    s.run();
  }
  const std::uint64_t a0 = g_allocs;
  std::int64_t events = 0;
  for (auto _ : state) {
    schedule_batch();
    s.run();
    events += batch;
  }
  state.SetItemsProcessed(events);
  state.counters["allocs_per_event"] =
      static_cast<double>(g_allocs - a0) / static_cast<double>(events);
}

BENCHMARK(BM_SchedulerScheduleFire)->Arg(1024)->Arg(16384);

void BM_SchedulerScheduleCancelFire(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  sim::Scheduler s;
  std::vector<sim::EventId> ids(static_cast<std::size_t>(batch));
  auto round = [&] {
    sim::Scheduler* sp = &s;
    for (int i = 0; i < batch; ++i) {
      std::uint64_t a = static_cast<std::uint64_t>(i);
      std::uint64_t b = a * 3;
      ids[static_cast<std::size_t>(i)] =
          s.schedule_after(static_cast<double>(i % 64), [sp, a, b, i] {
            g_sink += a + b + static_cast<std::uint64_t>(i) + sp->executed();
          });
    }
    for (int i = 0; i < batch; i += 2) s.cancel(ids[static_cast<std::size_t>(i)]);
    s.run();
  };
  for (int r = 0; r < 4; ++r) round();  // warm-up
  const std::uint64_t a0 = g_allocs;
  std::int64_t events = 0;
  for (auto _ : state) {
    round();
    events += batch;
  }
  state.SetItemsProcessed(events);
  state.counters["allocs_per_event"] =
      static_cast<double>(g_allocs - a0) / static_cast<double>(events);
}

BENCHMARK(BM_SchedulerScheduleCancelFire)->Arg(1024);

// FD-timer mix at n = 128: the pending-queue population a large group's
// failure-detector layer creates — one long-horizon renewal timer per
// ordered pair (n(n-1) = 16256 of them) parked under a hot stream of
// short protocol events, with a steady churn of cancel+reschedule on the
// cold timers (detection edges / releases / storm extensions).  The wheel
// parks the cold population in its top level and overflow heap and
// serves the hot stream from level 0.
void BM_FdTimerMix128(benchmark::State& state) {
  constexpr int kN = 128;
  constexpr int kPairs = kN * (kN - 1);
  sim::Scheduler s;
  std::mt19937_64 rng(20260729);
  std::vector<sim::EventId> renewals(kPairs);
  // Far enough out that no parked timer ever comes due inside the
  // benchmark loop (each iteration advances 4 ms; the harness runs tens
  // of thousands of iterations): the population stays at exactly kPairs
  // and every counted event is a hot one.
  auto long_horizon = [&rng] {
    return 1.0e6 + static_cast<double>(rng() % 2'000'000);  // ~17 .. ~50 min
  };
  for (int i = 0; i < kPairs; ++i)
    renewals[static_cast<std::size_t>(i)] = s.schedule_after(long_horizon(), [] { ++g_sink; });

  auto round = [&] {
    sim::Scheduler* sp = &s;
    for (int i = 0; i < 512; ++i) {
      const auto a = static_cast<std::uint64_t>(i);
      s.schedule_after(static_cast<double>(i % 32) * 0.125,
                       [sp, a] { g_sink += a + sp->executed(); });
    }
    for (int i = 0; i < 64; ++i) {
      const std::size_t idx = rng() % renewals.size();
      s.cancel(renewals[idx]);
      renewals[idx] = s.schedule_after(long_horizon(), [] { ++g_sink; });
    }
    s.run_until(s.now() + 4.0);  // drains the short events only
  };
  for (int r = 0; r < 8; ++r) round();  // warm-up
  const std::uint64_t a0 = g_allocs;
  std::int64_t events = 0;
  for (auto _ : state) {
    round();
    events += 512 + 2 * 64;  // fires + cancel/reschedule pairs
  }
  state.SetItemsProcessed(events);
  state.counters["allocs_per_event"] =
      static_cast<double>(g_allocs - a0) / static_cast<double>(events);
}

BENCHMARK(BM_FdTimerMix128);

void BM_NetworkUnicastHop(benchmark::State& state) {
  net::System sys(2, net::NetworkConfig{}, 1);
  class Sink final : public net::Layer {
   public:
    void on_message(const net::Message&) override {}
  } sink;
  sys.node(1).register_handler(net::ProtocolId::kApplication, &sink);
  const net::BlankPayload payload;
  std::int64_t msgs = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) sys.node(0).send(1, net::ProtocolId::kApplication, &payload);
    sys.scheduler().run();
    msgs += 1000;
  }
  state.SetItemsProcessed(msgs);
  benchmark::DoNotOptimize(sys.network().messages_delivered());
}
BENCHMARK(BM_NetworkUnicastHop);

void BM_NetworkMulticastFanout(benchmark::State& state) {
  constexpr int kN = 8;
  net::System sys(kN, net::NetworkConfig{}, 1);
  class Sink final : public net::Layer {
   public:
    void on_message(const net::Message&) override {}
  } sink;
  for (int i = 0; i < kN; ++i)
    sys.node(i).register_handler(net::ProtocolId::kApplication, &sink);
  const net::BlankPayload payload;
  std::int64_t deliveries = 0;
  for (auto _ : state) {
    for (int i = 0; i < 250; ++i)
      sys.node(i % kN).multicast_all(net::ProtocolId::kApplication, &payload);
    sys.scheduler().run();
    deliveries += 250 * kN;
  }
  state.SetItemsProcessed(deliveries);
  benchmark::DoNotOptimize(sys.network().messages_delivered());
}
BENCHMARK(BM_NetworkMulticastFanout);

// Transport hot path, no loss: bidirectional unicast streams through the
// armed retransmission transport (sequence stamping + piggyback-ack
// bookkeeping + in-order release on every hop).  The no-loss path must
// stay allocation-free: no ring pushes, no timers, no control frames —
// allocs_per_event is asserted 0 by the perf-smoke CI job.
void BM_TransportPingPong(benchmark::State& state) {
  net::System sys(2, net::NetworkConfig{}, 1, transport::Config{.enabled = true});
  class Sink final : public net::Layer {
   public:
    void on_message(const net::Message&) override {}
  } sink;
  sys.node(0).register_handler(net::ProtocolId::kApplication, &sink);
  sys.node(1).register_handler(net::ProtocolId::kApplication, &sink);
  const net::BlankPayload payload;
  auto round = [&] {
    for (int i = 0; i < 500; ++i) {
      sys.node(0).send(1, net::ProtocolId::kApplication, &payload);
      sys.node(1).send(0, net::ProtocolId::kApplication, &payload);
    }
    sys.scheduler().run();
  };
  for (int r = 0; r < 4; ++r) round();  // warm-up: grow slab/list capacity
  const std::uint64_t a0 = g_allocs;
  std::int64_t msgs = 0;
  for (auto _ : state) {
    round();
    msgs += 1000;
  }
  state.SetItemsProcessed(msgs);
  state.counters["allocs_per_event"] =
      static_cast<double>(g_allocs - a0) / static_cast<double>(msgs);
  benchmark::DoNotOptimize(sys.transport()->stats().data_frames);
}

BENCHMARK(BM_TransportPingPong);

// Raw frame-checksum cost: stamp + verify over a resident message set,
// nothing else.  This is the per-frame arithmetic a corrupt-armed run adds
// to every delivery; it must not allocate.
void BM_FrameChecksumKernel(benchmark::State& state) {
  constexpr int kMsgs = 256;
  const net::BlankPayload payload;
  std::vector<net::Message> msgs;
  msgs.reserve(kMsgs);
  for (int i = 0; i < kMsgs; ++i) {
    net::Message m{i % 8, (i + 1) % 8, net::ProtocolId::kApplication, {}, &payload};
    m.frame.seq = static_cast<std::uint32_t>(i + 1);  // stamped: seq_no != 0
    msgs.push_back(m);
  }
  const std::uint64_t a0 = g_allocs;
  std::int64_t frames = 0;
  std::uint64_t ok = 0;
  for (auto _ : state) {
    for (net::Message& m : msgs) {
      m.frame.check = net::frame_digest(m);
      ok += net::frame_checksum_ok(m) ? 1 : 0;
    }
    frames += kMsgs;
  }
  state.SetItemsProcessed(frames);
  state.counters["allocs_per_event"] =
      static_cast<double>(g_allocs - a0) / static_cast<double>(frames);
  benchmark::DoNotOptimize(ok);
}
BENCHMARK(BM_FrameChecksumKernel);

// Transport hot path with checksums latched (what arming any `corrupt`
// window does for the whole run): every delivery additionally stamps the
// digest at the wire and verifies it at Transport::on_frame.  The delta
// against BM_TransportPingPong is the end-to-end checksum tax; the path
// must stay allocation-free (perf-smoke asserts it).
void BM_TransportChecksumPingPong(benchmark::State& state) {
  net::System sys(2, net::NetworkConfig{}, 1, transport::Config{.enabled = true});
  sys.network().enable_checksums();
  class Sink final : public net::Layer {
   public:
    void on_message(const net::Message&) override {}
  } sink;
  sys.node(0).register_handler(net::ProtocolId::kApplication, &sink);
  sys.node(1).register_handler(net::ProtocolId::kApplication, &sink);
  const net::BlankPayload payload;
  auto round = [&] {
    for (int i = 0; i < 500; ++i) {
      sys.node(0).send(1, net::ProtocolId::kApplication, &payload);
      sys.node(1).send(0, net::ProtocolId::kApplication, &payload);
    }
    sys.scheduler().run();
  };
  for (int r = 0; r < 4; ++r) round();  // warm-up: grow slab/list capacity
  const std::uint64_t a0 = g_allocs;
  std::int64_t msgs = 0;
  for (auto _ : state) {
    round();
    msgs += 1000;
  }
  state.SetItemsProcessed(msgs);
  state.counters["allocs_per_event"] =
      static_cast<double>(g_allocs - a0) / static_cast<double>(msgs);
  benchmark::DoNotOptimize(sys.transport()->stats().data_frames);
  benchmark::DoNotOptimize(sys.transport()->stats().corrupt_dropped);
}
BENCHMARK(BM_TransportChecksumPingPong);

// Transport recovery path: a 5%-lossy unidirectional stream — every round
// drains completely, so the measured cost includes gap detection, NACKs,
// timer rounds, retransmissions and duplicate-triggered ACKs.  This path
// is allowed to allocate (control payloads live in the arena, rings grow
// to the loss burst), so no allocs_per_event counter is reported.
void BM_TransportLossyRecovery(benchmark::State& state) {
  net::System sys(2, net::NetworkConfig{}, 1, transport::Config{.enabled = true});
  class Sink final : public net::Layer {
   public:
    void on_message(const net::Message&) override {}
  } sink;
  sys.node(0).register_handler(net::ProtocolId::kApplication, &sink);
  sys.node(1).register_handler(net::ProtocolId::kApplication, &sink);
  sim::Rng loss_rng(99);
  const net::BlankPayload payload;
  std::int64_t msgs = 0;
  for (auto _ : state) {
    sys.network().set_loss(0.05, &loss_rng);
    for (int i = 0; i < 500; ++i) sys.node(0).send(1, net::ProtocolId::kApplication, &payload);
    sys.scheduler().run();  // drains: every gap recovered, timers settled
    sys.network().clear_loss();
    sys.scheduler().run();
    msgs += 500;
  }
  state.SetItemsProcessed(msgs);
  benchmark::DoNotOptimize(sys.transport()->stats().retransmits);
}
BENCHMARK(BM_TransportLossyRecovery);

// Batched submission machinery in isolation: an AtomicBroadcastProcess
// subclass whose ordering layer is a local loopback (submit/flush deliver
// immediately), fed from preallocated AppMessages.  Each round first
// queues unicast traffic to build a real network backlog — the adaptive
// batch target reads it, so the queue accumulates and flush_batch runs
// with count > 1 — then drains everything including the flush timer.
// Steady state must not allocate: the submission queue and its flush
// scratch ping-pong capacity, the timer lives in the scheduler slab, and
// no payload is created (perf-smoke asserts allocs_per_event == 0).
void BM_BatchedSubmit(benchmark::State& state) {
  constexpr int kMsgs = 64;
  net::System sys(2, net::NetworkConfig{}, 11);
  class Sink final : public net::Layer {
   public:
    void on_message(const net::Message&) override {}
  } net_sink;
  sys.node(1).register_handler(net::ProtocolId::kApplication, &net_sink);

  class Loopback final : public abcast::AtomicBroadcastProcess {
   public:
    Loopback(net::System& s, abcast::BatchConfig b) : AtomicBroadcastProcess(s, 0, b) {}
    void feed(abcast::AppMessagePtr m) { enqueue_submission(m); }
    [[nodiscard]] std::uint64_t delivered_count() const override { return delivered_; }
    std::uint64_t batched = 0;

   protected:
    void submit_now(abcast::AppMessagePtr msg) override {
      ++delivered_;
      deliver(*msg);
    }
    void flush_batch(const abcast::AppMessagePtr* msgs, std::size_t count) override {
      delivered_ += count;
      batched += count;
      for (std::size_t i = 0; i < count; ++i) deliver(*msgs[i]);
    }

   private:
    std::uint64_t delivered_ = 0;
  };
  class DropSink final : public abcast::DeliverSink {
   public:
    void on_deliver(const abcast::AppMessage&) override { ++g_sink; }
  } drop;

  abcast::BatchConfig bc;
  bc.enabled = true;
  Loopback proc(sys, bc);
  proc.set_deliver_sink(&drop);
  std::vector<abcast::AppMessagePtr> msgs;
  for (int i = 0; i < kMsgs; ++i)
    msgs.push_back(sys.arena().make<abcast::AppMessage>(
        abcast::MsgId{0, static_cast<std::uint64_t>(i) + 1}, 0.0));

  const net::BlankPayload payload;
  auto round = [&] {
    // Backlog first: the adaptive target turns it into batches of k > 1.
    for (int i = 0; i < kMsgs; ++i) sys.node(0).send(1, net::ProtocolId::kApplication, &payload);
    for (int i = 0; i < kMsgs; ++i) proc.feed(msgs[static_cast<std::size_t>(i)]);
    sys.scheduler().run();  // drains the network and fires the flush timer
  };
  // Warm-up.  Besides queue/scratch/slab capacity, pre-grow the wheel's
  // far-future overflow storage and cancel again: a long run crosses the
  // wheel's top-window boundary (~2^20 simulated ms), where in-flight
  // events briefly straddle into the overflow — its vector must already
  // hold the largest straddle population or the crossing allocates.
  {
    std::vector<sim::EventId> far;
    for (int i = 0; i < 512; ++i)
      far.push_back(sys.scheduler().schedule_after(3.0e9 + i, [] { ++g_sink; }));
    for (sim::EventId e : far) sys.scheduler().cancel(e);
  }
  for (int r = 0; r < 16; ++r) round();
  const std::uint64_t a0 = g_allocs;
  std::int64_t items = 0;
  for (auto _ : state) {
    round();
    items += 2 * kMsgs;  // network messages + batched submissions
  }
  state.SetItemsProcessed(items);
  state.counters["allocs_per_event"] =
      static_cast<double>(g_allocs - a0) / static_cast<double>(items);
  // The adaptive target really amortized: most submissions rode batches.
  state.counters["batched_fraction"] =
      static_cast<double>(proc.batched) / static_cast<double>(proc.delivered_count());
}

BENCHMARK(BM_BatchedSubmit);

// Armed observer hot path in isolation: the full hook mix a protocol
// round produces — span lifecycle (submit / order_start / ordered /
// delivered), counters, retransmit attribution, reorder gauges and lazy
// metrics-window rolls.  The slabs are reserved at construction and a
// snapshot row is a fixed array, so after construction the hooks must
// never allocate — including once the span slabs fill and the observer
// switches to flight-recorder drops (the kernel deliberately runs past
// capacity).  perf-smoke asserts allocs_per_event == 0 here; together
// with the determinism tests (armed run reproduces the golden hashes)
// this is the "armed is free" half of the observability contract.
void BM_ObserverArmedHooks(benchmark::State& state) {
  constexpr int kN = 8;
  constexpr int kMsgs = 64;
  obs::Config cfg;
  cfg.enabled = true;
  obs::Observer o(kN, cfg);
  double now = 0.0;
  std::array<std::uint64_t, kN> seqs{};  // seq numbers are dense per origin
  auto round = [&] {
    for (int i = 0; i < kMsgs; ++i) {
      const int origin = i % kN;
      const std::uint64_t s = ++seqs[static_cast<std::size_t>(origin)];
      o.on_submit(origin, s, now);
      o.on_order_start(origin, s, now + 0.1);
      o.on_ordered(origin, s, now + 1.0);
      o.on_delivered(origin, s, now + 2.0);
      o.count(origin, obs::Counter::kConsensusRounds, now);
      o.on_retransmit(origin, now);
      o.reorder_depth(origin, static_cast<std::size_t>(i % 7));
      now += 0.25;  // crosses a metrics-window boundary every 400 hooks
    }
  };
  round();  // warm-up (nothing to grow, but keep the kernel shape uniform)
  const std::uint64_t a0 = g_allocs;
  std::int64_t hooks = 0;
  for (auto _ : state) {
    round();
    hooks += kMsgs * 7;
  }
  state.SetItemsProcessed(hooks);
  state.counters["allocs_per_event"] =
      static_cast<double>(g_allocs - a0) / static_cast<double>(hooks);
  benchmark::DoNotOptimize(o.total(obs::Counter::kTransportRetx));
  benchmark::DoNotOptimize(o.spans_dropped());
}
BENCHMARK(BM_ObserverArmedHooks);

// Armed *causal* hot path: edge recording via trace_marker/trace_stall
// (the classify step is the caller's; this kernel measures the recorder)
// plus the FD QoS meter's transition bookkeeping.  The edge slabs are
// reserved at construction, MsgRefList is a fixed array and a QoS
// transition touches only pre-sized vectors, so the hooks must never
// allocate — including after the slabs fill and edges start dropping
// (the kernel runs past capacity on purpose).  perf-smoke asserts
// allocs_per_event == 0 here, the causal half of "armed is free".
void BM_CausalHookKernel(benchmark::State& state) {
  constexpr int kN = 8;
  constexpr int kMsgs = 32;
  obs::Config cfg;
  cfg.enabled = true;
  cfg.causal = true;
  cfg.edge_capacity = 1024;  // deliberately small: exercise the drop path
  obs::Observer o(kN, cfg);
  double now = 0.0;
  std::array<std::uint64_t, kN> seqs{};
  auto round = [&] {
    for (int i = 0; i < kMsgs; ++i) {
      const int origin = i % kN;
      const std::uint64_t s = ++seqs[static_cast<std::size_t>(origin)];
      o.on_submit(origin, s, now);
      o.on_order_start(origin, s, now);
      obs::MsgRefList refs;
      refs.add(origin, s);
      // One hop's worth of markers plus a recovery stall, per message.
      o.trace_marker(obs::EdgeKind::kSendEnq, origin, refs, now);
      o.trace_marker(obs::EdgeKind::kSendDone, origin, refs, now + 0.01);
      o.trace_marker(obs::EdgeKind::kWireEnq, origin, refs, now + 0.01);
      o.trace_marker(obs::EdgeKind::kWireDone, origin, refs, now + 0.4);
      o.trace_stall(obs::EdgeKind::kStallNack, origin, refs, now, now + 1.0);
      o.on_ordered(origin, s, now + 1.0, origin);
      o.on_delivered(origin, s, now + 2.0, origin);
      // QoS meter edges: a wrong suspicion opening and closing.
      o.on_fd_transition(origin, (origin + 1) % kN, 0b01, now);
      o.on_fd_transition(origin, (origin + 1) % kN, 0b00, now + 0.5);
      now += 0.25;
    }
  };
  round();  // warm-up
  const std::uint64_t a0 = g_allocs;
  std::int64_t hooks = 0;
  for (auto _ : state) {
    round();
    hooks += kMsgs * 11;
  }
  state.SetItemsProcessed(hooks);
  state.counters["allocs_per_event"] =
      static_cast<double>(g_allocs - a0) / static_cast<double>(hooks);
  benchmark::DoNotOptimize(o.edges_recorded());
  benchmark::DoNotOptimize(o.edges_dropped());
  benchmark::DoNotOptimize(o.qos_measured().transitions);
}
BENCHMARK(BM_CausalHookKernel);

void BM_AbcastSecond(benchmark::State& state) {
  // Cost of one simulated second of atomic broadcast at T=300/s, n=3.
  const auto algo = static_cast<core::Algorithm>(state.range(0));
  for (auto _ : state) {
    core::SimConfig cfg;
    cfg.algorithm = algo;
    cfg.n = 3;
    cfg.seed = 7;
    core::SimRun run(cfg, core::WorkloadConfig{.throughput = 300.0});
    run.start();
    run.run_until(1000.0);
    benchmark::DoNotOptimize(run.recorder().total_delivered());
  }
}
BENCHMARK(BM_AbcastSecond)
    ->Arg(static_cast<int>(core::Algorithm::kFd))
    ->Arg(static_cast<int>(core::Algorithm::kGm));

// Same run with the observer armed: the end-to-end cost of tracing every
// message lifecycle plus the counter registry.  Compare against
// BM_AbcastSecond — the delta is the observability tax on a full
// simulated second (the hooks themselves are allocation-free, see
// BM_ObserverArmedHooks).
void BM_AbcastSecondObserved(benchmark::State& state) {
  const auto algo = static_cast<core::Algorithm>(state.range(0));
  for (auto _ : state) {
    core::SimConfig cfg;
    cfg.algorithm = algo;
    cfg.n = 3;
    cfg.seed = 7;
    cfg.obs.enabled = true;
    core::SimRun run(cfg, core::WorkloadConfig{.throughput = 300.0});
    run.start();
    run.run_until(1000.0);
    benchmark::DoNotOptimize(run.recorder().total_delivered());
    benchmark::DoNotOptimize(run.observer()->spans_recorded());
  }
}
BENCHMARK(BM_AbcastSecondObserved)
    ->Arg(static_cast<int>(core::Algorithm::kFd))
    ->Arg(static_cast<int>(core::Algorithm::kGm));

// One simulated second of FD-heavy atomic broadcast at n = 128 (the
// scale_throughput composition: T = 100/s, one renewal timer per ordered
// pair).  Items = scheduler events, so items_per_second is the
// events/sec figure and 1e9 / items_per_second the ns/event the
// BENCH_pr4.json before/after compares.  The SimRun persists across
// iterations: this measures the steady state, not the n^2 setup.
void BM_AbcastScaleSecond128(benchmark::State& state) {
  core::SimConfig cfg;
  cfg.algorithm = core::Algorithm::kFd;
  cfg.n = 128;
  cfg.seed = 7;
  cfg.fd_params.detection_time = 30.0;
  cfg.fd_params.wrong_suspicions = true;
  cfg.fd_params.mistake_recurrence = 128.0 * 127.0 * 5000.0;
  cfg.fd_params.mistake_duration = 50.0;
  core::SimRun run(cfg, core::WorkloadConfig{.throughput = 100.0});
  run.start();
  run.run_until(1000.0);  // past startup transients
  std::int64_t events = 0;
  for (auto _ : state) {
    const std::uint64_t e0 = run.system().scheduler().executed();
    run.run_until(run.system().scheduler().now() + 1000.0);
    events += static_cast<std::int64_t>(run.system().scheduler().executed() - e0);
  }
  state.SetItemsProcessed(events);
  benchmark::DoNotOptimize(run.recorder().total_delivered());
}

BENCHMARK(BM_AbcastScaleSecond128);

// QoS-model construction at n = 128: formerly an eager n^2 loop forking
// one mt19937_64 per ordered pair (16256 engines, ~2500 state words
// each) before the first event ran — quadratic setup that dominated
// short large-n runs and was pure waste for the (default) silent pairs.
// PairState is now lazy: construction sizes an engine-less vector, and a
// pair materializes its fork (replaying its draw count, so streams are
// bit-identical to the eager layout) only on its first mistake draw.
// Items = one constructed model; compare against the eager-cost
// reference kernel below.
void BM_QosModelSetup128(benchmark::State& state) {
  constexpr int kN = 128;
  net::System sys(kN, net::NetworkConfig{}, 7);
  fd::QosParams params;
  params.detection_time = 30.0;
  params.wrong_suspicions = true;
  params.mistake_recurrence = 128.0 * 127.0 * 5000.0;
  params.mistake_duration = 50.0;
  std::int64_t models = 0;
  for (auto _ : state) {
    fd::QosFailureDetectorModel model(sys, params);
    benchmark::DoNotOptimize(&model);
    ++models;
  }
  state.SetItemsProcessed(models);
}
BENCHMARK(BM_QosModelSetup128);

// Reference: the eager cost BM_QosModelSetup128 no longer pays — n(n-1) =
// 16256 independent mt19937_64 forks, exactly the per-pair seeding the
// old constructor performed.  The lazy model amortizes this across the
// run (and skips it entirely for pairs that never draw).
void BM_RngForkPerPair128(benchmark::State& state) {
  const sim::Rng base(20260808);
  constexpr int kPairs = 128 * 127;
  std::int64_t forks = 0;
  for (auto _ : state) {
    std::uint64_t mixed = 0;
    for (int i = 0; i < kPairs; ++i) {
      sim::Rng engine = base.fork(static_cast<std::uint64_t>(i));
      mixed ^= engine.next_u64();
    }
    benchmark::DoNotOptimize(mixed);
    forks += kPairs;
  }
  state.SetItemsProcessed(forks);
}
BENCHMARK(BM_RngForkPerPair128);

}  // namespace

BENCHMARK_MAIN();
