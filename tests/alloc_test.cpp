// Allocation guarantees of the simulator's hot paths, counted by the
// global operator new replacement in alloc_counter.hpp.  Each ZeroAlloc
// test warms its kernel up (growing slabs, rings and scratch buffers to
// their steady-state size), then requires zero heap allocations over the
// measured rounds: the retransmission transport's no-loss path with and
// without frame checksums, the raw checksum stamp/verify, the armed
// observer's span/counter hooks, the causal edge recorder with the QoS
// meter, batched submission, and multicast fan-out into grouped receive
// jobs at n = 128.  The observer and causal kernels run
// past their slab capacity on purpose, so the flight-recorder drop path
// is covered too.
//
// The transport and batching kernels cross the scheduler wheel's
// top-window boundary (every ~17 simulated minutes) once in their warm-up
// and once more in their measured rounds, as any long run does; so does
// the n = 128 multicast fan-out.
//
// The scheduler's own steady state is covered by scheduler_test.  The
// AllocBound tests bound what is not zero: the scheduler under an n = 128
// FD-timer population, one GM view change at n = 64, each stack's
// failure-free steady state at n = 32, the bytes the lazy QoS model
// allocates at construction against the eager per-pair RNG forks it
// replaced, and the bytes its start() allocates for the n = 128 renewal
// records.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "abcast/abcast.hpp"
#include "abcast/fd_abcast.hpp"
#include "abcast/gm_abcast.hpp"
#include "alloc_counter.hpp"
#include "fd/qos_model.hpp"
#include "net/system.hpp"
#include "obs/observer.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "transport/transport.hpp"

namespace fdgm {
namespace {

class NullSink final : public net::Layer {
 public:
  void on_message(const net::Message&) override {}
};

// The wheel's top window: 2^24 ticks of 1/16 ms.  Events scheduled past
// the boundary of the cursor's window go to the far-future overflow heap
// until the cursor crosses it.
constexpr double kTopWindowMs = 1048576.0;

// Advances the idle scheduler to `lead_ms` before the next top-window
// boundary, so a kernel that then runs for longer than `lead_ms` crosses
// it.  Returns that boundary.
double park_before_top_window(sim::Scheduler& s, double lead_ms) {
  EXPECT_EQ(s.pending(), 0u);
  const double boundary = (std::floor(s.now() / kTopWindowMs) + 1.0) * kTopWindowMs;
  s.run_until(boundary - lead_ms);
  return boundary;
}

// A pending-queue population of the size a large group's failure
// detectors keep, one long-horizon timer per ordered pair (n(n-1) =
// 16256 at n = 128), held as cancellable closure records parked under a
// hot stream of short protocol events, with a steady churn of cancel +
// reschedule on the cold timers.  (The QoS model's own renewals are
// handler records: no callback slot, never cancelled, a stale one dies
// when it fires; AllocBound.QosStart128 bounds them.  This is the
// closure-record path at that population.)
//
// Not allocation-free, and the bound says by how much.  Two buffers grow
// for as long as the parked timers are far from due (17-50 simulated
// minutes): cancelled far records stay in the overflow heap and the
// wheel's node slab until the cursor reaches them, and once a round has
// drained the hot stream the cursor rests at the next live renewal, so
// later hot events are filed in the ready buffer, whose consumed prefix
// is kept until that renewal fires.  Both grow by doubling: over 1024
// rounds (655360 events) that is exactly 10 allocations, and the run is
// deterministic, so the bound is that count.  A scheduler that reclaims
// cancelled far records and the consumed ready prefix would make it 0.
TEST(AllocBound, FdTimerMix128) {
  constexpr int kN = 128;
  constexpr int kPairs = kN * (kN - 1);
  constexpr int kRounds = 1024;
  constexpr std::uint64_t kEventsPerRound = 512 + 2 * 64;  // fires + cancel/reschedule pairs
  sim::Scheduler s;
  std::mt19937_64 rng(20260729);
  std::uint64_t sink = 0;
  std::vector<sim::EventId> renewals(kPairs);
  // Far enough out that no parked timer comes due during the test: the
  // population stays at exactly kPairs and every fired event is a hot one.
  auto long_horizon = [&rng] {
    return 1.0e6 + static_cast<double>(rng() % 2'000'000);  // ~17 .. ~50 min
  };
  for (int i = 0; i < kPairs; ++i)
    renewals[static_cast<std::size_t>(i)] = s.schedule_after(long_horizon(), [&sink] { ++sink; });

  auto round = [&] {
    sim::Scheduler* sp = &s;
    for (int i = 0; i < 512; ++i) {
      const auto a = static_cast<std::uint64_t>(i);
      s.schedule_after(static_cast<double>(i % 32) * 0.125,
                       [sp, a, &sink] { sink += a + sp->executed(); });
    }
    for (int i = 0; i < 64; ++i) {
      const std::size_t idx = rng() % renewals.size();
      s.cancel(renewals[idx]);
      renewals[idx] = s.schedule_after(long_horizon(), [&sink] { ++sink; });
    }
    s.run_until(s.now() + 4.0);  // drains the short events only
  };
  for (int r = 0; r < 8; ++r) round();  // warm-up
  const std::uint64_t before = g_alloc_count;
  for (int r = 0; r < kRounds; ++r) round();
  EXPECT_LE(g_alloc_count - before, 10u) << "over " << kRounds * kEventsPerRound << " events";
  EXPECT_EQ(s.pending(), static_cast<std::size_t>(kPairs));
}

// Bidirectional unicast streams through the armed retransmission
// transport: sequence stamping, piggybacked acks and in-order release on
// every hop.  With no loss there are no ring pushes, timers or control
// frames.  `checksums` latches frame checksums, which is what arming any
// `corrupt` window does for a whole run.  A round is ~1 simulated second.
void transport_ping_pong(bool checksums) {
  net::System sys(2, net::NetworkConfig{}, 1, transport::Config{.enabled = true});
  if (checksums) sys.network().enable_checksums();
  NullSink sink;
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
  // Warm-up: grow slab/list capacity, and the overflow heap to the
  // largest population that can straddle a top-window boundary (a round
  // starting right before it).
  park_before_top_window(sys.scheduler(), 1.0);
  for (int r = 0; r < 4; ++r) round();
  const double boundary = park_before_top_window(sys.scheduler(), 32'000.0);
  const std::uint64_t before = g_alloc_count;
  for (int r = 0; r < 64; ++r) round();
  EXPECT_EQ(g_alloc_count - before, 0u);
  EXPECT_GT(sys.scheduler().now(), boundary);
  EXPECT_EQ(sys.transport()->stats().data_frames, 68u * 1000u);
  EXPECT_EQ(sys.transport()->stats().retransmits, 0u);
}

TEST(ZeroAlloc, TransportPingPong) { transport_ping_pong(false); }

TEST(ZeroAlloc, TransportChecksumPingPong) { transport_ping_pong(true); }

// Steady multicasts at n = 128: every process multicasts to all the
// others in turn, so each wire slot fans out into 127 receive jobs that
// end at one instant and fire from one grouped scheduler record.  The
// destination lists and receive groups are pooled entries whose member
// capacity is reused.  A round is ~130 simulated ms.
TEST(ZeroAlloc, MulticastFanOut128) {
  constexpr int kN = 128;
  net::System sys(kN, net::NetworkConfig{}, 1);
  NullSink sink;
  for (int i = 0; i < kN; ++i) sys.node(i).register_handler(net::ProtocolId::kApplication, &sink);
  const net::BlankPayload payload;
  auto round = [&] {
    for (int i = 0; i < kN; ++i)
      sys.node(i).multicast_others(sys.all(), net::ProtocolId::kApplication, &payload);
    sys.scheduler().run();
  };
  park_before_top_window(sys.scheduler(), 1.0);
  for (int r = 0; r < 4; ++r) round();
  const double boundary = park_before_top_window(sys.scheduler(), 2'000.0);
  const std::uint64_t inserted = sys.scheduler().inserted();
  const std::uint64_t before = g_alloc_count;
  for (int r = 0; r < 32; ++r) round();
  EXPECT_EQ(g_alloc_count - before, 0u);
  EXPECT_GT(sys.scheduler().now(), boundary);
  EXPECT_EQ(sys.network().messages_delivered(), 36u * kN * (kN - 1));
  // Send CPU, wire and one receive group per multicast.
  EXPECT_EQ(sys.scheduler().inserted() - inserted, 32u * kN * 3);
}

// The per-origin in-flight windows both stacks keep at every process: an
// origin with at most InFlightWindows::kInline messages in flight (the
// usual load at n = 128) keeps its slots inside its window's record, so
// filling, finding and releasing them allocates nothing, not even on an
// origin's first message.  Only the table of windows grows, once.
TEST(ZeroAlloc, InFlightWindowsWithinTheInlineSlots) {
  struct Slot {
    const void* msg = nullptr;
    std::uint64_t extra = 0;
    [[nodiscard]] bool empty() const { return msg == nullptr; }
  };
  constexpr int kN = 128;
  constexpr std::uint64_t kMsgs = 10000;
  abcast::InFlightWindows<Slot> w;
  const abcast::MsgId last{kN - 1, 1};
  w.slot(last).msg = &w;  // sizes the table of windows
  w.slot(last) = Slot{};
  w.release(last);
  const std::uint64_t before = g_alloc_count;
  // Message i goes in flight at origin i % kN once the one 2 * kN
  // earlier, that origin's second-to-last, has left: at most two in
  // flight per origin.
  auto id_of = [](std::uint64_t i) {
    return abcast::MsgId{static_cast<net::ProcessId>(i % kN), 2 + i / kN};
  };
  for (std::uint64_t i = 0; i < kMsgs; ++i) {
    if (i >= 2 * kN) {
      const abcast::MsgId old = id_of(i - 2 * kN);
      *w.find(old) = Slot{};
      w.release(old);
    }
    const abcast::MsgId id = id_of(i);
    Slot& s = w.slot(id);
    ASSERT_TRUE(s.empty());
    s.msg = &w;
    s.extra = i;
    ASSERT_EQ(w.find(id)->extra, i);
  }
  EXPECT_EQ(g_alloc_count - before, 0u);
  EXPECT_EQ(w.slots(), 2u * kN);
}

// Raw frame-checksum stamp + verify over a resident message set: the
// per-frame arithmetic a corrupt-armed run adds to every delivery.
TEST(ZeroAlloc, FrameChecksumKernel) {
  constexpr int kMsgs = 256;
  const net::BlankPayload payload;
  std::vector<net::Message> msgs;
  msgs.reserve(kMsgs);
  for (int i = 0; i < kMsgs; ++i) {
    net::Message m{i % 8, net::ProtocolId::kApplication, {}, &payload};
    m.frame.seq = static_cast<std::uint32_t>(i + 1);  // stamped: seq_no != 0
    msgs.push_back(m);
  }
  const std::uint64_t before = g_alloc_count;
  std::uint64_t ok = 0;
  for (int r = 0; r < 64; ++r) {
    for (net::Message& m : msgs) {
      m.frame.check = net::frame_digest(m);
      ok += net::frame_checksum_ok(m) ? 1 : 0;
    }
  }
  EXPECT_EQ(g_alloc_count - before, 0u);
  EXPECT_EQ(ok, 64u * kMsgs);
}

// The armed observer's full hook mix: span lifecycle, counters,
// retransmit attribution, reorder gauges and lazy metrics-window rolls.
// Slabs are reserved at construction and a snapshot row is a fixed
// array, so the hooks never allocate, also once the span slabs and the
// snapshot ring are full and records are dropped.
TEST(ZeroAlloc, ObserverArmedHooks) {
  constexpr int kN = 8;
  constexpr int kMsgs = 64;
  obs::Config cfg;
  cfg.enabled = true;
  cfg.span_capacity = 64;  // small, so the measured rounds reach the drop path
  cfg.snapshot_capacity = 16;
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
      now += 0.25;  // 16 ms a round: a metrics window rolls every ~6 rounds
    }
  };
  round();  // warm-up (nothing to grow, but keep the kernel shape uniform)
  const std::uint64_t before = g_alloc_count;
  for (int r = 0; r < 256; ++r) round();
  EXPECT_EQ(g_alloc_count - before, 0u);
  EXPECT_GT(o.spans_dropped(), 0u);
  EXPECT_GT(o.snapshots_dropped(), 0u);
  EXPECT_EQ(o.total(obs::Counter::kTransportRetx), 257u * kMsgs);
}

// The armed causal recorder: hop markers and a recovery stall per
// message (the classify step is the caller's) plus the FD QoS meter's
// transition bookkeeping.  Edge slabs are reserved at construction,
// MsgRefList is a fixed array and a QoS transition touches only
// pre-sized vectors; the rounds run past the edge capacity on purpose.
TEST(ZeroAlloc, CausalHookKernel) {
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
      o.trace_marker(obs::EdgeKind::kSendEnq, origin, refs, now);
      o.trace_marker(obs::EdgeKind::kSendDone, origin, refs, now + 0.01);
      o.trace_marker(obs::EdgeKind::kWireEnq, origin, refs, now + 0.01);
      o.trace_marker(obs::EdgeKind::kWireDone, origin, refs, now + 0.4);
      o.trace_stall(obs::EdgeKind::kStallNack, origin, refs, now, now + 1.0);
      o.on_ordered(origin, s, now + 1.0);
      o.on_delivered(origin, s, now + 2.0, origin);
      // QoS meter edges: a wrong suspicion opening and closing.
      o.on_fd_transition(origin, (origin + 1) % kN, 0b01, now);
      o.on_fd_transition(origin, (origin + 1) % kN, 0b00, now + 0.5);
      now += 0.25;
    }
  };
  round();  // warm-up
  const std::uint64_t before = g_alloc_count;
  for (int r = 0; r < 128; ++r) round();
  EXPECT_EQ(g_alloc_count - before, 0u);
  EXPECT_GT(o.edges_dropped(), 0u);
  EXPECT_GT(o.qos_measured().transitions, 0u);
}

// Batched submission in isolation: an AtomicBroadcastProcess whose
// ordering layer is a local loopback, fed from preallocated AppMessages
// with fresh ids (the base records each delivery once).  Each round first
// queues unicast traffic so the adaptive batch target sees a network
// backlog and disseminate runs with count > 1, then drains everything
// including the flush timer.  The submission queue and its flush scratch
// ping-pong capacity and the timer lives in the scheduler slab; the
// base's delivery log grows by doubling, so the warm-up delivers more
// than the measured rounds add and the log's capacity already covers
// them.  Steady state allocates nothing, and most submissions really ride
// batches.  A round is ~66 simulated ms.
TEST(ZeroAlloc, BatchedSubmit) {
  constexpr int kMsgs = 64;
  constexpr int kWarmup = 513;  // > 2 x kMeasured: the log's last doubling covers them
  constexpr int kMeasured = 256;
  net::System sys(2, net::NetworkConfig{}, 11);
  NullSink net_sink;
  sys.node(1).register_handler(net::ProtocolId::kApplication, &net_sink);

  class Loopback final : public abcast::AtomicBroadcastProcess {
   public:
    Loopback(net::System& s, abcast::BatchConfig b) : AtomicBroadcastProcess(s, 0, b) {}
    void feed(abcast::AppMessagePtr m) { enqueue_submission(m); }
    std::uint64_t batched = 0;

   protected:
    void disseminate(const abcast::AppMessagePtr* msgs, std::size_t count) override {
      if (count > 1) batched += count;
      for (std::size_t i = 0; i < count; ++i) deliver(msgs[i]);
    }
  };
  class CountSink final : public abcast::DeliverSink {
   public:
    void on_deliver(const abcast::AppMessage&) override { ++delivered; }
    std::uint64_t delivered = 0;
  } deliveries;

  abcast::BatchConfig bc;
  bc.enabled = true;
  Loopback proc(sys, bc);
  proc.set_deliver_sink(&deliveries);
  std::vector<abcast::AppMessagePtr> msgs;
  for (int i = 0; i < (kWarmup + kMeasured) * kMsgs; ++i)
    msgs.push_back(sys.arena().make<abcast::AppMessage>(
        abcast::MsgId{0, static_cast<std::uint64_t>(i) + 1}, 0.0));

  const net::BlankPayload payload;
  std::size_t next = 0;
  auto round = [&] {
    for (int i = 0; i < kMsgs; ++i) sys.node(0).send(1, net::ProtocolId::kApplication, &payload);
    for (int i = 0; i < kMsgs; ++i) proc.feed(msgs[next++]);
    sys.scheduler().run();  // drains the network and fires the flush timer
  };
  // Warm-up: grow queue/scratch/slab/log capacity, and the overflow heap
  // to the largest population that can straddle a top-window boundary (a
  // round starting right before it).
  park_before_top_window(sys.scheduler(), 1.0);
  for (int r = 0; r < kWarmup; ++r) round();
  const double boundary = park_before_top_window(sys.scheduler(), 8'500.0);
  const std::uint64_t before = g_alloc_count;
  for (int r = 0; r < kMeasured; ++r) round();
  EXPECT_EQ(g_alloc_count - before, 0u);
  EXPECT_GT(sys.scheduler().now(), boundary);
  EXPECT_EQ(deliveries.delivered, std::uint64_t{kWarmup + kMeasured} * kMsgs);
  EXPECT_EQ(proc.delivered_count(), deliveries.delivered);
  EXPECT_GT(static_cast<double>(proc.batched) / static_cast<double>(proc.delivered_count()), 0.5);
}

// One forced view change of a 64-member GM group: every member has just
// delivered a message from each of the others, so every report is
// non-empty, and p63 crashes.  Each survivor collects the 62 other
// survivors' unstable reports; held by reference into their UNSTABLE
// payloads, that costs no allocation per report, where a deep copy per
// receiver cost two (map node + entry vector): 7812 more at n = 64.  Only
// the round-1 coordinator merges the reports into a proposal; every other
// member keeps a snapshot of the report pointers and builds the same value
// only if it must (5780 when all 63 merged).  The run is deterministic, so
// the bound is the measured count.
TEST(AllocBound, GmViewChange64) {
  constexpr int kN = 64;
  net::System sys(kN, net::NetworkConfig{}, 7);
  fd::QosParams qp;
  qp.detection_time = 10.0;
  fd::QosFailureDetectorModel fd(sys, qp);
  std::vector<std::unique_ptr<abcast::GmAbcastProcess>> procs;
  for (int i = 0; i < kN; ++i)
    procs.push_back(std::make_unique<abcast::GmAbcastProcess>(sys, i, fd.at(i)));
  fd.start();
  for (const auto& p : procs) p->a_broadcast();
  sys.scheduler().run();

  const std::uint64_t before = g_alloc_count;
  sys.crash(kN - 1);
  sys.scheduler().run();
  const std::uint64_t allocs = g_alloc_count - before;
  for (int i = 0; i < kN - 1; ++i) {
    const auto& p = *procs[static_cast<std::size_t>(i)];
    ASSERT_EQ(p.view().id, 1u) << "p" << i;
    ASSERT_EQ(p.view().members.size(), static_cast<std::size_t>(kN - 1)) << "p" << i;
  }
  EXPECT_LE(allocs, 1785u) << "one view change at n = " << kN;

  // A second view change, stepped: the reports p0 holds are listed in pid
  // order whatever order they arrived in.
  sys.crash(kN - 2);
  std::size_t most = 0;
  const gm::GroupMembership& m = procs[0]->membership();
  while (sys.scheduler().pending() > 0 && procs[0]->view().id < 2) {
    sys.scheduler().run_until(sys.scheduler().now() + 0.05);
    if (!m.in_view_change()) continue;
    const std::vector<net::ProcessId> from = m.debug_unstable_from();
    ASSERT_TRUE(std::is_sorted(from.begin(), from.end()));
    ASSERT_TRUE(std::adjacent_find(from.begin(), from.end()) == from.end());
    most = std::max(most, from.size());
  }
  EXPECT_EQ(procs[0]->view().id, 2u);
  EXPECT_EQ(most, static_cast<std::size_t>(kN - 2));
}

// The failure-free steady state of one stack at n = 32: the processes
// take turns A-broadcasting, one message every 20 simulated ms (T = 50/s),
// and every process delivers each.  Returns the allocations of `measured`
// broadcasts after `warmup` ones.  What remains allocates per instance or
// batch at one process (the FD round-1 coordinator's proposal id vector,
// the GM sequencer's SEQNUM pair vector), per 64 KiB of payloads (arena
// blocks, their finalizer list) or per doubling (delivery logs).  Per-process
// bookkeeping — consensus instances, FD decisions and rotation anchors,
// GM recently delivered messages, the in-flight windows — allocates
// nothing per instance or message.  A tree node per instance at each of
// the 32 processes (FD: about 150 instances) or per message (GM) would
// add thousands: a std::map of FD rotation anchors reads 5073, one of
// GM's recently delivered messages 8582.  The runs are deterministic, so
// each bound is the measured count.
template <class Proc>
std::uint64_t steady_state_allocs(int warmup, int measured) {
  constexpr int kN = 32;
  net::System sys(kN, net::NetworkConfig{}, 7);
  fd::QosFailureDetectorModel fd(sys, fd::QosParams{});
  std::vector<std::unique_ptr<Proc>> procs;
  for (int i = 0; i < kN; ++i) procs.push_back(std::make_unique<Proc>(sys, i, fd.at(i)));
  fd.start();
  int sent = 0;
  auto broadcast = [&](int count) {
    for (int k = 0; k < count; ++k, ++sent) {
      sys.scheduler().run_until(sys.now() + 20.0);
      procs[static_cast<std::size_t>(sent % kN)]->a_broadcast();
    }
    sys.scheduler().run();
  };
  broadcast(warmup);
  const std::uint64_t before = g_alloc_count;
  broadcast(measured);
  const std::uint64_t allocs = g_alloc_count - before;
  for (const auto& p : procs)
    EXPECT_EQ(p->delivered_count(), static_cast<std::uint64_t>(warmup + measured));
  return allocs;
}

TEST(AllocBound, FdSteadyState32) {
  EXPECT_LE(steady_state_allocs<abcast::FdAbcastProcess>(64, 256), 273u);
}

TEST(AllocBound, GmSteadyState32) {
  EXPECT_LE(steady_state_allocs<abcast::GmAbcastProcess>(64, 256), 390u);
}

// The QoS model's per-pair state is lazy: construction sizes an
// engine-less vector, and a pair builds its RNG engine only on its second
// mistake draw (the first is computed from the fork seed).  Eager
// construction would fork one sim::Rng per ordered pair before the first
// event runs; the lazy setup must cost well under a tenth of those bytes.
// This measures construction only: start()'s first draws allocate no
// engine, and their cost is CPU, which perf/ measures (setup_s).
TEST(AllocBound, LazyQosSetup128) {
  constexpr int kN = 128;
  net::System sys(kN, net::NetworkConfig{}, 7);
  fd::QosParams params;
  params.detection_time = 30.0;
  params.wrong_suspicions = true;
  params.mistake_recurrence = 128.0 * 127.0 * 5000.0;
  params.mistake_duration = 50.0;
  const std::uint64_t bytes_before = g_alloc_bytes;
  const fd::QosFailureDetectorModel model(sys, params);
  const std::uint64_t bytes = g_alloc_bytes - bytes_before;
  const std::uint64_t eager_bytes = std::uint64_t{kN} * (kN - 1) * sizeof(sim::Rng);
  EXPECT_LT(bytes, eager_bytes / 10) << "eager forks: " << eager_bytes << " bytes";
}

// The QoS model's start() at n = 128 with wrong suspicions on: one
// renewal record per ordered pair (16256).  A renewal is a scheduler
// handler record, so start() allocates only the queue's own storage:
// 24 bytes per pair in the overflow heap, where TMR = 81,280 s puts all
// but about 1.3% of the first mistakes (beyond the wheel's top window,
// 17.5 minutes), and the wheel's 32-byte nodes for the rest.  Both
// vectors grow by doubling, so the bytes requested add up to twice the
// final size: 49 B per pair measured, bounded by 2 x 24 B per pair plus
// 32 KiB.  A renewal kept as a closure adds an 80-byte callback slot per
// pair (the slab doubles too) and fails the bound.
TEST(AllocBound, QosStart128) {
  constexpr int kN = 128;
  constexpr std::uint64_t kPairs = std::uint64_t{kN} * (kN - 1);
  net::System sys(kN, net::NetworkConfig{}, 7);
  fd::QosParams params;
  params.detection_time = 30.0;
  params.wrong_suspicions = true;
  params.mistake_recurrence = 128.0 * 127.0 * 5000.0;
  params.mistake_duration = 50.0;
  fd::QosFailureDetectorModel model(sys, params);
  const std::uint64_t bytes_before = g_alloc_bytes;
  model.start();
  const std::uint64_t bytes = g_alloc_bytes - bytes_before;
  EXPECT_EQ(sys.scheduler().pending(), kPairs);
  EXPECT_LE(bytes, 2 * 24 * kPairs + 32768) << bytes / kPairs << " B per pair";
}

}  // namespace
}  // namespace fdgm
