// Causal tracing tests: armed-causal invisibility (same golden delivery
// hashes and executed-event counts as a disarmed run, in one run_until
// call, in 1 ms slices and on concurrent replica workers),
// flight-recorder determinism of the edge slabs, the critical-path
// walker's attribution semantics
// (exact sums, claim priorities, phase defaults), the empirical FD QoS
// meter, the shape of the critical-path CSV export and the drop footer of
// a truncated export.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/parallel.hpp"
#include "core/runner.hpp"
#include "obs/export_sink.hpp"
#include "obs/observer.hpp"

namespace fdgm::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------
// Armed-causal invisibility: same harness and golden constants as
// determinism_test.cpp, with causal edge recording switched on.
// ---------------------------------------------------------------------

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
  SimRun* run = nullptr;
  int p = 0;
  void on_deliver(const abcast::AppMessage& m) override {
    f->mix(static_cast<std::uint64_t>(p));
    f->mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(m.id.origin)));
    f->mix(m.id.seq);
    f->mix(std::bit_cast<std::uint64_t>(m.sent_at));
    f->mix(std::bit_cast<std::uint64_t>(run->system().now()));
  }
};

struct CausalRunResult {
  std::uint64_t hash = 0;
  std::uint64_t edges_dropped = 0;
  std::size_t edges_recorded = 0;
  std::string critical_path_csv;
};

/// How a golden run is driven: one run_until call to the horizon, or
/// 1 ms run_until slices that park the wheel cursor at every boundary.
enum class Drive { kOneCall, kSliced };

CausalRunResult causal_run(Algorithm algo, Drive drive, std::size_t edge_capacity,
                           bool transport = false, double loss = 0.0) {
  SimConfig cfg;
  cfg.algorithm = algo;
  cfg.n = 5;
  cfg.seed = 424242;
  cfg.transport.enabled = transport;
  cfg.obs.enabled = true;
  cfg.obs.causal = true;
  cfg.obs.edge_capacity = edge_capacity;
  cfg.fd_params.detection_time = 30.0;
  cfg.fd_params.wrong_suspicions = true;
  cfg.fd_params.mistake_recurrence = 2000.0;
  cfg.fd_params.mistake_duration = 50.0;
  if (loss > 0.0) {
    fault::FaultEvent e;
    e.kind = fault::FaultKind::kLoss;
    e.rate = loss;
    e.at = 0.0;
    e.until = 1.0e7;
    cfg.faults.add(e);
  }
  SimRun run(cfg, WorkloadConfig{.throughput = 200.0});
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
  if (drive == Drive::kSliced)
    for (double t = 1.0; t < 3000.0; t += 1.0) run.run_until(t);
  run.run_until(3000.0);
  f.mix(run.system().scheduler().executed());

  CausalRunResult out;
  out.hash = f.h;
  const obs::Observer* o = run.observer();
  out.edges_dropped = o->edges_dropped();
  out.edges_recorded = o->edges_recorded();
  std::ostringstream csv;
  o->write_critical_path_csv(csv);
  out.critical_path_csv = csv.str();
  return out;
}

// Golden constants from determinism_test.cpp (captured from the PR-2
// core).  Armed causal tracing must reproduce them: recording edges is
// passive, so the delivery sequence AND the executed event count are
// bit-identical to a disarmed run.
constexpr std::uint64_t kGoldenFd = 0xbe21fd2abfc47b91ULL;
constexpr std::uint64_t kGoldenGm = 0x04be61f21cc65d6eULL;

/// `width` copies of one causal run executed concurrently, one per
/// worker of a `width`-wide pool (the shape --jobs gives replicas).
std::vector<CausalRunResult> concurrent_runs(int width, Algorithm algo,
                                             std::size_t edge_capacity) {
  const auto w = static_cast<std::size_t>(width);
  return parallel_map(w, w, [&](std::size_t) {
    return causal_run(algo, Drive::kOneCall, edge_capacity);
  });
}

// The Heap-named variants drive the run in one call; the Wheel-named
// ones in 1 ms slices; the Parallel-named ones as two concurrent replicas.
TEST(CausalGolden, ArmedCausalMatchesGoldenFdHeap) {
  EXPECT_EQ(causal_run(Algorithm::kFd, Drive::kOneCall, 65536).hash, kGoldenFd);
}

TEST(CausalGolden, ArmedCausalMatchesGoldenGmHeap) {
  EXPECT_EQ(causal_run(Algorithm::kGm, Drive::kOneCall, 65536).hash, kGoldenGm);
}

TEST(CausalGolden, ArmedCausalMatchesGoldenFdWheel) {
  EXPECT_EQ(causal_run(Algorithm::kFd, Drive::kSliced, 65536).hash, kGoldenFd);
}

TEST(CausalGolden, ArmedCausalMatchesGoldenGmWheel) {
  EXPECT_EQ(causal_run(Algorithm::kGm, Drive::kSliced, 65536).hash, kGoldenGm);
}

TEST(CausalGolden, ArmedCausalMatchesGoldenFdParallel) {
  for (const CausalRunResult& r : concurrent_runs(2, Algorithm::kFd, 65536))
    EXPECT_EQ(r.hash, kGoldenFd);
}

TEST(CausalGolden, ArmedCausalMatchesGoldenGmParallel) {
  for (const CausalRunResult& r : concurrent_runs(2, Algorithm::kGm, 65536))
    EXPECT_EQ(r.hash, kGoldenGm);
}

// An undersized edge slab drops edges (flight-recorder semantics) but
// must not perturb the run: the golden hash still reproduces.
TEST(CausalGolden, UndersizedEdgeSlabKeepsGoldenHash) {
  const CausalRunResult r = causal_run(Algorithm::kGm, Drive::kOneCall, 64);
  EXPECT_EQ(r.hash, kGoldenGm);
  EXPECT_GT(r.edges_dropped, 0u);
}

// Edges are recorded in event order, so the recorded edges, the drop
// count and the walked CSV are identical however the run is driven: in
// one call, in slices, or on any worker of a concurrent pool.
TEST(CausalGolden, EdgeSlabsIdenticalAcrossBackendsAndThreads) {
  const CausalRunResult ref = causal_run(Algorithm::kGm, Drive::kOneCall, 65536);
  const CausalRunResult sliced = causal_run(Algorithm::kGm, Drive::kSliced, 65536);
  EXPECT_EQ(sliced.hash, ref.hash);
  EXPECT_EQ(sliced.edges_recorded, ref.edges_recorded);
  EXPECT_EQ(sliced.critical_path_csv, ref.critical_path_csv);
  for (const CausalRunResult& r : concurrent_runs(4, Algorithm::kGm, 65536)) {
    EXPECT_EQ(r.hash, ref.hash);
    EXPECT_EQ(r.edges_recorded, ref.edges_recorded);
    EXPECT_EQ(r.edges_dropped, ref.edges_dropped);
    EXPECT_EQ(r.critical_path_csv, ref.critical_path_csv);
  }
}

TEST(CausalGolden, UndersizedSlabDropsIdenticalAcrossThreads) {
  const CausalRunResult ref = causal_run(Algorithm::kGm, Drive::kOneCall, 64);
  ASSERT_GT(ref.edges_dropped, 0u);
  for (const CausalRunResult& r : concurrent_runs(4, Algorithm::kGm, 64)) {
    EXPECT_EQ(r.edges_dropped, ref.edges_dropped);
    EXPECT_EQ(r.critical_path_csv, ref.critical_path_csv);
  }
}

// ---------------------------------------------------------------------
// Walker semantics on synthetic edges.
// ---------------------------------------------------------------------

obs::Config causal_cfg() {
  obs::Config c;
  c.enabled = true;
  c.causal = true;
  return c;
}

obs::MsgRefList one(int origin, std::uint64_t seq) {
  obs::MsgRefList refs;
  refs.add(origin, seq);
  return refs;
}

/// Sum of a row's per-cause buckets.
double row_sum(const obs::MsgCausal& m) {
  double s = 0.0;
  for (double v : m.ms) s += v;
  return s;
}

double bucket(const obs::MsgCausal& m, obs::Cause c) {
  return m.ms[static_cast<std::size_t>(c)];
}

TEST(CausalWalker, PerCauseSumsAddUpExactly) {
  obs::Observer o(3, causal_cfg());
  o.on_submit(0, 1, 10.0);
  o.on_order_start(0, 1, 12.0);
  o.on_ordered(0, 1, 20.0);
  o.on_delivered(0, 1, 27.5, 2);
  // A couple of hops inside the ordering phase.
  o.trace_marker(obs::EdgeKind::kSendEnq, 0, one(0, 1), 12.0);
  o.trace_marker(obs::EdgeKind::kSendDone, 0, one(0, 1), 13.0);
  o.trace_marker(obs::EdgeKind::kWireEnq, 0, one(0, 1), 13.0);
  o.trace_marker(obs::EdgeKind::kWireDone, 0, one(0, 1), 15.0);

  const auto paths = o.critical_paths(0.0, kInf);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_DOUBLE_EQ(row_sum(paths[0]), 27.5 - 10.0);
  EXPECT_DOUBLE_EQ(bucket(paths[0], obs::Cause::kCpuQueue), 1.0);
  // Wire = the claimed hop [13, 15) plus the delivery phase's [20, 27.5)
  // residual (wire is the delivery default).
  EXPECT_DOUBLE_EQ(bucket(paths[0], obs::Cause::kWire), 2.0 + 7.5);
  // Ordering residual [12, 20) minus the claimed cpu/wire hops.
  EXPECT_DOUBLE_EQ(bucket(paths[0], obs::Cause::kConsensusRound), 5.0);
  EXPECT_DOUBLE_EQ(bucket(paths[0], obs::Cause::kBatchWait), 2.0);
}

// Without a kSeqEnter anchor the ordering-phase residual is consensus
// time (FD); with one it is sequencer-queue time (GM).
TEST(CausalWalker, OrderingResidualDefaultsByStack) {
  obs::Observer fd(3, causal_cfg());
  fd.on_submit(0, 1, 0.0);
  fd.on_order_start(0, 1, 0.0);
  fd.on_ordered(0, 1, 8.0);
  fd.on_delivered(0, 1, 10.0, 2);
  const auto fd_paths = fd.critical_paths(0.0, kInf);
  ASSERT_EQ(fd_paths.size(), 1u);
  EXPECT_DOUBLE_EQ(bucket(fd_paths[0], obs::Cause::kConsensusRound), 8.0);
  EXPECT_DOUBLE_EQ(bucket(fd_paths[0], obs::Cause::kWire), 2.0);  // delivery default

  obs::Observer gm(3, causal_cfg());
  gm.on_submit(0, 1, 0.0);
  gm.on_order_start(0, 1, 0.0);
  gm.trace_marker(obs::EdgeKind::kSeqEnter, 1, one(0, 1), 2.0);
  gm.on_ordered(0, 1, 8.0);
  gm.on_delivered(0, 1, 10.0, 2);
  const auto gm_paths = gm.critical_paths(0.0, kInf);
  ASSERT_EQ(gm_paths.size(), 1u);
  // [2, 8) claimed by the sequencer-queue anchor; the [0, 2) residual
  // falls to the seq_queue default too (kSeqEnter was seen).
  EXPECT_DOUBLE_EQ(bucket(gm_paths[0], obs::Cause::kSeqQueue), 8.0);
  EXPECT_DOUBLE_EQ(bucket(gm_paths[0], obs::Cause::kConsensusRound), 0.0);
}

// A loss-recovery stall outranks the hops of the recovering frame: time
// covered by both is attributed to the stall, not double-counted.
TEST(CausalWalker, StallOutranksOverlappingHops) {
  obs::Observer o(3, causal_cfg());
  o.on_submit(0, 1, 0.0);
  o.on_order_start(0, 1, 0.0);
  o.on_ordered(0, 1, 2.0);
  o.on_delivered(0, 1, 12.0, 2);
  // Delivery phase [2, 12): a NACK stall [2, 9) overlapping a recv-CPU
  // pair [8, 10).
  o.trace_stall(obs::EdgeKind::kStallNack, 2, one(0, 1), 2.0, 9.0);
  o.trace_marker(obs::EdgeKind::kRecvEnq, 2, one(0, 1), 8.0);
  o.trace_marker(obs::EdgeKind::kRecvDone, 2, one(0, 1), 10.0);

  const auto paths = o.critical_paths(0.0, kInf);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_DOUBLE_EQ(bucket(paths[0], obs::Cause::kLossNack), 7.0);
  EXPECT_DOUBLE_EQ(bucket(paths[0], obs::Cause::kCpuQueue), 1.0);  // only [9, 10)
  EXPECT_DOUBLE_EQ(bucket(paths[0], obs::Cause::kWire), 2.0);      // residual
  EXPECT_DOUBLE_EQ(row_sum(paths[0]), 12.0);
}

// Submission-phase residual: batch wait by default, credit wait when a
// kCreditClosed marker was recorded for the message.
TEST(CausalWalker, SubmissionResidualSplitsByCreditMarker) {
  obs::Observer batch(3, causal_cfg());
  batch.on_submit(0, 1, 0.0);
  batch.on_order_start(0, 1, 4.0);
  batch.on_ordered(0, 1, 5.0);
  batch.on_delivered(0, 1, 6.0, 2);
  const auto b = batch.critical_paths(0.0, kInf);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_DOUBLE_EQ(bucket(b[0], obs::Cause::kBatchWait), 4.0);
  EXPECT_DOUBLE_EQ(bucket(b[0], obs::Cause::kCreditWait), 0.0);

  obs::Observer credit(3, causal_cfg());
  credit.on_submit(0, 1, 0.0);
  credit.trace_marker(obs::EdgeKind::kCreditClosed, 0, one(0, 1), 0.0);
  credit.on_order_start(0, 1, 4.0);
  credit.on_ordered(0, 1, 5.0);
  credit.on_delivered(0, 1, 6.0, 2);
  const auto c = credit.critical_paths(0.0, kInf);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_DOUBLE_EQ(bucket(c[0], obs::Cause::kCreditWait), 4.0);
  EXPECT_DOUBLE_EQ(bucket(c[0], obs::Cause::kBatchWait), 0.0);
}

TEST(CausalWalker, WindowFiltersBySubmitTime) {
  obs::Observer o(3, causal_cfg());
  for (std::uint64_t s = 1; s <= 3; ++s) {
    const double t = static_cast<double>(s) * 10.0;
    o.on_submit(0, s, t);
    o.on_order_start(0, s, t);
    o.on_ordered(0, s, t + 1.0);
    o.on_delivered(0, s, t + 2.0, 2);
  }
  // Submitted inside [15, 25) but never delivered: walked by no window.
  o.on_submit(0, 4, 20.0);
  EXPECT_EQ(o.critical_paths(0.0, kInf).size(), 3u);
  EXPECT_EQ(o.critical_paths(15.0, 25.0).size(), 1u);
  const obs::CauseTotals t = o.cause_totals(15.0, 25.0);
  EXPECT_EQ(t.count, 1u);
  double sum = 0.0;
  for (double v : t.sums) sum += v;
  EXPECT_DOUBLE_EQ(sum, 2.0);
}

// A delivery that saw no order hook (e.g. a GM view-change flush):
// on_delivered fills order_start and ordered, so the walker's windows
// still cover the whole end-to-end latency.
TEST(CausalWalker, DeliveryWithoutOrderHooksCoversItsLatency) {
  obs::Observer o(1, causal_cfg());
  o.on_submit(0, 1, 10.0);
  o.on_delivered(0, 1, 30.0);
  const obs::CauseTotals t = o.cause_totals(0.0, kInf);
  EXPECT_EQ(t.count, 1u);
  double sum = 0.0;
  for (double v : t.sums) sum += v;
  EXPECT_DOUBLE_EQ(sum, 20.0);
}

// Disarmed causal tracing: markers are dropped, the walker still works
// off the lifecycle spans alone (pure residual attribution).
TEST(CausalWalker, MarkersIgnoredWhenCausalOff) {
  obs::Config cfg;
  cfg.enabled = true;  // armed, but causal off
  obs::Observer o(3, cfg);
  EXPECT_FALSE(o.causal());
  o.trace_marker(obs::EdgeKind::kSendEnq, 0, one(0, 1), 1.0);
  EXPECT_EQ(o.edges_recorded(), 0u);
}

// ---------------------------------------------------------------------
// Empirical FD QoS meter.
// ---------------------------------------------------------------------

obs::Config armed() {
  obs::Config c;
  c.enabled = true;
  return c;
}

TEST(QosMeter, CrashDetectionMeasuresTd) {
  obs::Observer o(3, armed());
  o.on_crash(2, 100.0);
  // Monitors 0 and 1 suspect the crashed target 30 / 50 ms later.
  o.on_fd_transition(0, 2, 0b11, 130.0);
  o.on_fd_transition(1, 2, 0b11, 150.0);
  const obs::QosMeasured& q = o.qos_measured();
  EXPECT_EQ(q.detections, 2u);
  EXPECT_DOUBLE_EQ(q.td_sum_ms, 30.0 + 50.0);
  EXPECT_EQ(q.mistakes, 0u);
  EXPECT_EQ(q.transitions, 2u);
}

TEST(QosMeter, DetectionCreditedOncePerCrash) {
  obs::Observer o(3, armed());
  o.on_crash(2, 100.0);
  o.on_fd_transition(0, 2, 0b11, 130.0);
  // Spurious extra suspect edge about the same crash epoch: no new
  // detection (transitions still count).
  o.on_fd_transition(0, 2, 0b01, 140.0);
  o.on_fd_transition(0, 2, 0b11, 150.0);
  const obs::QosMeasured& q = o.qos_measured();
  EXPECT_EQ(q.detections, 1u);
  EXPECT_DOUBLE_EQ(q.td_sum_ms, 30.0);

  // A recovery + second crash opens a new epoch: the next suspicion is a
  // fresh detection.
  o.on_recover(2, 200.0);
  o.on_fd_transition(0, 2, 0b00, 230.0);
  o.on_crash(2, 300.0);
  o.on_fd_transition(0, 2, 0b11, 340.0);
  EXPECT_EQ(o.qos_measured().detections, 2u);
  EXPECT_DOUBLE_EQ(o.qos_measured().td_sum_ms, 30.0 + 40.0);
}

TEST(QosMeter, WrongSuspicionMeasuresTmAndTmr) {
  obs::Observer o(2, armed());
  // Two completed mistakes of monitor 0 about the alive target 1.
  o.on_fd_transition(0, 1, 0b01, 1000.0);  // mistake 1 starts
  o.on_fd_transition(0, 1, 0b00, 1040.0);  // lasts 40 ms
  o.on_fd_transition(0, 1, 0b01, 3000.0);  // mistake 2: gap 2000 ms
  o.on_fd_transition(0, 1, 0b00, 3060.0);  // lasts 60 ms
  const obs::QosMeasured& q = o.qos_measured();
  EXPECT_EQ(q.mistakes, 2u);
  EXPECT_EQ(q.tm_count, 2u);
  EXPECT_DOUBLE_EQ(q.tm_sum_ms, 40.0 + 60.0);
  EXPECT_EQ(q.tmr_count, 1u);
  EXPECT_DOUBLE_EQ(q.tmr_sum_ms, 2000.0);
  EXPECT_EQ(q.detections, 0u);
}

// A mistake in progress when the target actually crashes ends at the
// crash (the suspicion became correct) and the monitor is credited with
// an instant detection.
TEST(QosMeter, CrashClosesInFlightMistake) {
  obs::Observer o(2, armed());
  o.on_fd_transition(0, 1, 0b01, 1000.0);  // wrong suspicion opens
  o.on_crash(1, 1025.0);                   // target dies mid-mistake
  const obs::QosMeasured& q = o.qos_measured();
  EXPECT_EQ(q.tm_count, 1u);
  EXPECT_DOUBLE_EQ(q.tm_sum_ms, 25.0);
  EXPECT_EQ(q.detections, 1u);
  EXPECT_DOUBLE_EQ(q.td_sum_ms, 0.0);
}

// ---------------------------------------------------------------------
// Export shapes.
// ---------------------------------------------------------------------

TEST(CausalCsv, CriticalPathCsvShape) {
  obs::Observer o(2, causal_cfg());
  o.on_submit(0, 1, 0.0);
  o.on_order_start(0, 1, 0.0);
  o.on_ordered(0, 1, 1.0);
  o.on_delivered(0, 1, 3.0, 1);
  std::ostringstream os;
  o.write_critical_path_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("origin,seq,submit_ms,delivered_ms,latency_ms,credit_wait,"
                     "batch_wait,cpu_queue,wire,loss_nack,loss_timer,loss_backoff,"
                     "seq_queue,consensus_round,reorder_hold"),
            std::string::npos);
  EXPECT_NE(csv.find("\n0,1,0,3,3,"), std::string::npos);
  EXPECT_NE(csv.find("# cause,sum_ms,p50_ms,p99_ms over 1 messages"), std::string::npos);
  EXPECT_NE(csv.find("# consensus_round,1,"), std::string::npos);
}

/// Runs one armed steady replica of a causal GM run whose exports go to
/// `dir`; returns the run's statistics.  `edge_capacity` 64 overflows the
/// edge slabs like the undersized-slab cases above.
RunStats export_run(const std::filesystem::path& dir, std::size_t edge_capacity,
                    std::ostream& warn) {
  obs::ExportSink sink({(dir / "trace.json").string(), (dir / "metrics.csv").string(),
                        (dir / "per_node.csv").string(), (dir / "cp.csv").string()},
                       warn);
  SimConfig cfg;
  cfg.algorithm = Algorithm::kGm;
  cfg.n = 5;
  cfg.seed = 424242;
  cfg.obs.enabled = true;
  cfg.obs.causal = true;
  cfg.obs.per_node_metrics = true;
  cfg.obs.edge_capacity = edge_capacity;
  cfg.obs.sink = &sink;
  SteadyConfig sc;
  sc.throughput = 100.0;
  sc.warmup_ms = 500.0;
  sc.samples = 80;
  sc.replicas = 1;  // the exported replica is the whole point
  const PointResult r = run_steady(cfg, sc);
  EXPECT_TRUE(r.stable);
  EXPECT_TRUE(sink.written());
  return r.stats;
}

std::string last_line(std::string text) {
  while (!text.empty() && text.back() == '\n') text.pop_back();
  return text.substr(text.rfind('\n') + 1);
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream f(p);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// A truncated export is never silent: every CSV export ends with the drop
// counts and the sink warns once; the JSON trace gets only the warning.
// An export without drops carries neither.
TEST(CausalExport, TruncatedExportCarriesDropFooterAndWarning) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("fdgm_export_" + std::to_string(static_cast<long>(::getpid())));
  std::ostringstream warn;
  const RunStats st = export_run(dir, 64, warn);
  ASSERT_GT(st.edges_dropped, 0u);
  const std::string footer = "# dropped spans=" + std::to_string(st.spans_dropped) +
                             ",edges=" + std::to_string(st.edges_dropped) +
                             ",snapshots=" + std::to_string(st.snapshots_dropped);
  for (const char* csv : {"metrics.csv", "per_node.csv", "cp.csv"})
    EXPECT_EQ(last_line(slurp(dir / csv)), footer) << csv;
  EXPECT_EQ(slurp(dir / "trace.json").find("# dropped"), std::string::npos);
  EXPECT_NE(warn.str().find("edges=" + std::to_string(st.edges_dropped)), std::string::npos)
      << warn.str();
  EXPECT_EQ(warn.str().find("obs:"), warn.str().rfind("obs:")) << "one warning";

  std::ostringstream quiet;
  const RunStats full = export_run(dir, 65536, quiet);
  EXPECT_EQ(full.edges_dropped + full.spans_dropped + full.snapshots_dropped, 0u);
  EXPECT_EQ(quiet.str(), "");
  for (const char* file : {"trace.json", "metrics.csv", "per_node.csv", "cp.csv"})
    EXPECT_EQ(slurp(dir / file).find("# dropped"), std::string::npos) << file;
  std::filesystem::remove_all(dir);
}

// End-to-end exactness at the stack level: every walked message of a
// lossy transported run decomposes to its end-to-end latency, bit-exact
// sums within floating-point residue.
TEST(CausalEndToEnd, LossyRunDecomposesEveryMessageExactly) {
  for (Algorithm algo : {Algorithm::kFd, Algorithm::kGm}) {
    SimConfig cfg;
    cfg.algorithm = algo;
    cfg.n = 5;
    cfg.seed = 424242;
    cfg.transport.enabled = true;
    cfg.obs.enabled = true;
    cfg.obs.causal = true;
    cfg.fd_params.detection_time = 30.0;
    fault::FaultEvent e;
    e.kind = fault::FaultKind::kLoss;
    e.rate = 0.05;
    e.at = 0.0;
    e.until = 1.0e7;
    cfg.faults.add(e);
    SimRun run(cfg, WorkloadConfig{.throughput = 200.0});
    run.start();
    run.run_until(3000.0);

    const obs::Observer* o = run.observer();
    ASSERT_NE(o, nullptr);
    const auto paths = o->critical_paths(0.0, kInf);
    ASSERT_GT(paths.size(), 100u);
    std::size_t recovery_rows = 0;
    for (const obs::MsgCausal& m : paths) {
      const double e2e = m.delivered - m.submit;
      EXPECT_NEAR(row_sum(m), e2e, 1e-9 * std::max(1.0, e2e));
      const double recovery = bucket(m, obs::Cause::kLossNack) +
                              bucket(m, obs::Cause::kLossTimer) +
                              bucket(m, obs::Cause::kLossBackoff);
      if (recovery > 0.0) ++recovery_rows;
    }
    // 5% loss at n=5: a visible fraction of messages must show recovery
    // stalls on their critical path.
    EXPECT_GT(recovery_rows, 10u) << "algo=" << static_cast<int>(algo);
  }
}

}  // namespace
}  // namespace fdgm::core
