// Golden-seed determinism: one FD and one GM steady-state run (n = 5,
// wrong suspicions on, fixed seed) must reproduce the exact delivery
// sequence — process, message id, broadcast time and delivery time of
// every local A-delivery, in global event order — that the pre-refactor
// event core produced.  The committed hashes were captured from the PR-2
// core; any accidental change to event ordering (scheduler FIFO ties,
// network pipeline stage order, payload handling) shows up here long
// before it would surface as a drifting results CSV.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string_view>

#include "core/experiment.hpp"
#include "core/parallel.hpp"

namespace fdgm::core {
namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

/// Mixes every local A-delivery of one process into the shared hash.
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

constexpr double kHorizonMs = 3000.0;

/// Driving the golden run in 1 ms run_until slices parks the wheel cursor
/// at every boundary with the next bucket peeked but not consumed, and
/// re-enters it 3000 times; the event order must not notice.
constexpr double kSliceMs = 1.0;

/// Hash of the golden run's delivery sequence and executed-event count.
/// `slice_ms` > 0 drives the run in run_until slices of that length
/// instead of one call; `executed` (optional) receives the event count;
/// `faults` (optional) is a fault schedule in the --faults grammar.
std::uint64_t delivery_hash(Algorithm algo, bool transport = false, bool batching = false,
                            bool observed = false, double slice_ms = 0.0,
                            std::uint64_t* executed = nullptr, std::string_view faults = {}) {
  SimConfig cfg;
  if (!faults.empty()) cfg.faults = fault::FaultSchedule::parse(faults);
  cfg.algorithm = algo;
  cfg.n = 5;
  cfg.seed = 424242;
  cfg.transport.enabled = transport;
  cfg.batching.enabled = batching;
  cfg.obs.enabled = observed;
  cfg.fd_params.detection_time = 30.0;
  cfg.fd_params.wrong_suspicions = true;
  cfg.fd_params.mistake_recurrence = 2000.0;
  cfg.fd_params.mistake_duration = 50.0;
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
  if (slice_ms > 0.0)
    for (double t = slice_ms; t < kHorizonMs; t += slice_ms) run.run_until(t);
  run.run_until(kHorizonMs);
  f.mix(run.system().scheduler().executed());
  if (executed != nullptr) *executed = run.system().scheduler().executed();
  return f.h;
}

/// `width` copies of one golden run executed concurrently, one per worker
/// of a `width`-wide pool — the shape `--jobs` gives replica runs.  Each
/// copy owns its whole simulation, so every copy must reproduce the
/// serial golden.
std::vector<std::uint64_t> concurrent_hashes(int width, Algorithm algo, bool transport = false,
                                             bool batching = false, bool observed = false) {
  const auto w = static_cast<std::size_t>(width);
  return parallel_map(w, w, [&](std::size_t) {
    return delivery_hash(algo, transport, batching, observed);
  });
}

// Captured from the pre-refactor (PR-2) core at the same config; see the
// file comment.  If a change legitimately alters event ordering, recapture
// both constants and say so loudly in the PR.
constexpr std::uint64_t kGoldenFd = 0xbe21fd2abfc47b91ULL;
constexpr std::uint64_t kGoldenGm = 0x04be61f21cc65d6eULL;

TEST(GoldenSeed, FdDeliverySequenceMatchesPreRefactorCore) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd), kGoldenFd);
}

TEST(GoldenSeed, GmDeliverySequenceMatchesPreRefactorCore) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm), kGoldenGm);
}

// The hash must also be invariant to repetition within one process (no
// hidden global state in the refactored core).
TEST(GoldenSeed, HashIsStableAcrossRepeatedRuns) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd), delivery_hash(Algorithm::kFd));
}

// The goldens were captured from a binary-heap event core; the timing
// wheel must reproduce them bit-for-bit — same constants, not merely
// self-consistency — also when driven in kSliceMs run_until slices.  This
// is the protocol-stack-level proof that the wheel orders events like a
// heap (the scheduler unit tests fuzz the same property against a
// reference queue on synthetic loads).
TEST(GoldenSeed, WheelBackendMatchesHeapGoldenFd) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd, false, false, false, kSliceMs), kGoldenFd);
}

TEST(GoldenSeed, WheelBackendMatchesHeapGoldenGm) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm, false, false, false, kSliceMs), kGoldenGm);
}

// The armed retransmission transport must be invisible on loss-free
// channels: with nothing to recover it stamps frames (counter arithmetic
// in the existing wire-completion events) but schedules no timers and
// sends no control frames, so the delivery sequence AND the executed
// event count reproduce the same golden constants — the strongest form
// of the "bit-identical when loss is off" guarantee, checked in one call
// and in kSliceMs slices.
TEST(GoldenSeed, TransportArmedMatchesGoldenFd) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd, true), kGoldenFd);
}

TEST(GoldenSeed, TransportArmedMatchesGoldenGm) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm, true), kGoldenGm);
}

TEST(GoldenSeed, TransportArmedWheelMatchesGoldenFd) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd, true, false, false, kSliceMs), kGoldenFd);
}

TEST(GoldenSeed, TransportArmedWheelMatchesGoldenGm) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm, true, false, false, kSliceMs), kGoldenGm);
}

// Batching armed: the delivery sequence legitimately differs from the
// unbatched goldens (submissions ride flush timers and batch payloads),
// but it must be just as deterministic — its own golden constants,
// reproduced bit-for-bit in one call, in slices and across repeats.
constexpr std::uint64_t kGoldenFdBatch = 0x811dfe8fedd5b845ULL;
constexpr std::uint64_t kGoldenGmBatch = 0x37617f72e9f8c429ULL;

TEST(GoldenSeed, BatchingArmedGoldenFd) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd, false, true), kGoldenFdBatch);
}

TEST(GoldenSeed, BatchingArmedGoldenGm) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm, false, true), kGoldenGmBatch);
}

TEST(GoldenSeed, BatchingArmedWheelMatchesHeapGoldenFd) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd, false, true, false, kSliceMs), kGoldenFdBatch);
}

TEST(GoldenSeed, BatchingArmedWheelMatchesHeapGoldenGm) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm, false, true, false, kSliceMs), kGoldenGmBatch);
}

// Observability armed: the observer is strictly passive — it never
// schedules events and never draws from the RNG — so arming it must
// reproduce the *same* golden constants (delivery sequence AND executed
// event count), not merely a self-consistent one.  This is stronger than
// "off is free": tracing a run cannot perturb it.  Checked in one call
// and in slices, with the transport armed, and with batching on.
TEST(GoldenSeed, ObserverArmedMatchesGoldenFd) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd, false, false, true), kGoldenFd);
}

TEST(GoldenSeed, ObserverArmedMatchesGoldenGm) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm, false, false, true), kGoldenGm);
}

TEST(GoldenSeed, ObserverArmedWheelMatchesGoldenFd) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd, false, false, true, kSliceMs), kGoldenFd);
}

TEST(GoldenSeed, ObserverArmedWheelMatchesGoldenGm) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm, false, false, true, kSliceMs), kGoldenGm);
}

TEST(GoldenSeed, ObserverArmedWithTransportMatchesGoldenFd) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd, true, false, true), kGoldenFd);
}

TEST(GoldenSeed, ObserverArmedWithTransportMatchesGoldenGm) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm, true, false, true), kGoldenGm);
}

TEST(GoldenSeed, ObserverArmedBatchingGoldenFd) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd, false, true, true), kGoldenFdBatch);
}

TEST(GoldenSeed, ObserverArmedBatchingGoldenGm) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm, false, true, true), kGoldenGmBatch);
}

// A crash and recovery of p2 in the golden run: every monitor's renewal
// chain of p2 is restarted when the recovery is detected, while the
// chain pending from before the crash is still parked, so these pin the
// stale-chain check of QosFailureDetectorModel::restart_renewal (no
// committed CSV runs wrong suspicions across a recovery).  Captured from
// the closure-scheduled renewals the handler records replaced.
constexpr std::string_view kCrashRecover = "crash p2 @1000; recover p2 @1800";
constexpr std::uint64_t kGoldenFdRecover = 0xcab66aefef232121ULL;
constexpr std::uint64_t kGoldenGmRecover = 0xdd08952279711bc1ULL;

TEST(GoldenSeed, CrashRecoverGoldenFd) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd, false, false, false, 0.0, nullptr, kCrashRecover),
            kGoldenFdRecover);
  EXPECT_EQ(delivery_hash(Algorithm::kFd, false, false, false, kSliceMs, nullptr, kCrashRecover),
            kGoldenFdRecover);
}

TEST(GoldenSeed, CrashRecoverGoldenGm) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm, false, false, false, 0.0, nullptr, kCrashRecover),
            kGoldenGmRecover);
  EXPECT_EQ(delivery_hash(Algorithm::kGm, false, false, false, kSliceMs, nullptr, kCrashRecover),
            kGoldenGmRecover);
}

// Replica-level parallelism (--jobs) must not move a golden: 1, 2 and 8
// copies of each golden configuration run concurrently on a pool of that
// width, and every copy reproduces the serial constants.  Covered in
// every armed variant: plain, loss-free transport, batching, observer.
class GoldenSeedParallel : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Threads, GoldenSeedParallel, ::testing::Values(1, 2, 8));

TEST_P(GoldenSeedParallel, MatchesGoldenFd) {
  for (std::uint64_t h : concurrent_hashes(GetParam(), Algorithm::kFd)) EXPECT_EQ(h, kGoldenFd);
}

TEST_P(GoldenSeedParallel, MatchesGoldenGm) {
  for (std::uint64_t h : concurrent_hashes(GetParam(), Algorithm::kGm)) EXPECT_EQ(h, kGoldenGm);
}

TEST_P(GoldenSeedParallel, TransportArmedMatchesGoldenFd) {
  for (std::uint64_t h : concurrent_hashes(GetParam(), Algorithm::kFd, true))
    EXPECT_EQ(h, kGoldenFd);
}

TEST_P(GoldenSeedParallel, TransportArmedMatchesGoldenGm) {
  for (std::uint64_t h : concurrent_hashes(GetParam(), Algorithm::kGm, true))
    EXPECT_EQ(h, kGoldenGm);
}

TEST_P(GoldenSeedParallel, BatchingArmedGoldenFd) {
  for (std::uint64_t h : concurrent_hashes(GetParam(), Algorithm::kFd, false, true))
    EXPECT_EQ(h, kGoldenFdBatch);
}

TEST_P(GoldenSeedParallel, BatchingArmedGoldenGm) {
  for (std::uint64_t h : concurrent_hashes(GetParam(), Algorithm::kGm, false, true))
    EXPECT_EQ(h, kGoldenGmBatch);
}

TEST_P(GoldenSeedParallel, ObserverArmedMatchesGoldenFd) {
  for (std::uint64_t h : concurrent_hashes(GetParam(), Algorithm::kFd, false, false, true))
    EXPECT_EQ(h, kGoldenFd);
}

TEST_P(GoldenSeedParallel, ObserverArmedMatchesGoldenGm) {
  for (std::uint64_t h : concurrent_hashes(GetParam(), Algorithm::kGm, false, false, true))
    EXPECT_EQ(h, kGoldenGm);
}

// Executed-event counts asserted directly (not only through the hash):
// the golden run executes the same number of events as the binary-heap
// core the constants come from, in one call, in slices, and on every
// worker of a concurrent pool.
constexpr std::uint64_t kGoldenEventsFd = 14087;
constexpr std::uint64_t kGoldenEventsGm = 12821;

TEST(GoldenSeedParallel_Counts, ExecutedEventCountMatchesHeap) {
  for (Algorithm algo : {Algorithm::kFd, Algorithm::kGm}) {
    const std::uint64_t golden = algo == Algorithm::kFd ? kGoldenEventsFd : kGoldenEventsGm;
    std::uint64_t executed = 0;
    (void)delivery_hash(algo, false, false, false, 0.0, &executed);
    EXPECT_EQ(executed, golden) << algorithm_name(algo);
    (void)delivery_hash(algo, false, false, false, kSliceMs, &executed);
    EXPECT_EQ(executed, golden) << algorithm_name(algo) << " sliced";
    const std::vector<std::uint64_t> counts = parallel_map(8, 8, [algo](std::size_t) {
      std::uint64_t n = 0;
      (void)delivery_hash(algo, false, false, false, 0.0, &n);
      return n;
    });
    for (std::uint64_t n : counts) EXPECT_EQ(n, golden) << algorithm_name(algo) << " pool of 8";
  }
}

}  // namespace
}  // namespace fdgm::core
