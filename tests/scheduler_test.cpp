// Unit tests of the discrete-event scheduler: ordering, FIFO ties,
// cancellation, run_until semantics, stop, the guard rails, the
// generation-counted EventId semantics, a 1M-op randomized
// schedule/cancel/fire stress run (exercised under ASan by the CI
// sanitize job) and the zero-allocation steady-state guarantee.
//
// Order is checked against a test-only reference queue — a sorted
// (t, seq) multiset with lazy cancel, the textbook definition of a
// FIFO-tie-breaking event queue, where a handler record is one more
// closure.  The randomized fuzz and the stress run replay the same load,
// closure and handler records mixed, on both and require identical
// firing sequences (ties, cancellations, nested schedules, level-2
// cascades and far-future overflow spills included).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "sim/scheduler.hpp"

namespace fdgm::sim {
namespace {

/// Test-only reference queue: pending events as a sorted (t, seq)
/// multiset, callbacks keyed by seq.  Cancel is lazy — it drops the
/// callback and the stale key is skipped when it reaches the front — so
/// the reference shares the scheduler's cancel semantics, not its code.
class ReferenceQueue {
 public:
  Time now() const { return now_; }
  std::uint64_t executed() const { return executed_; }

  std::uint64_t schedule_at(Time t, std::function<void()> f) {
    if (t < now_) throw std::invalid_argument("ReferenceQueue: time in the past");
    const std::uint64_t seq = next_seq_++;
    keys_.emplace(t, seq);
    callbacks_.emplace(seq, std::move(f));
    return seq;
  }
  std::uint64_t schedule_after(Time delay, std::function<void()> f) {
    return schedule_at(now_ + delay, std::move(f));
  }
  bool cancel(std::uint64_t id) { return callbacks_.erase(id) == 1; }

  /// Handler records: a closure calling fn(ctx, arg), with its seq.
  std::uint32_t add_handler(Scheduler::HandlerFn fn, void* ctx) {
    handlers_.emplace_back(fn, ctx);
    return static_cast<std::uint32_t>(handlers_.size() - 1);
  }
  std::uint64_t schedule_handler_at(Time t, std::uint32_t h, std::uint32_t arg) {
    const auto [fn, ctx] = handlers_.at(h);
    const std::uint64_t seq = next_seq_;
    return schedule_at(t, [this, fn, ctx, arg, seq] {
      firing_seq_ = seq;
      fn(ctx, arg);
    });
  }
  std::uint64_t firing_seq() const { return firing_seq_; }
  std::size_t pending() const { return callbacks_.size(); }

  std::uint64_t run_until(Time t) {
    std::uint64_t n = 0;
    while (pop_due(t)) ++n;
    if (now_ < t) now_ = t;
    return n;
  }
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX) {
    std::uint64_t n = 0;
    while (n < max_events && pop_due(kTimeInfinity)) ++n;
    return n;
  }

 private:
  /// Fires the earliest live event with t <= limit; false when none.
  bool pop_due(Time limit) {
    while (!keys_.empty()) {
      const auto [t, seq] = *keys_.begin();
      auto it = callbacks_.find(seq);
      if (it == callbacks_.end()) {
        keys_.erase(keys_.begin());  // cancelled
        continue;
      }
      if (t > limit) return false;
      keys_.erase(keys_.begin());
      std::function<void()> f = std::move(it->second);
      callbacks_.erase(it);
      now_ = t;
      ++executed_;
      f();
      return true;
    }
    return false;
  }

  std::set<std::pair<Time, std::uint64_t>> keys_;
  std::map<std::uint64_t, std::function<void()>> callbacks_;
  std::vector<std::pair<Scheduler::HandlerFn, void*>> handlers_;
  std::uint64_t firing_seq_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  Time now_ = kTimeZero;
};

// Every API test runs at three time origins, so the same relative
// schedule lands in different parts of the one pending queue.  The
// instance names are stable test identifiers:
//  * heap  — 8 ms below the wheel's top-window boundary (2^24 ticks), with
//            the cursor still at tick 0: events start in the level-2
//            buckets or the overflow heap and reach level 0 through
//            cascades and overflow pulls;
//  * wheel — t = 0: a fresh wheel, events in the level-0/1 buckets;
//  * par   — a partial-tick origin (off the 1/16 ms grid) 8 ms below a
//            level-2 window boundary: sub-tick timestamps, and every
//            test crosses a level-2 cascade.
enum class Origin : std::uint8_t { kHeap, kWheel, kPartialTick };

double origin_ms(Origin o) {
  switch (o) {
    case Origin::kHeap:
      return 1048576.0 - 8.0;
    case Origin::kWheel:
      return 0.0;
    case Origin::kPartialTick:
      return 4096.0 - 8.0 + 1.0 / 32.0;
  }
  return 0.0;
}

const char* origin_name(Origin o) {
  switch (o) {
    case Origin::kHeap:
      return "heap";
    case Origin::kWheel:
      return "wheel";
    case Origin::kPartialTick:
      return "par";
  }
  return "?";
}

class SchedulerTest : public ::testing::TestWithParam<Origin> {
 protected:
  void SetUp() override { s_.run_until(origin_ms(GetParam())); }
  /// The scheduler, advanced (idle) to this instance's origin.
  Scheduler& sched() { return s_; }
  /// Absolute time `rel` ms after the origin.
  static double T(double rel) { return origin_ms(GetParam()) + rel; }

 private:
  Scheduler s_;
};

INSTANTIATE_TEST_SUITE_P(Backends, SchedulerTest,
                         ::testing::Values(Origin::kHeap, Origin::kWheel, Origin::kPartialTick),
                         [](const auto& info) { return origin_name(info.param); });

TEST_P(SchedulerTest, StartsAtTimeZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0.0);
  EXPECT_EQ(s.executed(), 0u);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(sched().now(), T(0.0));
  EXPECT_EQ(sched().executed(), 0u);
}

TEST_P(SchedulerTest, ExecutesInTimestampOrder) {
  Scheduler& s = sched();
  std::vector<int> order;
  s.schedule_at(T(5.0), [&] { order.push_back(2); });
  s.schedule_at(T(1.0), [&] { order.push_back(1); });
  s.schedule_at(T(9.0), [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), T(9.0));
}

TEST_P(SchedulerTest, EqualTimestampsRunFifo) {
  Scheduler& s = sched();
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) s.schedule_at(T(3.0), [&order, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST_P(SchedulerTest, ScheduleAfterUsesCurrentTime) {
  Scheduler& s = sched();
  double fired_at = -1;
  s.schedule_at(T(10.0), [&] { s.schedule_after(5.0, [&] { fired_at = s.now(); }); });
  s.run();
  EXPECT_EQ(fired_at, T(15.0));
}

TEST_P(SchedulerTest, RejectsPastAndNegative) {
  Scheduler& s = sched();
  s.schedule_at(T(10.0), [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(T(5.0), [] {}), std::invalid_argument);
  EXPECT_THROW(s.schedule_after(-1.0, [] {}), std::invalid_argument);
}

TEST_P(SchedulerTest, CancelPreventsExecution) {
  Scheduler& s = sched();
  bool fired = false;
  EventId id = s.schedule_at(T(1.0), [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(fired);
}

TEST_P(SchedulerTest, CancelReturnsFalseForUnknownOrDouble) {
  Scheduler& s = sched();
  EventId id = s.schedule_at(T(1.0), [] {});
  EXPECT_FALSE(s.cancel(9999));
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
  s.run();
}

TEST_P(SchedulerTest, CancelledEventDoesNotAdvanceTime) {
  Scheduler& s = sched();
  EventId id = s.schedule_at(T(100.0), [] {});
  s.schedule_at(T(1.0), [] {});
  s.cancel(id);
  s.run();
  EXPECT_EQ(s.now(), T(1.0));
}

TEST_P(SchedulerTest, ScheduleAfterDrainingPastCancelledFarEvent) {
  // Regression: draining a queue whose tail was cancelled leaves the
  // wheel cursor ahead of now(); a later schedule between now() and the
  // cursor must still work (and fire in order with a new far event).
  Scheduler& s = sched();
  std::vector<int> order;
  s.schedule_at(T(1.0), [&] { order.push_back(1); });
  EventId far = s.schedule_at(T(100.0), [&] { order.push_back(99); });
  s.cancel(far);
  s.run();
  EXPECT_EQ(s.now(), T(1.0));
  s.schedule_at(T(2.0), [&] { order.push_back(2); });
  s.schedule_at(T(150.0), [&] { order.push_back(3); });
  s.schedule_at(T(2.0), [&] { order.push_back(4); });  // FIFO tie behind the cursor
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
  EXPECT_EQ(s.now(), T(150.0));
}

TEST_P(SchedulerTest, ScheduleAfterDrainingPastCancelledOverflowEvent) {
  // Same shape through the wheel's overflow heap: the cancelled event
  // sits beyond the top window, so the drain takes the overflow-jump
  // path before finding the queue empty.
  Scheduler& s = sched();
  int fired = 0;
  s.schedule_at(T(1.0), [&] { ++fired; });
  EventId far = s.schedule_at(T(5.0e6), [&] { ++fired; });
  s.cancel(far);
  s.run();
  EXPECT_EQ(s.now(), T(1.0));
  s.schedule_at(T(2.0), [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), T(2.0));
}

TEST_P(SchedulerTest, RunUntilStopsAtBoundary) {
  Scheduler& s = sched();
  std::vector<double> times;
  for (double t : {1.0, 2.0, 3.0, 4.0})
    s.schedule_at(T(t), [&times, &s] { times.push_back(s.now()); });
  s.run_until(T(2.5));
  EXPECT_EQ(times, (std::vector<double>{T(1.0), T(2.0)}));
  EXPECT_EQ(s.now(), T(2.5));
  s.run_until(T(10.0));
  EXPECT_EQ(times.size(), 4u);
  EXPECT_EQ(s.now(), T(10.0));
}

TEST_P(SchedulerTest, RunUntilInclusiveOfBoundaryEvents) {
  Scheduler& s = sched();
  bool fired = false;
  s.schedule_at(T(2.0), [&] { fired = true; });
  s.run_until(T(2.0));
  EXPECT_TRUE(fired);
}

TEST_P(SchedulerTest, RunUntilAdvancesTimeWithEmptyQueue) {
  Scheduler& s = sched();
  s.run_until(T(42.0));
  EXPECT_EQ(s.now(), T(42.0));
}

TEST_P(SchedulerTest, ScheduleBetweenRunUntilBoundaries) {
  // A peeked-but-not-due event must not block a later schedule that lands
  // before it (regression guard for the wheel cursor's refill path).
  Scheduler& s = sched();
  std::vector<int> order;
  s.schedule_at(T(100.0), [&] { order.push_back(2); });
  s.run_until(T(50.0));  // peeks the +100 event, leaves it pending
  s.schedule_at(T(60.0), [&] { order.push_back(1); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_P(SchedulerTest, StopHaltsRun) {
  Scheduler& s = sched();
  int count = 0;
  for (double t : {1.0, 2.0, 3.0}) {
    s.schedule_at(T(t), [&] {
      ++count;
      if (count == 2) s.stop();
    });
  }
  s.run();
  EXPECT_EQ(count, 2);
  EXPECT_TRUE(s.stopped());
  s.clear_stop();
  s.run();
  EXPECT_EQ(count, 3);
}

TEST_P(SchedulerTest, MaxEventsGuard) {
  Scheduler& s = sched();
  // A self-rescheduling event would run forever without the guard.
  std::function<void()> loop = [&] { s.schedule_after(1.0, loop); };
  s.schedule_after(1.0, loop);
  const std::uint64_t n = s.run(1000);
  EXPECT_EQ(n, 1000u);
}

TEST_P(SchedulerTest, EventsScheduledDuringExecutionAtSameTimeRun) {
  Scheduler& s = sched();
  std::vector<int> order;
  s.schedule_at(T(1.0), [&] {
    order.push_back(1);
    s.schedule_at(T(1.0), [&] { order.push_back(2); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.now(), T(1.0));
}

TEST_P(SchedulerTest, ExecutedCounter) {
  Scheduler& s = sched();
  for (int i = 0; i < 5; ++i) s.schedule_at(T(i), [] {});
  s.run();
  EXPECT_EQ(s.executed(), 5u);
}

TEST_P(SchedulerTest, PendingCountExcludesCancelled) {
  Scheduler& s = sched();
  EventId a = s.schedule_at(T(1.0), [] {});
  s.schedule_at(T(2.0), [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
}

TEST_P(SchedulerTest, StepReturnsFalseWhenEmpty) {
  Scheduler& s = sched();
  EXPECT_FALSE(s.step());
  s.schedule_at(T(1.0), [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST_P(SchedulerTest, CancelAfterFireReturnsFalse) {
  // Generation counting: once an event fired, its id must never cancel a
  // later event that happens to reuse the same slab slot.
  Scheduler& s = sched();
  int fired = 0;
  EventId a = s.schedule_at(T(1.0), [&] { ++fired; });
  s.run();
  EXPECT_FALSE(s.cancel(a));
  EventId b = s.schedule_at(T(2.0), [&] { ++fired; });  // reuses a's slot
  EXPECT_FALSE(s.cancel(a));                            // stale id, live slot
  EXPECT_TRUE(s.cancel(b));
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST_P(SchedulerTest, OversizedCallbackStillWorks) {
  // Callables beyond the inline slab buffer take the heap fallback.
  Scheduler& s = sched();
  struct Big {
    double blob[16];
  } big{};
  big.blob[7] = 42.0;
  double seen = 0;
  static_assert(sizeof(Big) > Scheduler::kInlineCallbackBytes);
  EventId id = s.schedule_at(T(1.0), [big, &seen] { seen = big.blob[7]; });
  s.schedule_at(T(2.0), [big, &seen] { seen += big.blob[7]; });
  EXPECT_TRUE(s.cancel(id));  // cancellation must destroy the heap copy
  s.run();
  EXPECT_EQ(seen, 42.0);
}

/// 1M schedule/cancel/fire ops with randomized interleaving, folded into
/// an order-sensitive digest of (fire time, token) — identical loads on
/// the scheduler and the reference queue must produce identical digests.
/// One in four records is a handler record, which cannot be cancelled.
template <typename Queue, typename Id>
std::uint64_t stress_digest(Queue& q, std::uint64_t& scheduled, std::uint64_t& cancelled) {
  std::mt19937_64 rng(20260729);
  std::vector<Id> open;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  struct Ctx {
    Queue* q;
    std::uint64_t* digest;
  };
  Ctx ctx{&q, &digest};
  const auto mix = [](void* c, std::uint32_t token) {
    const Ctx& x = *static_cast<Ctx*>(c);
    *x.digest = (*x.digest ^ token ^ std::bit_cast<std::uint64_t>(x.q->now())) * 0x100000001b3ULL;
  };
  const std::uint32_t handler = q.add_handler(mix, &ctx);
  constexpr std::uint64_t kOps = 1'000'000;
  while (scheduled < kOps) {
    const std::uint64_t burst = 1 + rng() % 8;
    for (std::uint64_t i = 0; i < burst && scheduled < kOps; ++i) {
      // Mostly short horizons; one in 512 lands far enough out to cross
      // wheel levels, one in 4096 beyond the top window (overflow spill).
      double delay = static_cast<double>(rng() % 1000) * 0.1;
      if (rng() % 512 == 0) delay += static_cast<double>(rng() % 100'000);
      if (rng() % 4096 == 0) delay += 2.0e6;
      const auto token = static_cast<std::uint32_t>(scheduled);
      if (rng() % 4 == 0) {
        q.schedule_handler_at(q.now() + delay, handler, token);
      } else {
        open.push_back(q.schedule_after(delay, [&ctx, mix, token] { mix(&ctx, token); }));
      }
      ++scheduled;
    }
    if (!open.empty() && rng() % 4 == 0) {
      const std::size_t idx = rng() % open.size();
      if (q.cancel(open[idx])) ++cancelled;
      open[idx] = open.back();
      open.pop_back();
    }
    if (rng() % 8 == 0) q.run(rng() % 64);  // partial drains interleave
  }
  q.run();
  return digest;
}

TEST_P(SchedulerTest, StressMillionOpsRandomizedCancellation) {
  // Every scheduled event either fires exactly once or is cancelled
  // exactly once, in the reference queue's order.  The CI sanitize job
  // runs this under ASan/UBSan, which guards the slab's
  // placement-new/relocate/destroy paths and the bucket/cascade/overflow
  // record paths.
  Scheduler& s = sched();
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  const std::uint64_t digest = stress_digest<Scheduler, EventId>(s, scheduled, cancelled);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.executed(), scheduled - cancelled);

  ReferenceQueue ref;
  ref.run_until(T(0.0));
  std::uint64_t ref_scheduled = 0;
  std::uint64_t ref_cancelled = 0;
  const std::uint64_t ref_digest =
      stress_digest<ReferenceQueue, std::uint64_t>(ref, ref_scheduled, ref_cancelled);
  EXPECT_EQ(ref_digest, digest);
  EXPECT_EQ(ref_cancelled, cancelled);
  EXPECT_EQ(ref.executed(), s.executed());
  EXPECT_EQ(ref.now(), s.now());
}

TEST_P(SchedulerTest, SteadyStateZeroHeapAllocationsPerEvent) {
  Scheduler& s = sched();
  std::uint64_t sink = 0;
  // Realistic ~40-byte capture, like a network pipeline stage closure.
  auto burst = [&s, &sink] {
    Scheduler* sp = &s;
    for (int i = 0; i < 256; ++i) {
      const auto a = static_cast<std::uint64_t>(i);
      s.schedule_after(static_cast<double>(i % 16), [sp, a, &sink] {
        sink += a + sp->executed();
      });
    }
  };
  // Warm-up: slab/node/overflow capacity, one full lap of the level-0
  // slots (so every bucket the cursor will revisit has capacity), and the
  // origin's window crossing.
  for (int round = 0; round < 4; ++round) {
    burst();
    s.run();
  }
  const std::uint64_t before = g_alloc_count;
  for (int round = 0; round < 50; ++round) {
    burst();
    s.run();
  }
  EXPECT_EQ(g_alloc_count - before, 0u) << "scheduler steady state must not allocate";
  EXPECT_GT(sink, 0u);
}

TEST_P(SchedulerTest, SteadyStateZeroHeapAllocationsWithCancellation) {
  Scheduler& s = sched();
  std::uint64_t sink = 0;
  std::vector<EventId> ids(128);
  auto round = [&] {
    for (int i = 0; i < 128; ++i)
      ids[static_cast<std::size_t>(i)] =
          s.schedule_after(static_cast<double>(i % 16), [&sink] { ++sink; });
    for (int i = 0; i < 128; i += 2) s.cancel(ids[static_cast<std::size_t>(i)]);
    s.run();
  };
  for (int r = 0; r < 4; ++r) round();  // warm-up (see above)
  const std::uint64_t before = g_alloc_count;
  for (int r = 0; r < 50; ++r) round();
  EXPECT_EQ(g_alloc_count - before, 0u) << "O(1) cancel must not allocate";
}

// ------------------------------------------------------------------- wheel

/// Executes a deterministic randomized load and records every firing as
/// (time, token): N initial events over quantized times (forcing FIFO
/// ties), a third of them handler records, ~25% of the closure records
/// cancelled, nested follow-up schedules from inside callbacks and
/// handlers (closures scheduling handler records and back, at the firing
/// instant too), a 5 s – 15 min band that parks in the wheel's level 2
/// and reaches level 0 through cascades, and a far-future slice spilling
/// into the overflow heap.  Entries at negative times record the pending
/// and executed counts between the drains.
template <typename Queue, typename Id>
std::vector<std::pair<double, std::uint64_t>> firing_trace(std::uint64_t seed) {
  Queue q;
  std::mt19937_64 rng(seed);
  std::vector<std::pair<double, std::uint64_t>> fired;
  std::vector<Id> ids;
  struct Ctx {
    Queue* q;
    std::vector<std::pair<double, std::uint64_t>>* fired;
  };
  Ctx ctx{&q, &fired};
  // A handler record logs its token and firing seq; every third one
  // schedules a closure follow-up.
  const std::uint32_t handler = q.add_handler(
      [](void* c, std::uint32_t token) {
        const Ctx& x = *static_cast<Ctx*>(c);
        x.fired->emplace_back(x.q->now(), token);
        x.fired->emplace_back(-3.0, x.q->firing_seq());
        if (token % 3 == 0) {
          const std::uint64_t follow = token + 2'000'000;
          x.q->schedule_after(static_cast<double>(token % 5) * 0.25,
                              [x, follow] { x.fired->emplace_back(x.q->now(), follow); });
        }
      },
      &ctx);
  std::vector<std::uint64_t> handler_seqs;
  constexpr int kEvents = 4000;
  for (std::uint32_t token = 0; token < kEvents; ++token) {
    double t = static_cast<double>(rng() % 2000) * 0.25;  // quantized: many ties
    if (rng() % 16 == 0) t += 5000.0 + static_cast<double>(rng() % 3580) * 250.0;  // cascade band
    if (rng() % 64 == 0) t += static_cast<double>(rng() % 3) * 1.5e6;  // overflow band
    if (token % 3 == 1) {
      handler_seqs.push_back(q.schedule_handler_at(t, handler, token));
      continue;
    }
    ids.push_back(q.schedule_at(t, [&q, &fired, token, handler] {
      fired.emplace_back(q.now(), token);
      if (token % 3 == 0) {
        const std::uint64_t follow = token + 1'000'000;
        q.schedule_after(static_cast<double>(token % 7) * 0.25,
                         [&q, &fired, follow] { fired.emplace_back(q.now(), follow); });
      } else if (token % 4 == 0) {
        q.schedule_handler_at(q.now() + static_cast<double>(token % 6) * 0.25, handler,
                              token + 3'000'000);
      }
    }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 4) q.cancel(ids[i]);
  fired.emplace_back(-1.0, q.pending());
  for (std::uint64_t seq : handler_seqs) fired.emplace_back(-2.0, seq);
  // Interleave bounded drains with run_until boundaries and late arrivals.
  q.run_until(120.0);
  q.schedule_at(130.5, [&q, &fired] { fired.emplace_back(q.now(), 42'000'000); });
  q.schedule_handler_at(130.5, handler, 44'000'000);
  q.run(500);
  fired.emplace_back(-1.0, q.pending());
  fired.emplace_back(-1.0, q.executed());
  q.run_until(60'000.0);
  q.schedule_at(61'000.25, [&q, &fired] { fired.emplace_back(q.now(), 43'000'000); });
  q.schedule_handler_at(61'000.25, handler, 45'000'000);
  q.run();
  fired.emplace_back(-1.0, q.pending());
  fired.emplace_back(-1.0, q.executed());
  return fired;
}

TEST(SchedulerWheel, FiringOrderMatchesReferenceQueue) {
  for (std::uint64_t seed : {1ull, 7ull, 20260729ull}) {
    const auto ref = firing_trace<ReferenceQueue, std::uint64_t>(seed);
    const auto wheel = firing_trace<Scheduler, EventId>(seed);
    ASSERT_EQ(ref.size(), wheel.size()) << "seed " << seed;
    EXPECT_EQ(ref, wheel) << "seed " << seed;
  }
}

TEST_P(SchedulerTest, HandlerRecordsShareTheFifoOrder) {
  // Handler and closure records at equal times fire in scheduling order,
  // count in pending() and executed() alike, and each handler sees its
  // own seq; a handler record has no EventId, so cancel() cannot reach it.
  Scheduler& s = sched();
  struct Log {
    Scheduler* s;
    std::vector<std::uint64_t> order;
    std::vector<std::uint64_t> seqs;
  };
  Log log{&s, {}, {}};
  const Scheduler::HandlerId h = s.add_handler(
      [](void* c, std::uint32_t arg) {
        auto& l = *static_cast<Log*>(c);
        l.order.push_back(arg);
        l.seqs.push_back(l.s->firing_seq());
      },
      &log);
  std::vector<std::uint64_t> expected_seqs;
  for (std::uint32_t i = 0; i < 6; ++i) {
    if (i % 2 == 0) {
      expected_seqs.push_back(s.schedule_handler_at(T(2.0), h, i));
      EXPECT_EQ(expected_seqs.back(), s.inserted());
    } else {
      s.schedule_at(T(2.0), [&log, i] { log.order.push_back(i); });
    }
  }
  expected_seqs.push_back(s.schedule_handler_at(T(3.0), h, 6));
  EXPECT_EQ(s.latest_at(), T(3.0));
  EXPECT_EQ(s.pending(), 7u);
  EXPECT_FALSE(s.cancel(static_cast<EventId>(expected_seqs[0])));
  EXPECT_EQ(s.pending(), 7u);
  EXPECT_THROW(s.schedule_handler_at(T(-1.0), h, 0), std::invalid_argument);
  EXPECT_THROW(s.schedule_handler_at(T(1.0), h + 1, 0), std::out_of_range);
  s.run();
  EXPECT_EQ(log.order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(log.seqs, expected_seqs);
  EXPECT_EQ(s.executed(), 7u);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerWheel, HandlerTableIsFixed) {
  Scheduler s;
  struct Target {
    std::uint32_t sum = 0;
    void add(std::uint32_t v) { sum += v; }
  };
  Target target;
  const Scheduler::HandlerId h = s.add_handler<&Target::add>(&target);
  for (std::size_t i = 1; i < Scheduler::kMaxHandlers; ++i)
    s.add_handler([](void*, std::uint32_t) {}, nullptr);
  EXPECT_THROW(s.add_handler([](void*, std::uint32_t) {}, nullptr), std::length_error);
  s.schedule_handler_at(1.0, h, 5);
  s.schedule_handler_at(1.0, h, 7);
  s.run();
  EXPECT_EQ(target.sum, 12u);
}

TEST(SchedulerWheel, FarFutureOverflowFiresInOrder) {
  // Events far beyond the top wheel window (~17 simulated minutes) route
  // through the overflow heap and must still fire in global (t, seq)
  // order, interleaved with near events scheduled later.
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(5.0e6, [&] { order.push_back(4); });
  s.schedule_at(2.5e6, [&] { order.push_back(3); });
  s.schedule_at(2.5e6, [&] { order.push_back(5); });  // FIFO tie across windows
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(100.0, [&] {
    order.push_back(2);
    s.schedule_after(6.0e6, [&] { order.push_back(6); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 5, 4, 6}));
  EXPECT_EQ(s.now(), 100.0 + 6.0e6);
}

TEST(SchedulerWheel, CancelAcrossLevelsAndOverflow) {
  Scheduler s;
  int fired = 0;
  EventId near = s.schedule_at(0.5, [&] { ++fired; });
  EventId mid = s.schedule_at(500.0, [&] { ++fired; });
  EventId far = s.schedule_at(3.0e6, [&] { ++fired; });
  s.schedule_at(1.0, [&] { ++fired; });
  EXPECT_TRUE(s.cancel(near));
  EXPECT_TRUE(s.cancel(mid));
  EXPECT_TRUE(s.cancel(far));
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 1.0);  // cancelled far-future events advance nothing
}

}  // namespace
}  // namespace fdgm::sim
