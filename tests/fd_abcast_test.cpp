// Tests of the Chandra-Toueg (FD) atomic broadcast: the uniform atomic
// broadcast properties — validity, uniform agreement, uniform integrity,
// uniform total order — in failure-free runs, under crashes, and under
// wrong suspicions; plus aggregation, message-pattern and re-numbering
// behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <type_traits>
#include <vector>

#include "abcast/fd_abcast.hpp"
#include "fd/qos_model.hpp"
#include "net/system.hpp"
#include "sim/rng.hpp"

namespace fdgm::abcast {
namespace {

struct Fixture {
  explicit Fixture(int n, fd::QosParams qp = {}, std::uint64_t seed = 1,
                   FdAbcastConfig cfg = {})
      : sys(n, {}, seed), fd(sys, qp) {
    for (int i = 0; i < n; ++i)
      procs.push_back(std::make_unique<FdAbcastProcess>(sys, i, fd.at(i), cfg));
    fd.start();
  }

  /// Asserts the defining safety properties over the delivery logs:
  /// integrity (no duplicates), uniform total order (logs are prefixes of
  /// one another — crashed processes included), and, for the ids in
  /// `must_deliver`, validity at every correct process.
  void check_safety(const std::vector<MsgId>& must_deliver = {}) {
    for (const auto& p : procs) {
      std::vector<MsgId> seen;
      for (const auto& m : p->log()) seen.push_back(m->id);
      std::sort(seen.begin(), seen.end());
      EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end())
          << "duplicate delivery at " << p->id();
    }
    // Prefix consistency.
    for (std::size_t a = 0; a < procs.size(); ++a) {
      for (std::size_t b = a + 1; b < procs.size(); ++b) {
        const auto& la = procs[a]->log();
        const auto& lb = procs[b]->log();
        const std::size_t k = std::min(la.size(), lb.size());
        for (std::size_t i = 0; i < k; ++i)
          ASSERT_EQ(la[i]->id, lb[i]->id)
              << "order divergence at position " << i << " between " << a << " and " << b;
      }
    }
    for (const MsgId& id : must_deliver) {
      for (const auto& p : procs) {
        if (sys.node(p->id()).crashed()) continue;
        const auto& log = p->log();
        EXPECT_TRUE(std::any_of(log.begin(), log.end(),
                                [&](const AppMessagePtr& m) { return m->id == id; }))
            << "message not delivered at correct process " << p->id();
      }
    }
  }

  net::System sys;
  fd::QosFailureDetectorModel fd;
  std::vector<std::unique_ptr<FdAbcastProcess>> procs;
};

TEST(FdAbcast, SingleMessageDeliveredEverywhere) {
  Fixture f(3);
  const MsgId id = f.procs[1]->a_broadcast();
  f.sys.scheduler().run();
  f.check_safety({id});
  for (const auto& p : f.procs) EXPECT_EQ(p->delivered_count(), 1u);
}

TEST(FdAbcast, FailureFreeMessagePattern) {
  // Fig. 1: data multicast + proposal multicast + (n-1) acks + decision
  // multicast = 3 multicasts and n-1 unicasts on the wire.
  Fixture f(5);
  f.procs[0]->a_broadcast();
  f.sys.scheduler().run();
  EXPECT_EQ(f.sys.network().network_uses(), 3u + 4u);
}

TEST(FdAbcast, ManyMessagesTotalOrder) {
  Fixture f(3);
  std::vector<MsgId> ids;
  for (int round = 0; round < 20; ++round)
    for (auto& p : f.procs) ids.push_back(p->a_broadcast());
  f.sys.scheduler().run();
  f.check_safety(ids);
  EXPECT_EQ(f.procs[0]->log().size(), 60u);
}

TEST(FdAbcast, InterleavedBroadcastsOverTime) {
  Fixture f(5);
  std::vector<MsgId> ids;
  for (int i = 0; i < 50; ++i) {
    f.sys.scheduler().schedule_at(i * 2.0, [&f, &ids, i] {
      ids.push_back(f.procs[static_cast<std::size_t>(i % 5)]->a_broadcast());
    });
  }
  f.sys.scheduler().run();
  f.check_safety(ids);
  EXPECT_EQ(f.procs[2]->log().size(), 50u);
}

TEST(FdAbcast, AggregationUnderBurst) {
  // A burst of messages broadcast at the same instant must be ordered by
  // far fewer consensus instances than messages (aggregation, §4.1).
  Fixture f(3);
  for (int i = 0; i < 30; ++i) f.procs[0]->a_broadcast();
  f.sys.scheduler().run();
  f.check_safety();
  EXPECT_EQ(f.procs[0]->log().size(), 30u);
  EXPECT_LE(f.procs[0]->decided_instances(), 6u);
}

TEST(FdAbcast, DeliveryOrderWithinDecisionIsById) {
  Fixture f(3);
  // Three messages from distinct origins, same instant: they ride the
  // same consensus and must come out ordered by (origin, seq).
  const MsgId a = f.procs[2]->a_broadcast();
  const MsgId b = f.procs[0]->a_broadcast();
  const MsgId c = f.procs[1]->a_broadcast();
  f.sys.scheduler().run();
  f.check_safety({a, b, c});
  // All three in one decision: check relative order b < c < a.
  const auto& log = f.procs[0]->log();
  std::map<MsgId, std::size_t> pos;
  for (std::size_t i = 0; i < log.size(); ++i) pos[log[i]->id] = i;
  if (f.procs[0]->decided_instances() == 1) {
    EXPECT_LT(pos[b], pos[c]);
    EXPECT_LT(pos[c], pos[a]);
  }
}

TEST(FdAbcast, CrashedProcessBroadcastIsNoop) {
  Fixture f(3);
  f.sys.crash(1);
  const MsgId id = f.procs[1]->a_broadcast();
  EXPECT_EQ(id.seq, 0u);  // null id
  f.sys.scheduler().run();
  EXPECT_EQ(f.procs[0]->delivered_count(), 0u);
}

TEST(FdAbcast, SurvivesCoordinatorCrash) {
  fd::QosParams qp;
  qp.detection_time = 20.0;
  Fixture f(3, qp);
  const MsgId id = f.procs[1]->a_broadcast();
  f.sys.crash(0);  // round-1 coordinator dies immediately
  f.sys.scheduler().run();
  f.check_safety({id});
  EXPECT_GE(f.procs[1]->delivered_count(), 1u);
  EXPECT_GE(f.procs[2]->delivered_count(), 1u);
}

TEST(FdAbcast, SurvivesCoordinatorCrashMidConsensus) {
  fd::QosParams qp;
  qp.detection_time = 20.0;
  Fixture f(5, qp);
  const MsgId id = f.procs[1]->a_broadcast();
  f.sys.crash_at(0, 4.5);  // after the proposal is out
  f.sys.scheduler().run();
  f.check_safety({id});
}

TEST(FdAbcast, ContinuesAfterCrashSteadyState) {
  fd::QosParams qp;
  qp.detection_time = 10.0;
  Fixture f(5, qp);
  f.sys.crash(3);
  f.sys.crash(4);
  std::vector<MsgId> ids;
  for (int i = 0; i < 30; ++i) {
    f.sys.scheduler().schedule_at(50.0 + i * 3.0, [&f, &ids, i] {
      ids.push_back(f.procs[static_cast<std::size_t>(i % 3)]->a_broadcast());
    });
  }
  f.sys.scheduler().run();
  f.check_safety(ids);
  EXPECT_EQ(f.procs[0]->log().size(), 30u);
}

TEST(FdAbcast, RenumberingMovesCoordinatorAwayFromCrashed) {
  // With re-numbering, after the first decision the crashed p0 stops being
  // the round-1 coordinator, so later messages decide in round 1 without
  // waiting for suspicion.  Compare the delivery time of a late message
  // with and without the optimization.
  struct LateDeliverySink final : DeliverSink {
    net::System* sys = nullptr;
    double delivered_at = -1;
    void on_deliver(const AppMessage& m) override {
      if (m.sent_at >= 500.0 && delivered_at < 0) delivered_at = sys->now();
    }
  };
  auto late_latency = [](bool renumber) {
    fd::QosParams qp;
    qp.detection_time = 100.0;
    FdAbcastConfig fc;
    fc.renumbering = renumber;
    Fixture f(3, qp, 1, fc);
    f.sys.crash(0);
    // Several early messages let the winner anchor move past the pipeline
    // window; then measure a message in the re-numbered steady state.
    for (int i = 0; i < 5; ++i)
      f.sys.scheduler().schedule_at(150.0 + 50.0 * i, [&] { f.procs[1]->a_broadcast(); });
    LateDeliverySink sink;
    sink.sys = &f.sys;
    f.sys.scheduler().schedule_at(500.0, [&] {
      f.procs[1]->a_broadcast();
      f.procs[1]->set_deliver_sink(&sink);
    });
    f.sys.scheduler().run();
    return sink.delivered_at - 500.0;
  };
  const double with = late_latency(true);
  const double without = late_latency(false);
  EXPECT_GT(with, 0.0);
  // Without re-numbering every consensus pays an extra round (nack the
  // permanently suspected p0, estimates to p1, ...); with it, the
  // steady-state latency is the failure-free one (paper §7: "the
  // steady-state latency is the same regardless of which processes we
  // forced to crash ... the optimization incurs no cost").
  EXPECT_LT(with, 12.0);
  EXPECT_GT(without, with + 2.0);
}

TEST(FdAbcast, WrongSuspicionsDoNotBreakSafety) {
  fd::QosParams qp;
  qp.wrong_suspicions = true;
  qp.mistake_recurrence = 40.0;
  qp.mistake_duration = 3.0;
  for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
    Fixture f(3, qp, seed);
    std::vector<MsgId> ids;
    for (int i = 0; i < 40; ++i) {
      f.sys.scheduler().schedule_at(i * 5.0, [&f, &ids, i] {
        ids.push_back(f.procs[static_cast<std::size_t>(i % 3)]->a_broadcast());
      });
    }
    f.sys.scheduler().run_until(5000.0);
    f.check_safety(ids);
  }
}

TEST(FdAbcast, UniformAgreementIncludesCrashedDeliveries) {
  // Whatever a process delivered before crashing must be (eventually)
  // delivered by the correct processes, in the same order — guaranteed
  // here by prefix-checking logs of crashed processes too.
  fd::QosParams qp;
  qp.detection_time = 15.0;
  Fixture f(5, qp, 3);
  std::vector<MsgId> ids;
  for (int i = 0; i < 20; ++i) {
    f.sys.scheduler().schedule_at(i * 2.0, [&f, &ids, i] {
      ids.push_back(f.procs[static_cast<std::size_t>(i % 5)]->a_broadcast());
    });
  }
  f.sys.crash_at(2, 17.0);
  f.sys.crash_at(0, 23.0);
  f.sys.scheduler().run();
  f.check_safety();
  // Correct processes must have delivered everything broadcast by correct
  // processes.
  std::vector<MsgId> from_correct;
  for (const MsgId& id : ids)
    if (id.seq != 0 && id.origin != 0 && id.origin != 2) from_correct.push_back(id);
  f.check_safety(from_correct);
}

TEST(FdAbcast, DeterministicGivenSeed) {
  auto run_once = [](std::uint64_t seed) {
    Fixture f(3, {}, seed);
    for (int i = 0; i < 10; ++i)
      f.sys.scheduler().schedule_at(i * 3.0,
                                    [&f, i] { f.procs[static_cast<std::size_t>(i % 3)]->a_broadcast(); });
    f.sys.scheduler().run();
    std::vector<MsgId> log;
    for (const auto& m : f.procs[0]->log()) log.push_back(m->id);
    return log;
  };
  EXPECT_EQ(run_once(7), run_once(7));
}

// ------------------------------------------------- bounded delivered state

TEST(FdAbcast, DeliveredStateBoundedByInFlightMessages) {
  // The paper's steady point (n = 7, T = 300/s) for 20 simulated seconds,
  // with p3 crashed for 2 s midway: its log sync settles the delivered ids
  // and decided instances it missed out of band.  The per-origin delivered
  // windows, the per-origin pending windows and the decided-instance
  // window must track what is in flight, not the thousands of messages and
  // instances of the run.
  fd::QosParams qp;
  qp.detection_time = 10.0;
  Fixture f(7, qp);
  std::vector<MsgId> ids;
  sim::Rng rng(7);
  for (double t = rng.exponential(1000.0 / 300.0); t < 20000.0;
       t += rng.exponential(1000.0 / 300.0)) {
    const auto sender = static_cast<std::size_t>(rng.uniform_int(0, 6));
    f.sys.scheduler().schedule_at(t, [&f, &ids, sender] {
      const MsgId id = f.procs[sender]->a_broadcast();
      if (id.seq != 0) ids.push_back(id);
    });
  }
  constexpr double kRestart = 10000.0;
  f.sys.crash_at(3, 8000.0);
  f.sys.scheduler().schedule_at(kRestart, [&f] {
    f.sys.restart(3);
    f.procs[3]->on_restart();
  });
  for (double t = 10.0; t <= 20000.0; t += 10.0) {
    f.sys.scheduler().run_until(t);
    for (int p : {0, 3}) {
      // Until its sync lands, a restarted process's consensus learns the
      // outage's later decisions above its stale watermark.
      if (p == 3 && t >= kRestart && t < kRestart + 100.0) continue;
      const auto s = f.procs[static_cast<std::size_t>(p)]->data_plane_dbg();
      ASSERT_LE(s.delivered_words, 2u * 7) << "p" << p << " at " << t << " ms";
      ASSERT_LE(s.decided_words, 2u) << "p" << p << " at " << t << " ms";
      ASSERT_LE(s.pending_slots, 64u) << "p" << p << " at " << t << " ms";
    }
  }
  f.sys.scheduler().run();
  EXPECT_GT(ids.size(), 5000u);
  EXPECT_GT(f.procs[0]->decided_instances(), 1000u);
  for (const auto& p : f.procs) {
    EXPECT_EQ(p->log().size(), f.procs[0]->log().size()) << "p" << p->id();
    const auto s = p->data_plane_dbg();
    EXPECT_EQ(s.pending, 0u);
    EXPECT_EQ(s.pending_slots, 0u);
    EXPECT_LE(s.delivered_words, 7u);
    EXPECT_LE(s.decided_words, 1u);
  }
  f.check_safety();
}

TEST(FdAbcast, StartCohortsBoundedByLiveStarts) {
  // n = 7 at T = 300/s for 10 simulated seconds, with wrong suspicions
  // (failed rounds, refreshed proposals, ids whose proposal lost) and p3
  // crashed for 1 s from the first instant after 4 s at which it holds a
  // live start (its restart must void that start; its log sync skips
  // decisions).  An instance start visits no pending id: it records the
  // admission counter.  What it keeps must stay bounded by the pipeline:
  // at most kPipeline = 2 live starts and one admission cohort more, at
  // every process and instant, and none once every decision is applied.
  fd::QosParams qp;
  qp.detection_time = 10.0;
  qp.wrong_suspicions = true;
  qp.mistake_recurrence = 1000.0;
  qp.mistake_duration = 5.0;
  Fixture f(7, qp, 3);
  sim::Rng rng(11);
  for (double t = rng.exponential(1000.0 / 300.0); t < 10000.0;
       t += rng.exponential(1000.0 / 300.0)) {
    const auto sender = static_cast<std::size_t>(rng.uniform_int(0, 6));
    f.sys.scheduler().schedule_at(t, [&f, sender] { f.procs[sender]->a_broadcast(); });
  }
  FdAbcastProcess& p3 = *f.procs[3];
  bool restarted = false;
  for (double t = 5.0; t <= 12000.0; t += 5.0) {
    f.sys.scheduler().run_until(t);
    for (const auto& p : f.procs) {
      const auto s = p->data_plane_dbg();
      ASSERT_LE(s.live_starts, 2u) << "p" << p->id() << " at " << t << " ms";
      ASSERT_LE(s.cohorts, s.live_starts + 1) << "p" << p->id() << " at " << t << " ms";
    }
    if (t >= 4000.0 && !f.sys.node(3).crashed() && !restarted &&
        p3.data_plane_dbg().live_starts > 0) {
      f.sys.crash(3);
      f.sys.scheduler().schedule_after(1000.0, [&f, &p3, &restarted] {
        f.sys.restart(3);
        p3.on_restart();
        restarted = true;
        // Nothing was queued for resubmission: no start is live.
        EXPECT_EQ(p3.data_plane_dbg().live_starts, 0u);
        EXPECT_EQ(p3.data_plane_dbg().cohorts, 1u);
      });
    }
  }
  EXPECT_TRUE(restarted);
  EXPECT_GT(f.procs[0]->log().size(), 2500u);
  for (const auto& p : f.procs) {
    EXPECT_EQ(p->log().size(), f.procs[0]->log().size()) << "p" << p->id();
    const auto s = p->data_plane_dbg();
    EXPECT_EQ(s.pending, 0u) << "p" << p->id();
    EXPECT_EQ(s.live_starts, 0u) << "p" << p->id();
    EXPECT_EQ(s.cohorts, 1u) << "p" << p->id();
  }
  f.check_safety();
}

// ------------------------------------------------ proposals built once

TEST(FdAbcast, OnlyTheRoundOneCoordinatorBuildsAProposal) {
  // A failure-free run at n = 32, T = 100/s for 10 simulated seconds.
  // Each instance costs one proposal, n-1 acks and one decision in the
  // arena, plus the data it orders.  A proposal built at every process
  // (only the round-1 coordinator's is ever sent) would add n-1 objects
  // per instance: about 2.3n in all, against about 1.4n.
  constexpr int kN = 32;
  Fixture f(kN, {}, 7);
  sim::Rng rng(7);
  for (double t = rng.exponential(1000.0 / 100.0); t < 10000.0;
       t += rng.exponential(1000.0 / 100.0)) {
    const auto sender = static_cast<std::size_t>(rng.uniform_int(0, kN - 1));
    f.sys.scheduler().schedule_at(t, [&f, sender] { f.procs[sender]->a_broadcast(); });
  }
  f.sys.scheduler().run();
  const auto instances = f.procs[0]->decided_instances();
  EXPECT_GT(instances, 200u);
  for (const auto& p : f.procs) EXPECT_EQ(p->log().size(), f.procs[0]->log().size());
  const double per_instance =
      static_cast<double>(f.sys.arena().objects()) / static_cast<double>(instances);
  EXPECT_LT(per_instance, 1.6 * kN) << "arena objects per decided instance";
  f.check_safety();
}

// ------------------------------------------------------------- property

// gtest suffixes each test ID with a dump of this struct's bytes
// ("# GetParam() = 24-byte object <...>"), so it has no padding: padding
// bytes are uninitialised and made the IDs differ from build to build.
struct Param {
  std::int64_t n;
  std::uint64_t seed;
  std::int32_t crashes;
  std::int32_t suspicions;  // 0 or 1: wrong suspicions enabled
};
static_assert(std::has_unique_object_representations_v<Param>);

class FdAbcastProperty : public ::testing::TestWithParam<Param> {};

TEST_P(FdAbcastProperty, SafetyUnderRandomFaultSchedules) {
  const Param p = GetParam();
  fd::QosParams qp;
  qp.detection_time = 12.0;
  if (p.suspicions) {
    qp.wrong_suspicions = true;
    qp.mistake_recurrence = 80.0;
    qp.mistake_duration = 4.0;
  }
  Fixture f(p.n, qp, p.seed);
  sim::Rng rng(p.seed * 31 + 7);
  std::vector<MsgId> ids;
  for (int i = 0; i < 60; ++i) {
    const double t = rng.uniform(0.0, 300.0);
    const auto sender = static_cast<std::size_t>(
        rng.uniform_int(0, p.n - 1));
    f.sys.scheduler().schedule_at(t, [&f, &ids, sender] {
      const MsgId id = f.procs[sender]->a_broadcast();
      if (id.seq != 0) ids.push_back(id);
    });
  }
  for (int c = 0; c < p.crashes; ++c)
    f.sys.crash_at(c, rng.uniform(5.0, 200.0));
  f.sys.scheduler().run_until(20000.0);
  f.check_safety();
  // Liveness: messages from never-crashed senders delivered at correct
  // processes.
  std::vector<MsgId> from_correct;
  for (const MsgId& id : ids)
    if (id.origin >= p.crashes) from_correct.push_back(id);
  f.check_safety(from_correct);
}

std::vector<Param> grid() {
  std::vector<Param> out;
  for (int n : {3, 5, 7})
    for (std::uint64_t s : {11ULL, 22ULL, 33ULL, 44ULL})
      for (int crashes : {0, (n - 1) / 2})
        for (bool susp : {false, true}) out.push_back({n, s, crashes, susp});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FdAbcastProperty, ::testing::ValuesIn(grid()),
                         [](const ::testing::TestParamInfo<Param>& info) {
                           const auto& p = info.param;
                           return "i" + std::to_string(info.index) + "_n" + std::to_string(p.n) +
                                  "_c" + std::to_string(p.crashes) +
                                  (p.suspicions ? "_susp" : "_clean");
                         });

}  // namespace
}  // namespace fdgm::abcast
