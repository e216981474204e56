// Tests of the group-membership based (GM) atomic broadcast: fixed
// sequencer data plane, view changes on crash, view synchrony, wrongly
// excluded processes rejoining via state transfer, the non-uniform
// variant, and property sweeps under random fault schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "abcast/gm_abcast.hpp"
#include "consensus/types.hpp"
#include "fd/failure_detector.hpp"
#include "fd/qos_model.hpp"
#include "gm/membership.hpp"
#include "net/system.hpp"
#include "sim/rng.hpp"
#include "transport/transport.hpp"

namespace fdgm::abcast {
namespace {

struct Fixture {
  explicit Fixture(int n, fd::QosParams qp = {}, std::uint64_t seed = 1,
                   GmAbcastConfig cfg = {}, transport::Config tcfg = {})
      : sys(n, {}, seed, tcfg), fd(sys, qp) {
    for (int i = 0; i < n; ++i)
      procs.push_back(std::make_unique<GmAbcastProcess>(sys, i, fd.at(i), cfg));
    fd.start();
  }

  void check_safety(const std::vector<MsgId>& must_deliver = {}) {
    for (const auto& p : procs) {
      std::vector<MsgId> seen;
      for (const auto& m : p->log()) seen.push_back(m->id);
      std::sort(seen.begin(), seen.end());
      EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end())
          << "duplicate delivery at " << p->id();
    }
    for (std::size_t a = 0; a < procs.size(); ++a) {
      for (std::size_t b = a + 1; b < procs.size(); ++b) {
        const auto& la = procs[a]->log();
        const auto& lb = procs[b]->log();
        const std::size_t k = std::min(la.size(), lb.size());
        for (std::size_t i = 0; i < k; ++i)
          ASSERT_EQ(la[i]->id, lb[i]->id)
              << "order divergence at " << i << " between " << a << " and " << b;
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
  std::vector<std::unique_ptr<GmAbcastProcess>> procs;
};

TEST(GmAbcast, SingleMessageDeliveredEverywhere) {
  Fixture f(3);
  const MsgId id = f.procs[1]->a_broadcast();
  f.sys.scheduler().run();
  f.check_safety({id});
  for (const auto& p : f.procs) EXPECT_EQ(p->delivered_count(), 1u);
}

TEST(GmAbcast, FailureFreeMessagePatternMatchesFdAlgorithm) {
  // Fig. 1: data + seqnum multicasts, n-1 acks, deliver multicast.
  Fixture f(5);
  f.procs[1]->a_broadcast();
  f.sys.scheduler().run();
  EXPECT_EQ(f.sys.network().network_uses(), 3u + 4u);
}

TEST(GmAbcast, SequencerIsFirstViewMember) {
  Fixture f(3);
  EXPECT_TRUE(f.procs[0]->is_sequencer());
  EXPECT_FALSE(f.procs[1]->is_sequencer());
  EXPECT_EQ(f.procs[1]->view().sequencer(), 0);
}

TEST(GmAbcast, ManyMessagesTotalOrder) {
  Fixture f(3);
  std::vector<MsgId> ids;
  for (int round = 0; round < 20; ++round)
    for (auto& p : f.procs) ids.push_back(p->a_broadcast());
  f.sys.scheduler().run();
  f.check_safety(ids);
  EXPECT_EQ(f.procs[0]->log().size(), 60u);
}

TEST(GmAbcast, AggregationUnderBurst) {
  // Messages queued while a batch is in flight ride the next SEQNUM
  // together; the wire cost stays far below per-message signalling.
  Fixture f(3);
  for (int i = 0; i < 30; ++i) f.procs[1]->a_broadcast();
  f.sys.scheduler().run();
  f.check_safety();
  EXPECT_EQ(f.procs[0]->log().size(), 30u);
  // 30 data multicasts + a handful of seqnum/ack/deliver batches.
  EXPECT_LE(f.sys.network().network_uses(), 30u + 30u);
}

TEST(GmAbcast, SequencerCrashTriggersViewChangeAndContinues) {
  fd::QosParams qp;
  qp.detection_time = 20.0;
  Fixture f(3, qp);
  const MsgId before = f.procs[1]->a_broadcast();
  f.sys.scheduler().run_until(50.0);
  f.sys.crash(0);  // sequencer dies
  MsgId after{};
  f.sys.scheduler().schedule_at(60.0, [&] { after = f.procs[2]->a_broadcast(); });
  f.sys.scheduler().run();
  f.check_safety({before, after});
  // Survivors installed a view without p0 and p1 is the new sequencer.
  EXPECT_EQ(f.procs[1]->view().members, (std::vector<net::ProcessId>{1, 2}));
  EXPECT_TRUE(f.procs[1]->is_sequencer());
  EXPECT_GT(f.procs[1]->membership().views_installed(), 0u);
}

TEST(GmAbcast, NonSequencerCrashAlsoShrinksView) {
  // The GM algorithm reacts to the crash of *every* process (§4.4), unlike
  // the FD algorithm which only cares about coordinators.
  fd::QosParams qp;
  qp.detection_time = 10.0;
  Fixture f(5, qp);
  f.sys.crash(3);
  f.sys.scheduler().run_until(200.0);
  EXPECT_EQ(f.procs[0]->view().members, (std::vector<net::ProcessId>{0, 1, 2, 4}));
  EXPECT_TRUE(f.procs[0]->is_sequencer());
}

TEST(GmAbcast, MessagesInFlightAtViewChangeAreNotLost) {
  fd::QosParams qp;
  qp.detection_time = 15.0;
  Fixture f(5, qp);
  // Broadcast a burst, crash the sequencer while acks are in flight.
  std::vector<MsgId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(f.procs[2]->a_broadcast());
  f.sys.crash_at(0, 5.0);
  f.sys.scheduler().run();
  f.check_safety(ids);
}

TEST(GmAbcast, DeliveryContinuesAcrossMultipleCrashes) {
  fd::QosParams qp;
  qp.detection_time = 10.0;
  Fixture f(7, qp);
  std::vector<MsgId> ids;
  for (int i = 0; i < 40; ++i) {
    f.sys.scheduler().schedule_at(i * 10.0, [&f, &ids, i] {
      const auto s = static_cast<std::size_t>(3 + i % 4);  // correct senders
      ids.push_back(f.procs[s]->a_broadcast());
    });
  }
  f.sys.crash_at(0, 50.0);
  f.sys.crash_at(1, 150.0);
  f.sys.crash_at(2, 250.0);
  f.sys.scheduler().run();
  f.check_safety(ids);
  EXPECT_EQ(f.procs[3]->view().members, (std::vector<net::ProcessId>{3, 4, 5, 6}));
  EXPECT_EQ(f.procs[3]->log().size(), 40u);
}

TEST(GmAbcast, ViewSequenceIsIdenticalAtAllSurvivors) {
  fd::QosParams qp;
  qp.detection_time = 10.0;
  Fixture f(5, qp);
  f.sys.crash_at(1, 30.0);
  f.sys.crash_at(3, 80.0);
  f.sys.scheduler().run_until(500.0);
  const auto& v0 = f.procs[0]->view();
  for (int p : {2, 4}) {
    EXPECT_EQ(f.procs[static_cast<std::size_t>(p)]->view().id, v0.id);
    EXPECT_EQ(f.procs[static_cast<std::size_t>(p)]->view().members, v0.members);
  }
  EXPECT_EQ(v0.members, (std::vector<net::ProcessId>{0, 2, 4}));
}

TEST(GmAbcast, WronglyExcludedProcessRejoins) {
  // A single long-lived wrong suspicion of p2 at p0 excludes p2; being
  // correct, p2 must rejoin via state transfer and converge.
  Fixture f(3);
  f.sys.scheduler().schedule_at(20.0, [&] { f.fd.at(0).set_suspected(2, true); });
  f.sys.scheduler().schedule_at(120.0, [&] { f.fd.at(0).set_suspected(2, false); });
  std::vector<MsgId> ids;
  for (int i = 0; i < 30; ++i) {
    f.sys.scheduler().schedule_at(5.0 + i * 10.0, [&f, &ids, i] {
      ids.push_back(f.procs[static_cast<std::size_t>(i % 2)]->a_broadcast());
    });
  }
  f.sys.scheduler().run_until(2000.0);
  // p2 was excluded at some point...
  EXPECT_GE(f.procs[0]->membership().views_installed(), 2u);
  // ...but is back and has the complete log.
  EXPECT_TRUE(f.procs[2]->membership().is_member());
  EXPECT_TRUE(f.procs[2]->view().contains(2));
  f.check_safety(ids);
  EXPECT_EQ(f.procs[2]->log().size(), 30u);
}

TEST(GmAbcast, ExcludedProcessBuffersOwnBroadcasts) {
  Fixture f(3);
  f.sys.scheduler().schedule_at(20.0, [&] { f.fd.at(0).set_suspected(2, true); });
  f.sys.scheduler().schedule_at(200.0, [&] { f.fd.at(0).set_suspected(2, false); });
  // p2 A-broadcasts while (likely) excluded; the message must still be
  // delivered everywhere after the rejoin.
  MsgId while_excluded{};
  f.sys.scheduler().schedule_at(60.0, [&] { while_excluded = f.procs[2]->a_broadcast(); });
  f.sys.scheduler().run_until(3000.0);
  f.check_safety({while_excluded});
}

TEST(GmAbcast, ExcludedProcessBuffersOwnBatchedBroadcasts) {
  // As above with batching armed: p2 flushes a whole batch of k >= 2
  // while excluded, so the one submission hook buffers all k messages at
  // once; after the rejoin each is delivered once at every process.
  GmAbcastConfig cfg;
  cfg.batching.enabled = true;
  Fixture f(3, {}, 1, cfg);
  class Discard final : public net::Layer {
   public:
    void on_message(const net::Message&) override {}
  } discard;
  f.sys.node(1).register_handler(net::ProtocolId::kApplication, &discard);
  f.sys.scheduler().schedule_at(20.0, [&] { f.fd.at(0).set_suspected(2, true); });
  f.sys.scheduler().schedule_at(200.0, [&] { f.fd.at(0).set_suspected(2, false); });
  const net::BlankPayload filler;
  bool excluded = false;
  std::size_t k = 0;
  std::uint64_t flushes = 0;
  std::size_t queued = 0;
  std::vector<MsgId> buffered;
  // p2 is out of the view from ~38 ms to ~58 ms (readmitted and excluded
  // again while the suspicion lasts).
  f.sys.scheduler().schedule_at(45.0, [&] {
    GmAbcastProcess& p2 = *f.procs[2];
    // Unicast filler backs p2's CPU (then the wire) up well past the
    // 4 ms of backlog that buys one more message of batch target.
    for (int i = 0; i < 32; ++i) f.sys.node(2).send(1, net::ProtocolId::kApplication, &filler);
    excluded = p2.membership().is_excluded();
    k = p2.batch_target();
    const std::uint64_t before = p2.batches_flushed();
    // The k-th submission reaches the target and flushes all k at once.
    for (std::size_t i = 0; i < k; ++i) buffered.push_back(p2.a_broadcast());
    flushes = p2.batches_flushed() - before;
    queued = p2.submit_queue_depth();
  });
  f.sys.scheduler().run_until(3000.0);
  ASSERT_TRUE(excluded);
  EXPECT_GE(k, 2u);
  EXPECT_EQ(flushes, 1u);
  EXPECT_EQ(queued, 0u);
  EXPECT_TRUE(f.procs[2]->membership().is_member());
  f.check_safety(buffered);  // delivered everywhere, no duplicate, one order
}

TEST(GmAbcast, SequencerWronglySuspectedSurvivesButChurns) {
  // A one-sided long wrong suspicion of the sequencer: as the round-1
  // coordinator of the view-change consensus, p0 locks its own proposal
  // (everyone stays) before the suspecter's nack can matter, so it is
  // *not* excluded — but the suspecter keeps re-triggering view changes
  // for the duration of the mistake (the GM algorithm's TM sensitivity).
  Fixture f(3);
  f.sys.scheduler().schedule_at(20.0, [&] { f.fd.at(1).set_suspected(0, true); });
  f.sys.scheduler().schedule_at(300.0, [&] { f.fd.at(1).set_suspected(0, false); });
  std::vector<MsgId> ids;
  for (int i = 0; i < 40; ++i) {
    f.sys.scheduler().schedule_at(5.0 + i * 10.0, [&f, &ids, i] {
      const MsgId id = f.procs[static_cast<std::size_t>(i % 3)]->a_broadcast();
      if (id.seq != 0) ids.push_back(id);
    });
  }
  f.sys.scheduler().run_until(3000.0);
  EXPECT_TRUE(f.procs[0]->membership().is_member());
  EXPECT_TRUE(f.procs[0]->is_sequencer());
  // Many views were installed during the 280 ms mistake...
  EXPECT_GE(f.procs[0]->membership().views_installed(), 5u);
  // ...then the churn stopped (well below one view per mistake-free ms).
  EXPECT_LE(f.procs[0]->membership().views_installed(), 40u);
  f.check_safety(ids);
  EXPECT_EQ(f.procs[0]->log().size(), 40u);
}

TEST(GmAbcast, MemberSuspectedByCoordinatorIsExcludedAndRejoins) {
  // The symmetric case: the suspecter *is* the round-1 coordinator of the
  // view-change consensus (p0), so its proposal — without p2 — wins, and
  // p2 is wrongly excluded.  Being correct, p2 rejoins via state transfer.
  Fixture f(3);
  f.sys.scheduler().schedule_at(20.0, [&] { f.fd.at(0).set_suspected(2, true); });
  f.sys.scheduler().schedule_at(120.0, [&] { f.fd.at(0).set_suspected(2, false); });
  // Right after the first view change decides (~38 ms) p2 is out.  While
  // the suspicion lasts it is repeatedly readmitted and re-excluded (the
  // paper's TM sensitivity); afterwards it stays in.
  f.sys.scheduler().run_until(42.0);
  EXPECT_TRUE(f.procs[2]->membership().is_excluded());
  EXPECT_EQ(f.procs[0]->view().members, (std::vector<net::ProcessId>{0, 1}));
  f.sys.scheduler().run_until(2000.0);
  EXPECT_TRUE(f.procs[2]->membership().is_member());
  // Rejoined at the back of the view.
  EXPECT_EQ(f.procs[0]->view().members, (std::vector<net::ProcessId>{0, 1, 2}));
  f.check_safety();
}

TEST(GmAbcast, UniformityMajorityAckBeforeAnyDelivery) {
  // In the uniform algorithm nobody delivers before the sequencer has a
  // majority of acks: with n=3 the earliest delivery needs data(3ms) +
  // seqnum(3ms) + ack(3ms) = 9ms; the non-uniform variant delivers after
  // data + seqnum = 6ms at the sequencer even earlier.
  struct FirstDeliverySink final : DeliverSink {
    net::System* sys = nullptr;
    double first = -1;
    void on_deliver(const AppMessage&) override {
      if (first < 0) first = sys->now();
    }
  };

  Fixture uni(3);
  uni.procs[1]->a_broadcast();
  FirstDeliverySink first_uni;
  first_uni.sys = &uni.sys;
  for (auto& p : uni.procs) p->set_deliver_sink(&first_uni);
  uni.sys.scheduler().run();
  EXPECT_GE(first_uni.first, 9.0);

  GmAbcastConfig nu;
  nu.uniform = false;
  Fixture non(3, {}, 1, nu);
  non.procs[1]->a_broadcast();
  FirstDeliverySink first_non;
  first_non.sys = &non.sys;
  for (auto& p : non.procs) p->set_deliver_sink(&first_non);
  non.sys.scheduler().run();
  EXPECT_LT(first_non.first, first_uni.first);
}

TEST(GmAbcast, UnstableReportKeepsDeliveredMessagesUntilTheStablePointPasses) {
  // p2's ACKs to the sequencer are held, so p0 and p1 (a majority) deliver
  // every message while the stable point stays at 0.  A delivered message
  // may still be undelivered elsewhere: until the stable point passes it,
  // the unstable report must carry it with its sequence number, at the
  // sequencer and at a follower alike.
  Fixture f(3);
  f.sys.network().set_asym_partition({2}, {0});
  for (int i = 0; i < 5; ++i) f.procs[1]->a_broadcast();
  f.sys.scheduler().run();
  for (int p : {0, 1}) {
    const GmAbcastProcess& proc = *f.procs[static_cast<std::size_t>(p)];
    ASSERT_EQ(proc.log().size(), 5u) << "p" << p;
    const gm::UnstableReport r = proc.unstable_messages();
    EXPECT_EQ(r.watermark, 5) << "p" << p;
    ASSERT_EQ(r.entries.size(), 5u) << "p" << p;
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(r.entries[i].msg, proc.log()[i]) << "p" << p << " entry " << i;
      EXPECT_EQ(r.entries[i].seqnum, static_cast<std::int64_t>(i) + 1) << "p" << p;
    }
  }
  // Once p2's ACKs arrive, the next DELIVER moves the stable point past
  // the five, and they leave every report.
  f.sys.network().heal_asym_partition();
  f.sys.scheduler().run();
  f.procs[1]->a_broadcast();
  f.sys.scheduler().run();
  f.check_safety();
  for (const auto& p : f.procs) {
    ASSERT_EQ(p->log().size(), 6u) << "p" << p->id();
    for (const gm::UnstableEntry& e : p->unstable_messages().entries)
      EXPECT_GT(e.seqnum, 5) << "p" << p->id();
  }
}

TEST(GmAbcast, NonUniformVariantKeepsTotalOrderWithoutFailures) {
  GmAbcastConfig nu;
  nu.uniform = false;
  Fixture f(5, {}, 1, nu);
  std::vector<MsgId> ids;
  for (int i = 0; i < 50; ++i) {
    f.sys.scheduler().schedule_at(i * 2.0, [&f, &ids, i] {
      ids.push_back(f.procs[static_cast<std::size_t>(i % 5)]->a_broadcast());
    });
  }
  f.sys.scheduler().run();
  f.check_safety(ids);
  // Two multicasts per message, no acks/delivers: wire usage stays low.
  EXPECT_LE(f.sys.network().network_uses(), 2u * 50u);
}

TEST(GmAbcast, CrashedProcessBroadcastIsNoop) {
  Fixture f(3);
  f.sys.crash(1);
  const MsgId id = f.procs[1]->a_broadcast();
  EXPECT_EQ(id.seq, 0u);
  f.sys.scheduler().run();
  EXPECT_EQ(f.procs[0]->delivered_count(), 0u);
}

TEST(GmAbcast, DeterministicGivenSeed) {
  auto run_once = [](std::uint64_t seed) {
    fd::QosParams qp;
    qp.detection_time = 10.0;
    Fixture f(3, qp, seed);
    for (int i = 0; i < 10; ++i)
      f.sys.scheduler().schedule_at(
          i * 3.0, [&f, i] { f.procs[static_cast<std::size_t>(i % 3)]->a_broadcast(); });
    f.sys.crash_at(0, 11.0);
    f.sys.scheduler().run();
    std::vector<MsgId> log;
    for (const auto& m : f.procs[1]->log()) log.push_back(m->id);
    return log;
  };
  EXPECT_EQ(run_once(9), run_once(9));
}

// ------------------------------------------------- bounded data-plane state

/// Poisson A-broadcasts at `rate` msgs/s in total from uniformly chosen
/// senders over [from, to) ms.  Crashed senders' attempts are no-ops;
/// `sent_at`, if given, records each accepted broadcast's time.
void schedule_load(Fixture& f, std::vector<MsgId>& ids, double rate, double from, double to,
                   std::uint64_t seed, std::vector<double>* sent_at = nullptr) {
  sim::Rng rng(seed);
  const auto n = static_cast<std::int64_t>(f.procs.size());
  for (double t = from + rng.exponential(1000.0 / rate); t < to;
       t += rng.exponential(1000.0 / rate)) {
    const auto sender = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    f.sys.scheduler().schedule_at(t, [&f, &ids, sender, sent_at] {
      const MsgId id = f.procs[sender]->a_broadcast();
      if (id.seq == 0) return;
      ids.push_back(id);
      if (sent_at != nullptr) sent_at->push_back(f.sys.now());
    });
  }
}

/// The compaction bound, and "arrival order covers every undelivered
/// message": the unstable report walks arrival order filtered to
/// undelivered ids, then appends the delivered-not-yet-stable ones (sn at
/// or below the watermark).  Holds whenever no view change is under way.
::testing::AssertionResult bounded(const GmAbcastProcess& p, double t) {
  const auto s = p.data_plane_dbg();
  const gm::UnstableReport r = p.unstable_messages();
  const auto pending = static_cast<std::size_t>(
      std::count_if(r.entries.begin(), r.entries.end(), [&](const gm::UnstableEntry& e) {
        return e.seqnum < 0 || e.seqnum > r.watermark;
      }));
  if (s.arrival_order <= 2 * s.undelivered + 64 && pending == s.undelivered)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "p" << p.id() << " at " << t << " ms: arrival order " << s.arrival_order
         << ", undelivered " << s.undelivered << ", reported pending " << pending;
}

TEST(GmAbcast, DataPlaneStateBoundedByInFlightMessages) {
  // The paper's steady point (n = 7, T = 300/s) for 20 simulated seconds:
  // the sequencer's and a follower's bookkeeping must track the messages
  // in flight (a few dozen), not the ~6000 delivered so far.  Checked
  // every 2 ms, so the window right after each compaction is covered too.
  // The sn -> id window spans the stable point to the last assignment; the
  // per-origin {content, sn} windows the undelivered messages; the
  // delivered-id windows the deliveries still out of order per origin.
  Fixture f(7);
  std::vector<MsgId> ids;
  schedule_load(f, ids, 300.0, 0.0, 20000.0, 7);
  for (double t = 2.0; t <= 20000.0; t += 2.0) {
    f.sys.scheduler().run_until(t);
    for (int p : {0, 3}) {
      const GmAbcastProcess& proc = *f.procs[static_cast<std::size_t>(p)];
      ASSERT_TRUE(bounded(proc, t));
      const auto s = proc.data_plane_dbg();
      ASSERT_LE(s.sn_window, 64u) << "p" << p << " at " << t << " ms";
      ASSERT_LE(s.delivered_words, 2u * 7) << "p" << p << " at " << t << " ms";
      ASSERT_LE(s.held_slots, 64u) << "p" << p << " at " << t << " ms";
    }
  }
  f.sys.scheduler().run();
  EXPECT_GT(ids.size(), 5000u);
  f.check_safety(ids);
  for (int p : {0, 3}) {
    const auto s = f.procs[static_cast<std::size_t>(p)]->data_plane_dbg();
    EXPECT_EQ(s.undelivered, 0u);
    EXPECT_EQ(s.held_slots, 0u);
    EXPECT_LE(s.arrival_order, 64u);
    EXPECT_LE(s.sn_window, 64u);
    EXPECT_LE(s.delivered_words, 7u);
  }
}

TEST(GmAbcast, LossRepairedByNeedAfterSequencerTrimmedItsWindow) {
  // 10% frame loss under the retransmission transport: a follower whose
  // DATA frame is still being recovered when the DELIVER covering it
  // arrives asks the sequencer with a NEED, which answers from its sn -> id
  // window with the content.  The sequencer trims that window at the
  // stable point; the stable point never passes a lagging follower's
  // cumulative ack, so NEEDs that arrive after trims still find their
  // mappings, and once the loss stops every process holds the same log.
  Fixture f(5, {}, 1, {}, transport::Config{.enabled = true});
  std::vector<MsgId> ids;
  schedule_load(f, ids, 200.0, 0.0, 8000.0, 5);
  sim::Rng loss_rng(17);
  f.sys.scheduler().schedule_at(1000.0, [&] { f.sys.network().set_loss(0.1, &loss_rng); });
  f.sys.scheduler().schedule_at(5000.0, [&] { f.sys.network().clear_loss(); });
  const GmAbcastProcess& seq = *f.procs[0];
  // One view throughout, so the window spans (trim point, last sn]: it is
  // shorter than the log only once it was trimmed.
  auto trimmed = [&] { return seq.data_plane_dbg().sn_window < seq.log().size(); };
  constexpr std::uint8_t kNeedKind = 12;  // GmAbcastProcess::NeedMsg
  std::size_t needs_after_trim = 0;
  std::size_t repairs_after_trim = 0;
  f.sys.network().set_delivery_tap([&](const net::Message& m, net::ProcessId dst) {
    if (m.proto != net::ProtocolId::kAtomicBroadcast || !trimmed()) return;
    if (m.payload->payload_kind() == kNeedKind && dst == 0) ++needs_after_trim;
    // The sequencer sends DATA of another origin only to answer a NEED.
    const auto* data = net::payload_cast<AppMessage>(m.payload);
    if (data != nullptr && m.src == 0 && data->id.origin != 0) ++repairs_after_trim;
  });
  f.sys.scheduler().run();
  EXPECT_GT(needs_after_trim, 10u);
  EXPECT_GT(repairs_after_trim, 10u);
  EXPECT_GT(seq.log().size(), 1000u);
  EXPECT_EQ(seq.view().id, 0u);
  for (const auto& p : f.procs) EXPECT_EQ(p->log().size(), seq.log().size()) << "p" << p->id();
  f.check_safety();
  EXPECT_LE(seq.data_plane_dbg().sn_window, 64u);
}

TEST(GmAbcast, SequencerCrashAfterCompactionsResequencesInFlight) {
  // Load long enough for many compactions, then crash the sequencer while
  // it has sequenced-but-undelivered messages out.  Compaction must not
  // have lost any pending id: the view-change flush settles what the
  // survivors reported, the new sequencer re-sequences the rest, and every
  // survivor delivers the same log.
  fd::QosParams qp;
  qp.detection_time = 10.0;
  Fixture f(7, qp, 3);
  std::vector<MsgId> ids;
  std::vector<double> sent_at;
  schedule_load(f, ids, 300.0, 0.0, 5000.0, 11, &sent_at);
  double t = 3000.0;
  f.sys.scheduler().run_until(t);
  // Step until the sequencer has an assigned-but-undelivered batch out.
  const GmAbcastProcess& seq = *f.procs[0];
  std::vector<MsgId> in_flight;
  while (in_flight.empty()) {
    t += 0.25;
    f.sys.scheduler().run_until(t);
    for (const auto& p : f.procs) ASSERT_TRUE(bounded(*p, t));
    const gm::UnstableReport r = seq.unstable_messages();
    for (const gm::UnstableEntry& e : r.entries)
      if (e.seqnum > r.watermark) in_flight.push_back(e.msg->id);
  }
  // Without compaction arrival order would hold every id seen so far.
  ASSERT_GT(seq.log().size(), 800u);
  ASSERT_LT(seq.data_plane_dbg().arrival_order, seq.log().size() / 8);
  f.sys.crash(0);

  struct Sink final : DeliverSink {
    net::System* sys = nullptr;
    std::vector<std::pair<MsgId, double>> at;
    void on_deliver(const AppMessage& m) override { at.emplace_back(m.id, sys->now()); }
  } sink;
  sink.sys = &f.sys;
  f.procs[1]->set_deliver_sink(&sink);
  f.sys.scheduler().run_until(30000.0);

  EXPECT_EQ(f.procs[1]->view().members, (std::vector<net::ProcessId>{1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(f.procs[1]->is_sequencer());
  EXPECT_EQ(f.procs[1]->membership().views_installed(), 1u);
  std::vector<MsgId> from_survivors;
  for (const MsgId& id : ids)
    if (id.origin != 0) from_survivors.push_back(id);
  f.check_safety(from_survivors);
  f.check_safety(in_flight);
  for (std::size_t p = 2; p < 7; ++p) {
    ASSERT_EQ(f.procs[p]->log().size(), f.procs[1]->log().size()) << "p" << p;
    for (std::size_t i = 0; i < f.procs[1]->log().size(); ++i)
      ASSERT_EQ(f.procs[p]->log()[i]->id, f.procs[1]->log()[i]->id) << "p" << p << " @" << i;
  }
  for (std::size_t p = 1; p < 7; ++p) EXPECT_TRUE(bounded(*f.procs[p], f.sys.now()));

  // The dead sequencer's batch is settled by the flush, at the view change.
  auto delivered_at = [&](const MsgId& id) {
    for (const auto& [d, when] : sink.at)
      if (d == id) return when;
    return -1.0;
  };
  double flush_t = 1e300;
  for (const MsgId& id : in_flight) flush_t = std::min(flush_t, delivered_at(id));
  ASSERT_GT(flush_t, t);
  // Messages pending at the view change that the flush did not settle
  // (broadcast too late for the survivors' unstable reports) were
  // re-sequenced by p1: the only view change is behind them, so only the
  // new sequencer's assignments can have delivered them.
  std::size_t resequenced = 0;
  for (std::size_t i = 0; i < ids.size(); ++i)
    resequenced += sent_at[i] < flush_t && delivered_at(ids[i]) > flush_t ? 1 : 0;
  EXPECT_GT(resequenced, 0u);
}

// ------------------------------------------------ proposals built once

// The selection the sequencer's cover replaces: the majority-th largest
// and the smallest of the view's points, by nth_element and min_element.
AckCover::Cover reference_cover(const std::vector<std::int64_t>& acks, const gm::View& view,
                                net::ProcessId self, std::int64_t floor, std::int64_t own) {
  std::vector<std::int64_t> cover{own};
  for (net::ProcessId p : view.members) {
    if (p == self) continue;
    const std::int64_t a = acks[static_cast<std::size_t>(p)];
    cover.push_back(a == AckCover::kNoAck ? floor : a);
  }
  const auto kth = cover.begin() + static_cast<std::ptrdiff_t>(view.majority() - 1);
  std::nth_element(cover.begin(), kth, cover.end(), std::greater<>());
  return {*kth, *std::min_element(cover.begin(), cover.end())};
}

// Random cumulative ACK streams, against the reference selection on every
// call: members that never ack (kNoAck counts as the floor), ACKs from
// processes outside the view (recorded, never counted), first ACKs below
// the floor, stale ACKs, the sequencer's own point rising, the floor
// rising mid-view, and views replaced mid-stream (a reset, with other
// members, a new floor and the own point back at the floor).
TEST(GmAbcast, AckCoverMatchesTheSelectionOverTheView) {
  constexpr int kN = 11;
  sim::Rng rng(41);
  AckCover cover(kN);
  std::vector<std::int64_t> acks(kN, AckCover::kNoAck);
  gm::View view;
  net::ProcessId self = 0;
  std::int64_t floor = 0;
  std::int64_t own = 0;
  std::size_t raised = 0;
  std::size_t views = 0;
  auto new_view = [&] {
    view.id += 1;
    view.members.clear();
    for (int p = 0; p < kN; ++p)
      if (rng.uniform() < 0.7) view.members.push_back(p);
    if (view.members.empty()) view.members.push_back(0);
    const auto last = static_cast<std::int64_t>(view.members.size()) - 1;
    self = view.members[static_cast<std::size_t>(rng.uniform_int(0, last))];
    floor += rng.uniform_int(0, 20);
    own = floor;
    std::ranges::fill(acks, AckCover::kNoAck);
    cover.reset();
    ++views;
  };
  new_view();
  AckCover::Cover last = cover.select(view, self, floor, own);
  for (int step = 0; step < 60000; ++step) {
    const double r = rng.uniform();
    if (r < 0.7) {
      const auto p = static_cast<net::ProcessId>(rng.uniform_int(0, kN - 1));
      std::int64_t& a = acks[static_cast<std::size_t>(p)];
      // Usually a little above the member's point, sometimes a stale one
      // or (first ACK) one below the floor.
      std::int64_t cum = (a == AckCover::kNoAck ? floor : a) + rng.uniform_int(-2, 6);
      if (a == AckCover::kNoAck && rng.uniform() < 0.05) cum = floor - rng.uniform_int(1, 5);
      cum = std::max<std::int64_t>(cum, 0);
      a = std::max(a, cum);
      ASSERT_EQ(cover.ack(p, cum), a) << "step " << step;
    } else if (r < 0.9) {
      own += rng.uniform_int(0, 4);
    } else if (r < 0.9015) {
      floor += rng.uniform_int(1, 5);  // a state transfer raised it
    } else if (r < 0.903) {
      new_view();
    }
    if (rng.uniform() < 0.6) {  // the sequencer selects after some steps only
      const AckCover::Cover got = cover.select(view, self, floor, own);
      const AckCover::Cover want = reference_cover(acks, view, self, floor, own);
      ASSERT_EQ(got.deliverable, want.deliverable) << "step " << step;
      ASSERT_EQ(got.stable, want.stable) << "step " << step;
      if (got.deliverable > last.deliverable) ++raised;
      last = got;
    }
  }
  EXPECT_GT(views, 50u);
  EXPECT_GT(raised, 1000u);
}

/// A membership client with nothing to report or flush.
class IdleClient final : public gm::MembershipClient {
 public:
  [[nodiscard]] gm::UnstableReport unstable_messages() const override { return {}; }
  void on_view_change_started() override {}
  void flush(const std::vector<gm::UnstableEntry>&, std::int64_t) override {}
  void on_view_installed(const gm::View&, bool) override {}
  [[nodiscard]] std::uint64_t log_length() const override { return 0; }
  [[nodiscard]] net::PayloadPtr make_state(std::uint64_t) const override { return nullptr; }
  void apply_state(const net::PayloadPtr&) override {}
};

/// Holds the membership messages sent to one process instead of handing
/// them over, so a test can feed them in an order of its choosing.
class HeldMessages final : public net::Layer {
 public:
  void on_message(const net::Message& m) override { msgs.push_back(m); }
  std::vector<net::Message> msgs;
};

// p0 starts a view change of a 9-member group suspecting p8; p0's
// unstable reports are held and fed to it in reverse member order, p8's
// first.  Midway p0 comes to suspect p1 as well, then trusts it again (the
// snapshot keeps it).  After every event, consensus has started exactly
// when the scan over the view says so: every member reported or
// excluded, and the reporting unexcluded ones a majority.  That is at
// p2's report, before p1's arrives; a count that missed the snapshot
// change would wait for p1.  p7's report is fed twice, and p8's counts
// for nothing: a count that dropped for either would start at p3's.
TEST(GmMembership, ConsensusStartsAtTheReportTheScanOverTheViewPicks) {
  constexpr int kN = 9;
  net::System sys(kN, {}, 3);
  std::vector<std::unique_ptr<fd::FailureDetector>> fds;
  std::vector<std::unique_ptr<IdleClient>> clients;
  std::vector<std::unique_ptr<gm::GroupMembership>> members;
  for (int i = 0; i < kN; ++i) {
    fds.push_back(std::make_unique<fd::FailureDetector>(i, kN));
    clients.push_back(std::make_unique<IdleClient>());
    members.push_back(std::make_unique<gm::GroupMembership>(sys, i, *fds.back(), *clients.back()));
  }
  HeldMessages held;
  sys.node(0).register_handler(net::ProtocolId::kMembership, &held);
  const gm::GroupMembership& m0 = *members[0];

  std::set<net::ProcessId> excluded{8};
  std::set<net::ProcessId> reported{0};
  auto scan_says_started = [&] {
    std::size_t p = 0;
    for (net::ProcessId q = 0; q < kN; ++q) {
      const bool out = q != 0 && excluded.contains(q);
      if (!reported.contains(q) && !out) return false;
      if (reported.contains(q) && !out) ++p;
    }
    return p >= static_cast<std::size_t>(kN / 2 + 1);
  };

  fds[0]->set_suspected(8, true);
  sys.scheduler().run();
  ASSERT_FALSE(m0.debug_consensus_started());
  std::map<net::ProcessId, net::Message> reports;
  for (const net::Message& m : held.msgs) reports.emplace(m.src, m);
  ASSERT_EQ(reports.size(), static_cast<std::size_t>(kN - 1));

  gm::GroupMembership& p0 = *members[0];
  int started_at = -1;
  auto check = [&](const char* event, net::ProcessId q) {
    ASSERT_EQ(m0.debug_consensus_started(), scan_says_started()) << event << " p" << q;
    if (started_at < 0 && m0.debug_consensus_started()) started_at = q;
  };
  auto feed = [&](net::ProcessId q) {
    p0.on_message(reports.at(q));
    reported.insert(q);
    check("report", q);
  };
  feed(8);
  feed(7);
  fds[0]->set_suspected(1, true);
  excluded.insert(1);
  check("suspect", 1);
  feed(6);
  feed(5);
  fds[0]->set_suspected(1, false);  // the snapshot keeps p1 out
  check("trust", 1);
  feed(7);  // again
  feed(4);
  feed(3);
  feed(2);
  feed(1);
  EXPECT_EQ(started_at, 2);
}

TEST(GmAbcast, OnlyTheRoundOneCoordinatorBuildsAViewChangeProposal) {
  // One view change of a 64-member group whose consensus decides in
  // round 1: every member has delivered a message from each of the
  // others, then p63 crashes.  Every payload the view change builds goes
  // on the wire, the one proposal inside PROPOSE and DECIDE; p0's ACK of
  // its own proposal is handled locally and builds none.  A proposal
  // built at every member (only the round-1 coordinator's, p0's, is ever
  // sent) would leave 62 unsent.
  constexpr int kN = 64;
  fd::QosParams qp;
  qp.detection_time = 10.0;
  Fixture f(kN, qp, 7);
  for (const auto& p : f.procs) p->a_broadcast();
  f.sys.scheduler().run();

  std::unordered_set<net::PayloadPtr> sent;
  std::unordered_set<net::PayloadPtr> values;  // consensus values on the wire
  f.sys.network().set_delivery_tap([&](const net::Message& m, net::ProcessId) {
    sent.insert(m.payload);
    if (const auto* c = net::payload_cast<consensus::ConsensusMsg>(m.payload);
        c != nullptr && c->value != nullptr)
      values.insert(c->value);
  });
  const std::uint64_t before = f.sys.arena().objects();
  f.sys.crash(kN - 1);
  f.sys.scheduler().run();
  const std::uint64_t built = f.sys.arena().objects() - before;

  for (int i = 0; i < kN - 1; ++i) {
    const auto& p = *f.procs[static_cast<std::size_t>(i)];
    ASSERT_EQ(p.view().id, 1u) << "p" << i;
    ASSERT_EQ(p.view().members.size(), static_cast<std::size_t>(kN - 1)) << "p" << i;
  }
  EXPECT_EQ(values.size(), 1u) << "proposals on the wire";
  EXPECT_EQ(built, sent.size() + values.size()) << "payloads built but never sent";
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

class GmAbcastProperty : public ::testing::TestWithParam<Param> {};

TEST_P(GmAbcastProperty, SafetyUnderRandomFaultSchedules) {
  const Param p = GetParam();
  fd::QosParams qp;
  qp.detection_time = 12.0;
  if (p.suspicions) {
    qp.wrong_suspicions = true;
    qp.mistake_recurrence = 400.0;
    qp.mistake_duration = 2.0;
  }
  Fixture f(p.n, qp, p.seed);
  sim::Rng rng(p.seed * 131 + 9);
  std::vector<MsgId> ids;
  for (int i = 0; i < 60; ++i) {
    const double t = rng.uniform(0.0, 300.0);
    const auto sender = static_cast<std::size_t>(rng.uniform_int(0, p.n - 1));
    f.sys.scheduler().schedule_at(t, [&f, &ids, sender] {
      const MsgId id = f.procs[sender]->a_broadcast();
      if (id.seq != 0) ids.push_back(id);
    });
  }
  for (int c = 0; c < p.crashes; ++c) f.sys.crash_at(c, rng.uniform(5.0, 200.0));
  f.sys.scheduler().run_until(30000.0);
  f.check_safety();
  // Liveness for messages from correct senders — but only when crashes and
  // wrong suspicions do not combine: a wrong exclusion shrinks the view,
  // and a real crash on top can exceed f < n/2 *of the current view*,
  // permanently blocking the group.  That is the GM algorithm's
  // documented resiliency limit (paper §5.2 evaluates the two fault types
  // separately for exactly this reason), not a defect to assert against.
  if (p.crashes == 0 || !p.suspicions) {
    std::vector<MsgId> from_correct;
    for (const MsgId& id : ids)
      if (id.origin >= p.crashes) from_correct.push_back(id);
    f.check_safety(from_correct);
  }
}

std::vector<Param> grid() {
  std::vector<Param> out;
  for (int n : {3, 5, 7})
    for (std::uint64_t s : {11ULL, 22ULL, 33ULL, 44ULL})
      for (int crashes : {0, (n - 1) / 2})
        for (bool susp : {false, true}) out.push_back({n, s, crashes, susp});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, GmAbcastProperty, ::testing::ValuesIn(grid()),
                         [](const ::testing::TestParamInfo<Param>& info) {
                           const auto& p = info.param;
                           return "i" + std::to_string(info.index) + "_n" + std::to_string(p.n) +
                                  "_c" + std::to_string(p.crashes) +
                                  (p.suspicions ? "_susp" : "_clean");
                         });

}  // namespace
}  // namespace fdgm::abcast
