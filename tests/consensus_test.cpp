// Tests of the Chandra-Toueg ◇S consensus: agreement / validity /
// termination in failure-free runs, coordinator crash handling, wrong
// suspicions, message-pattern checks (Fig. 1), the re-numbering offset,
// and randomized property sweeps over crash/suspicion schedules.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "consensus/chandra_toueg.hpp"
#include "fd/qos_model.hpp"
#include "net/system.hpp"

namespace fdgm::consensus {
namespace {

class Value final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kApplication;
  static constexpr std::uint8_t kKind = 34;
  explicit Value(int v) : Payload(kProto, kKind), v(v) {}
  int v;
};

int value_of(net::PayloadPtr p) {
  const Value* v = net::payload_cast<Value>(p);
  return v != nullptr ? v->v : -1;
}

/// One process's client: records decisions, and joins any instance on
/// its first message.
class Recorder final : public Client {
 public:
  Recorder(net::System& sys, net::ProcessId self) : sys_(&sys), self_(self) {}

  std::optional<StartInfo> join(std::uint64_t) override {
    // Late joiners propose their process id by default.
    return StartInfo{&sys_->all(), 0, sys_->arena().make<Value>(100 + self_)};
  }
  void on_decide(std::uint64_t number, net::PayloadPtr v) override {
    decisions.emplace(number, value_of(v));
  }

  std::map<std::uint64_t, int> decisions;

 private:
  net::System* sys_;
  net::ProcessId self_;
};

struct Fixture {
  explicit Fixture(int n, fd::QosParams qp = {}, std::uint64_t seed = 1)
      : sys(n, {}, seed), fd(sys, qp) {
    for (int i = 0; i < n; ++i) {
      clients.push_back(std::make_unique<Recorder>(sys, i));
      services.push_back(std::make_unique<ConsensusService>(sys, i, fd.at(i), *clients.back(),
                                                            /*first_number=*/1));
    }
    fd.start();
  }

  /// Decisions of process i, by instance number.
  [[nodiscard]] const std::map<std::uint64_t, int>& decisions(int i) const {
    return clients[static_cast<std::size_t>(i)]->decisions;
  }

  /// Every process proposes `base + its id` for instance k.
  void propose_all(std::uint64_t k, int base = 0, int offset = 0) {
    for (int i = 0; i < sys.n(); ++i) {
      if (sys.node(i).crashed()) continue;
      services[static_cast<std::size_t>(i)]->start(
          k, StartInfo{&sys.all(), offset, sys.arena().make<Value>(base + i)});
    }
  }

  /// Checks uniform agreement for instance k among processes that decided;
  /// returns the decided value.
  int check_agreement(std::uint64_t k) {
    std::optional<int> decided;
    for (int i = 0; i < sys.n(); ++i) {
      auto it = decisions(i).find(k);
      if (it == decisions(i).end()) continue;
      if (!decided)
        decided = it->second;
      else
        EXPECT_EQ(*decided, it->second) << "disagreement at process " << i;
    }
    EXPECT_TRUE(decided.has_value()) << "nobody decided instance " << k;
    return decided.value_or(-1);
  }

  [[nodiscard]] std::size_t deciders(std::uint64_t k) const {
    std::size_t c = 0;
    for (const auto& cl : clients) c += cl->decisions.contains(k);
    return c;
  }

  net::System sys;
  fd::QosFailureDetectorModel fd;
  std::vector<std::unique_ptr<Recorder>> clients;
  std::vector<std::unique_ptr<ConsensusService>> services;
};

TEST(Consensus, FailureFreeDecidesCoordinatorValue) {
  Fixture f(3);
  f.propose_all(1);
  f.sys.scheduler().run();
  // Round-1 coordinator with offset 0 is p0; its value must win (validity:
  // it proposes its own initial value in the optimized first round).
  EXPECT_EQ(f.check_agreement(1), 0);
  EXPECT_EQ(f.deciders(1), 3u);
}

TEST(Consensus, AllDecideForVariousN) {
  for (int n : {1, 2, 3, 4, 5, 7, 9}) {
    Fixture f(n);
    f.propose_all(1);
    f.sys.scheduler().run();
    EXPECT_EQ(f.deciders(1), static_cast<std::size_t>(n)) << "n=" << n;
    f.check_agreement(1);
  }
}

TEST(Consensus, OffsetSelectsRoundOneCoordinator) {
  Fixture f(5);
  f.propose_all(1, 0, /*offset=*/3);
  f.sys.scheduler().run();
  EXPECT_EQ(f.check_agreement(1), 3);
}

TEST(Consensus, FailureFreeMessagePattern) {
  // Fig. 1: one proposal multicast, n-1 unicast acks, one decision
  // multicast (the initial data dissemination belongs to abcast, not
  // consensus).  Total wire slots: 2 multicasts + (n-1) unicasts.
  Fixture f(5);
  f.propose_all(1);
  f.sys.scheduler().run();
  EXPECT_EQ(f.sys.network().network_uses(), 2u + 4u);
}

TEST(Consensus, CoordinatorCrashBeforeProposeTriggersRoundTwo) {
  fd::QosParams qp;
  qp.detection_time = 20.0;
  Fixture f(3, qp);
  f.sys.crash(0);  // round-1 coordinator dead from the start
  f.propose_all(1);
  f.sys.scheduler().run();
  EXPECT_EQ(f.deciders(1), 2u);
  // Round 2's coordinator is p1; its estimate (its own initial, since no
  // value was locked) must win.
  EXPECT_EQ(f.check_agreement(1), 1);
}

TEST(Consensus, CoordinatorCrashAfterProposeStillDecides) {
  fd::QosParams qp;
  qp.detection_time = 50.0;
  Fixture f(5, qp);
  f.propose_all(1);
  // Let the proposal go out (it is on the CPU/wire within ~3ms), then
  // crash the coordinator before it can collect acks.
  f.sys.scheduler().run_until(2.0);
  f.sys.crash(0);
  f.sys.scheduler().run();
  ASSERT_EQ(f.deciders(1), 4u);
  // Agreement must hold regardless of which round decided.
  f.check_agreement(1);
}

TEST(Consensus, DecisionReachesLateJoiner) {
  // p2 never proposes explicitly; it joins when consensus traffic arrives,
  // and must still learn the decision.
  Fixture f(3);
  for (int i : {0, 1})
    f.services[static_cast<std::size_t>(i)]->start(
        1, StartInfo{&f.sys.all(), 0, f.sys.arena().make<Value>(i)});
  f.sys.scheduler().run();
  EXPECT_EQ(f.deciders(1), 3u);
  f.check_agreement(1);
}

TEST(Consensus, SingleWrongSuspicionDoesNotKillTheRound) {
  // One process nacks (wrong suspicion of the coordinator) but the
  // coordinator still gathers a majority of acks and decides in round 1.
  Fixture f(5);
  f.propose_all(1);
  // Inject a wrong suspicion at p4 right after the proposal is sent.
  f.sys.scheduler().schedule_at(4.0, [&] {
    f.fd.at(4).set_suspected(0, true);
    f.fd.at(4).set_suspected(0, false);
  });
  f.sys.scheduler().run();
  EXPECT_EQ(f.deciders(1), 5u);
  EXPECT_EQ(f.check_agreement(1), 0);
}

TEST(Consensus, MajorityWrongSuspicionsStillAgree) {
  Fixture f(5);
  f.propose_all(1);
  f.sys.scheduler().schedule_at(4.0, [&] {
    for (int q = 1; q < 5; ++q) {
      f.fd.at(q).set_suspected(0, true);
      f.fd.at(q).set_suspected(0, false);
    }
  });
  f.sys.scheduler().run();
  EXPECT_GE(f.deciders(1), 5u);
  f.check_agreement(1);
}

TEST(Consensus, ConcurrentInstancesAreIndependent) {
  Fixture f(3);
  f.propose_all(1, 10);
  f.propose_all(2, 20);
  f.propose_all(3, 30);
  f.sys.scheduler().run();
  EXPECT_EQ(f.check_agreement(1), 10);
  EXPECT_EQ(f.check_agreement(2), 20);
  EXPECT_EQ(f.check_agreement(3), 30);
}

TEST(Consensus, TwoProcessSystemToleratesNoCrashButDecides) {
  Fixture f(2);
  f.propose_all(1);
  f.sys.scheduler().run();
  EXPECT_EQ(f.deciders(1), 2u);
  EXPECT_EQ(f.check_agreement(1), 0);
}

TEST(Consensus, DecidedInstanceIgnoresStragglers) {
  Fixture f(3);
  f.propose_all(1);
  f.sys.scheduler().run();
  EXPECT_TRUE(f.services[0]->decided(1));
  EXPECT_FALSE(f.services[0]->running(1));
  // Restarting a decided instance is a no-op.
  f.services[0]->start(1, StartInfo{&f.sys.all(), 0, f.sys.arena().make<Value>(99)});
  f.sys.scheduler().run();
  EXPECT_EQ(f.decisions(0).at(1), 0);
}

TEST(Consensus, DecidedStateBoundedAfter10kInstances) {
  // 10k instances, started two at a time with different coordinators so
  // decisions can land out of order.  The decided set is a watermark plus
  // a window of the instances in flight, not one entry per instance ever
  // decided, and still answers decided() for every instance.
  Fixture f(3);
  for (std::uint64_t k = 1; k <= 10000; k += 2) {
    f.propose_all(k + 1, 0, /*offset=*/1);
    f.propose_all(k);
    f.sys.scheduler().run();
    for (const auto& s : f.services) ASSERT_LE(s->decided_words_dbg(), 2u) << "instance " << k;
  }
  for (const auto& s : f.services) {
    EXPECT_LE(s->decided_words_dbg(), 1u);
    EXPECT_FALSE(s->decided(0));  // below the first instance
    EXPECT_TRUE(s->decided(1));
    EXPECT_TRUE(s->decided(10000));
    EXPECT_FALSE(s->decided(10001));
  }
  EXPECT_EQ(f.deciders(10000), 3u);
  f.check_agreement(10000);
}

TEST(Consensus, ValidityDecisionIsSomeProposal) {
  // Under arbitrary wrong suspicions the decided value must still be one
  // of the proposed values.
  fd::QosParams qp;
  qp.wrong_suspicions = true;
  qp.mistake_recurrence = 30.0;
  qp.mistake_duration = 5.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Fixture f(5, qp, seed);
    f.propose_all(1, 10);
    f.sys.scheduler().run_until(20000.0);
    if (f.deciders(1) == 0) continue;  // extreme schedules may stall; safety only
    const int v = f.check_agreement(1);
    EXPECT_GE(v, 10);
    EXPECT_LT(v, 15);
  }
}

// ------------------------------------------- null initial values (refresh)

TEST(Consensus, OnlyRoundOneCoordinatorHoldsAValueAndCrashesBeforeProposing) {
  // A client with a refresh builds its initial value only where round 1
  // proposes it.  Here that coordinator, p0, is dead before its proposal
  // leaves; every other process starts with a null initial value.  The
  // round-2 coordinator p1 can gather a majority only from null
  // ESTIMATEs (timestamp 0), so it must count them and propose its own
  // refresh() value.
  std::vector<int> refreshes(5, 0);
  fd::QosParams qp;
  qp.detection_time = 20.0;
  Fixture f(5, qp);
  f.sys.crash(0);
  for (int i = 0; i < 5; ++i) {
    StartInfo info{
        .members = &f.sys.all(),
        .coordinator_offset = 0,
        .initial = i == 0 ? f.sys.arena().make<Value>(0) : nullptr,
        .refresh =
            [&f, &refreshes, i] {
              ++refreshes[static_cast<std::size_t>(i)];
              return f.sys.arena().make<Value>(200 + i);
            },
    };
    f.services[static_cast<std::size_t>(i)]->start(1, std::move(info));
  }
  f.sys.scheduler().run();
  EXPECT_EQ(f.deciders(1), 4u);
  EXPECT_EQ(f.check_agreement(1), 201);
  EXPECT_EQ(refreshes, (std::vector<int>{0, 1, 0, 0, 0}));
}

TEST(Consensus, NullInitialValueWithoutRefreshThrows) {
  Fixture f(3);
  EXPECT_THROW(f.services[1]->start(1, StartInfo{&f.sys.all(), 0, nullptr}), std::logic_error);
  EXPECT_FALSE(f.services[1]->running(1));
}

TEST(Consensus, RoundOneCoordinatorWithoutValueThrows) {
  Fixture f(3);
  StartInfo info{&f.sys.all(), 0, nullptr};
  info.refresh = [&f] { return f.sys.arena().make<Value>(7); };
  EXPECT_THROW(f.services[0]->start(1, std::move(info)), std::logic_error);
}

// ------------------------------------------------ lazily sized reply arrays

/// Counts the distinct ConsensusMsg payloads of `kind` and `round` the
/// network delivers.
struct KindTap {
  KindTap(net::System& sys, ConsensusMsg::Kind kind, std::uint32_t round) {
    sys.network().set_delivery_tap([this, kind, round](const net::Message& m, net::ProcessId) {
      const auto* c = net::payload_cast<ConsensusMsg>(m.payload);
      if (c != nullptr && c->kind == kind && c->round == round) seen.insert(c);
    });
  }
  std::set<const ConsensusMsg*> seen;
};

TEST(Consensus, RoundTwoCoordinatorWhoseFirstReplyIsANack) {
  // A coordinator sizes a round's reply array on the first reply it
  // records.  Here p1, round 2's coordinator, records p4's NACK of round 2
  // before anything else of that round (handed to its service directly:
  // on FIFO channels a process's ESTIMATE precedes its NACK).  The NACK
  // falls in round 2's first majority of replies, so the round fails,
  // round 3's coordinator p2 collects the value locked by the round-2
  // ACKs, and everyone decides p1's value.
  fd::QosParams qp;
  qp.detection_time = 20.0;
  Fixture f(5, qp);
  KindTap round_failed(f.sys, ConsensusMsg::Kind::kRoundFailed, 2);
  f.sys.crash(0);
  f.propose_all(1);
  f.sys.scheduler().run_until(1.0);
  ASSERT_TRUE(f.services[1]->running(1));
  net::Message nack;
  nack.src = 4;
  nack.proto = net::ProtocolId::kConsensus;
  nack.payload = f.sys.arena().make<ConsensusMsg>(1, ConsensusMsg::Kind::kNack, 2, nullptr, 0);
  f.services[1]->on_message(nack);
  f.sys.scheduler().run();
  EXPECT_EQ(round_failed.seen.size(), 1u);
  EXPECT_EQ(f.deciders(1), 4u);
  EXPECT_EQ(f.check_agreement(1), 1);
}

TEST(Consensus, RoundTwoCoordinatorWhoseFirstReplyIsAnEstimate) {
  // p0's round-1 proposal reaches everyone, who ACK it (locking p0's value
  // with timestamp 1), but p0 crashes before it collects the ACKs.  The
  // others suspect it and move to round 2, whose coordinator p1 records
  // ESTIMATEs first: the array they size must carry the locked value,
  // which p1 then proposes and everyone decides.
  fd::QosParams qp;
  qp.detection_time = 50.0;
  Fixture f(5, qp);
  KindTap round2_proposals(f.sys, ConsensusMsg::Kind::kPropose, 2);
  f.propose_all(1);
  f.sys.scheduler().run_until(2.0);
  f.sys.crash(0);
  f.sys.scheduler().run();
  EXPECT_EQ(round2_proposals.seen.size(), 1u);
  EXPECT_EQ(f.deciders(1), 4u);
  EXPECT_EQ(f.check_agreement(1), 0);
}

// ---------------------------------------------------------------- property

// gtest suffixes each test ID with a dump of this struct's bytes
// ("# GetParam() = 24-byte object <...>"), so it has no padding: padding
// bytes are uninitialised and made the IDs differ from build to build.
struct PropertyParam {
  std::int64_t n;
  std::uint64_t seed;
  std::int32_t crashes;     // crashed during the run (minority)
  std::int32_t suspicions;  // 0 or 1: wrong suspicions enabled
};
static_assert(std::has_unique_object_representations_v<PropertyParam>);

class ConsensusProperty : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(ConsensusProperty, UniformAgreementValidityTermination) {
  const PropertyParam p = GetParam();
  fd::QosParams qp;
  qp.detection_time = 15.0;
  if (p.suspicions) {
    qp.wrong_suspicions = true;
    qp.mistake_recurrence = 60.0;
    qp.mistake_duration = 2.0;
  }
  Fixture f(p.n, qp, p.seed);
  f.propose_all(1, 10);
  // Crash a minority at staggered random-ish times derived from the seed.
  sim::Rng rng(p.seed);
  for (int c = 0; c < p.crashes; ++c) {
    const auto victim = static_cast<net::ProcessId>(c);  // includes coordinator p0
    f.sys.crash_at(victim, 1.0 + rng.uniform(0.0, 25.0));
  }
  f.sys.scheduler().run_until(20000.0);

  // Termination: every correct process decides (with a live majority).
  std::size_t correct = 0;
  for (int i = 0; i < p.n; ++i) correct += !f.sys.node(i).crashed();
  ASSERT_GT(correct * 2, static_cast<std::size_t>(p.n));
  std::size_t correct_deciders = 0;
  for (int i = 0; i < p.n; ++i)
    if (!f.sys.node(i).crashed() && f.decisions(i).contains(1))
      ++correct_deciders;
  EXPECT_EQ(correct_deciders, correct);

  // Uniform agreement (includes decisions at processes that later crashed)
  // and validity.
  const int v = f.check_agreement(1);
  EXPECT_GE(v, 10);
  EXPECT_LT(v, 10 + p.n);
}

std::vector<PropertyParam> property_grid() {
  std::vector<PropertyParam> out;
  for (int n : {3, 5, 7})
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL})
      for (int crashes : {0, 1, (n - 1) / 2})
        for (bool susp : {false, true})
          out.push_back({n, seed * 17 + static_cast<std::uint64_t>(crashes), crashes, susp});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConsensusProperty, ::testing::ValuesIn(property_grid()),
                         [](const ::testing::TestParamInfo<PropertyParam>& info) {
                           const auto& p = info.param;
                           return "i" + std::to_string(info.index) + "_n" + std::to_string(p.n) +
                                  "_c" + std::to_string(p.crashes) +
                                  (p.suspicions ? "_susp" : "_clean");
                         });

}  // namespace
}  // namespace fdgm::consensus
