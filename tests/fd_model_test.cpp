// Tests of the QoS failure-detector model (paper §6.2): detection time TD,
// permanence of crash suspicions, the TMR/TM renewal process statistics,
// listener edge notifications, and independence of pair modules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "fd/qos_model.hpp"
#include "net/system.hpp"
#include "util/stats.hpp"

namespace fdgm::fd {
namespace {

class EdgeLog final : public SuspicionListener {
 public:
  explicit EdgeLog(net::System& sys) : sys_(&sys) {}
  void on_suspect(net::ProcessId p) override { suspects.emplace_back(p, sys_->now()); }
  void on_trust(net::ProcessId p) override { trusts.emplace_back(p, sys_->now()); }
  std::vector<std::pair<net::ProcessId, sim::Time>> suspects;
  std::vector<std::pair<net::ProcessId, sim::Time>> trusts;

 private:
  net::System* sys_;
};

TEST(FdModel, NoSuspicionsWithoutCrashesOrMistakes) {
  net::System sys(3, {}, 1);
  QosFailureDetectorModel fd(sys, QosParams{});
  fd.start();
  sys.scheduler().run_until(10000.0);
  for (int q = 0; q < 3; ++q)
    for (int p = 0; p < 3; ++p) EXPECT_FALSE(fd.at(q).suspects(p));
}

TEST(FdModel, CrashDetectedAfterExactlyTd) {
  net::System sys(3, {}, 1);
  QosFailureDetectorModel fd(sys, QosParams{.detection_time = 75.0});
  EdgeLog log(sys);
  fd.at(1).add_listener(&log);
  fd.start();
  sys.crash_at(0, 100.0);
  sys.scheduler().run_until(1000.0);
  ASSERT_EQ(log.suspects.size(), 1u);
  EXPECT_EQ(log.suspects[0].first, 0);
  EXPECT_DOUBLE_EQ(log.suspects[0].second, 175.0);
  EXPECT_TRUE(fd.at(1).suspects(0));
  EXPECT_TRUE(fd.at(2).suspects(0));
}

TEST(FdModel, CrashSuspicionIsPermanent) {
  net::System sys(2, {}, 1);
  QosFailureDetectorModel fd(sys, QosParams{.detection_time = 0.0});
  fd.start();
  sys.crash_at(0, 10.0);
  sys.scheduler().run_until(100000.0);
  EXPECT_TRUE(fd.at(1).suspects(0));
}

TEST(FdModel, ZeroTdDetectsInstantly) {
  net::System sys(2, {}, 1);
  QosFailureDetectorModel fd(sys, QosParams{.detection_time = 0.0});
  EdgeLog log(sys);
  fd.at(1).add_listener(&log);
  fd.start();
  sys.crash_at(0, 50.0);
  sys.scheduler().run_until(51.0);
  ASSERT_EQ(log.suspects.size(), 1u);
  EXPECT_DOUBLE_EQ(log.suspects[0].second, 50.0);
}

// The suspicions one monitor observes of one target under drawn TMR and
// TM: the edges' start-to-start gap and suspect-to-trust duration.  Mistake
// starts are a Poisson process (the next gap is drawn from a mistake's
// start) and overlapping mistakes merge into one suspicion, so the
// suspected time is the busy time of an M/M/inf queue with load
// rho = TM / TMR.  It is idle (trusted) with probability e^-rho, and an
// idle period lasts TMR on average (memoryless starts), so the observed
// recurrence is e^rho * TMR and the observed duration (e^rho - 1) * TMR.
struct ObservedQos {
  double recurrence;  // mean start-to-start gap of suspicions
  double duration;    // mean suspicion length
  std::size_t count;
};
// Loads rho = TM / TMR and the relative tolerance of their closed forms:
// over 1e7 ms at TMR = 100 ms (37k-91k suspicions) the observed means
// have a standard deviation of 0.25-0.75% across seeds (29 seeds).
constexpr std::pair<double, double> kLoads[] = {{0.1, 0.02}, {1.0, 0.03}};

ObservedQos observe_qos(double tmr, double tm, double horizon, std::uint64_t seed) {
  net::System sys(2, {}, seed);
  QosParams qp;
  qp.wrong_suspicions = true;
  qp.mistake_recurrence = tmr;
  qp.mistake_duration = tm;
  QosFailureDetectorModel fd(sys, qp);
  EdgeLog log(sys);
  fd.at(1).add_listener(&log);
  fd.start();
  sys.scheduler().run_until(horizon);
  util::RunningStats durations;
  const std::size_t n = std::min(log.suspects.size(), log.trusts.size());
  for (std::size_t i = 0; i < n; ++i)
    durations.add(log.trusts[i].second - log.suspects[i].second);
  const std::size_t count = log.suspects.size();
  const double span = count < 2 ? 0.0 : log.suspects.back().second - log.suspects.front().second;
  return {count < 2 ? 0.0 : span / static_cast<double>(count - 1), durations.mean(), count};
}

TEST(FdModel, WrongSuspicionRecurrenceMatchesTmr) {
  net::System sys(2, {}, 7);
  QosParams qp;
  qp.wrong_suspicions = true;
  qp.mistake_recurrence = 200.0;
  qp.mistake_duration = 0.0;
  QosFailureDetectorModel fd(sys, qp);
  EdgeLog log(sys);
  fd.at(1).add_listener(&log);
  fd.start();
  const double horizon = 400000.0;
  sys.scheduler().run_until(horizon);
  // Expect ~horizon/TMR mistakes; allow 10% slack.
  const double expected = horizon / qp.mistake_recurrence;
  EXPECT_NEAR(static_cast<double>(log.suspects.size()), expected, expected * 0.10);
  // TM = 0: every suspect edge is followed by a trust edge at the same time.
  ASSERT_EQ(log.trusts.size(), log.suspects.size());
  for (std::size_t i = 0; i < log.suspects.size(); ++i)
    EXPECT_DOUBLE_EQ(log.trusts[i].second, log.suspects[i].second);
  // Overlapping mistakes merge: observed T_MR = e^rho * TMR (drawing the
  // next gap from a mistake's end would give TMR + TM instead).
  for (const auto& [rho, tolerance] : kLoads) {
    const ObservedQos q = observe_qos(100.0, rho * 100.0, 1.0e7, 19);
    const double expected = std::exp(rho) * 100.0;
    EXPECT_NEAR(q.recurrence, expected, expected * tolerance) << "rho " << rho;
  }
}

TEST(FdModel, MistakeDurationMatchesTm) {
  const ObservedQos light = observe_qos(1000.0, 40.0, 2.0e6, 11);
  ASSERT_GT(light.count, 200u);
  EXPECT_NEAR(light.duration, 40.0, 40.0 * 0.15);
  // Overlapping mistakes merge: observed T_M = (e^rho - 1) * TMR, above the
  // drawn TM (drawing the next gap from a mistake's end would give TM).
  for (const auto& [rho, tolerance] : kLoads) {
    const ObservedQos q = observe_qos(100.0, rho * 100.0, 1.0e7, 23);
    const double expected = (std::exp(rho) - 1.0) * 100.0;
    EXPECT_NEAR(q.duration, expected, expected * tolerance) << "rho " << rho;
  }
}

TEST(FdModel, PairsAreIndependent) {
  net::System sys(3, {}, 5);
  QosParams qp;
  qp.wrong_suspicions = true;
  qp.mistake_recurrence = 500.0;
  QosFailureDetectorModel fd(sys, qp);
  EdgeLog log1(sys);
  EdgeLog log2(sys);
  fd.at(1).add_listener(&log1);
  fd.at(2).add_listener(&log2);
  fd.start();
  sys.scheduler().run_until(100000.0);
  ASSERT_GT(log1.suspects.size(), 50u);
  ASSERT_GT(log2.suspects.size(), 50u);
  // Different modules must not fire at identical instants.
  std::size_t coincide = 0;
  for (const auto& [p, t] : log1.suspects)
    for (const auto& [p2, t2] : log2.suspects)
      if (t == t2) ++coincide;
  EXPECT_LT(coincide, 3u);
}

TEST(FdModel, NoWrongSuspicionsOfCrashedTarget) {
  // Once a crash is detected, the renewal process must go quiet: the
  // suspicion is final, no trust edge may follow.
  net::System sys(2, {}, 3);
  QosParams qp;
  qp.detection_time = 10.0;
  qp.wrong_suspicions = true;
  qp.mistake_recurrence = 50.0;
  qp.mistake_duration = 5.0;
  QosFailureDetectorModel fd(sys, qp);
  EdgeLog log(sys);
  fd.at(1).add_listener(&log);
  fd.start();
  sys.crash_at(0, 1000.0);
  sys.scheduler().run_until(100000.0);
  EXPECT_TRUE(fd.at(1).suspects(0));
  // After detection (t=1010) no trust edge may occur.
  for (const auto& [p, t] : log.trusts) EXPECT_LT(t, 1010.0 + 1e-9);
}

// Crash/recover cycles of the target: the recovery restarts the pair's
// renewal chain while the chain drawn before the crash is often still
// parked (its next start lies past the recovery with probability
// e^(-110/200) here).  That stale chain must die when it fires; if it
// ran on, every cycle would add one chain and the mistake rate would
// grow with the number of recoveries.  TM = 0 makes every wrong
// suspicion a suspect edge with a trust edge at the same instant, which
// tells mistakes apart from the crash's own suspicion.
TEST(FdModel, RecoveryKeepsTheMistakeRate) {
  constexpr double kTmr = 200.0;
  constexpr double kTd = 10.0;
  constexpr double kCycleMs = 1000.0;
  constexpr double kCrashAt = 500.0;  // within each cycle
  constexpr double kDownMs = 100.0;
  constexpr int kCycles = 400;
  net::System sys(2, {}, 17);
  QosParams qp;
  qp.detection_time = kTd;
  qp.wrong_suspicions = true;
  qp.mistake_recurrence = kTmr;
  qp.mistake_duration = 0.0;
  QosFailureDetectorModel fd(sys, qp);
  EdgeLog log(sys);
  fd.at(1).add_listener(&log);
  fd.start();
  for (int k = 0; k < kCycles; ++k) {
    sys.crash_at(0, k * kCycleMs + kCrashAt);
    sys.restart_at(0, k * kCycleMs + kCrashAt + kDownMs);
  }
  sys.scheduler().run_until(kCycles * kCycleMs);
  ASSERT_EQ(log.trusts.size(), log.suspects.size());
  std::size_t mistakes = 0;
  for (std::size_t i = 0; i < log.suspects.size(); ++i)
    if (log.trusts[i].second == log.suspects[i].second) ++mistakes;
  EXPECT_EQ(log.suspects.size() - mistakes, static_cast<std::size_t>(kCycles));
  // Mistakes start at rate 1/TMR while p1 trusts p0: from each recovery's
  // detection to the next crash (the chain dies at its first start while
  // p0 is down or suspected, and starts afresh when the recovery is
  // detected).
  const double trusted = kCycles * (kCycleMs - kDownMs - kTd);
  const double expected = trusted / kTmr;
  EXPECT_NEAR(static_cast<double>(mistakes), expected, expected * 0.10);
}

TEST(FdModel, SuspectedSnapshot) {
  net::System sys(4, {}, 1);
  QosFailureDetectorModel fd(sys, QosParams{.detection_time = 0.0});
  fd.start();
  sys.crash_at(1, 1.0);
  sys.crash_at(3, 2.0);
  sys.scheduler().run_until(10.0);
  EXPECT_EQ(fd.at(0).suspected(), (std::vector<net::ProcessId>{1, 3}));
}

TEST(FdModel, ListenerRemoval) {
  net::System sys(2, {}, 1);
  QosFailureDetectorModel fd(sys, QosParams{.detection_time = 0.0});
  EdgeLog log(sys);
  fd.at(1).add_listener(&log);
  fd.at(1).remove_listener(&log);
  fd.start();
  sys.crash_at(0, 1.0);
  sys.scheduler().run_until(10.0);
  EXPECT_TRUE(log.suspects.empty());
}

TEST(FdModel, EdgeCountsOnlyRisingEdges) {
  net::System sys(2, {}, 1);
  QosFailureDetectorModel fd(sys, QosParams{.detection_time = 0.0});
  fd.start();
  fd.at(1).set_suspected(0, true);
  fd.at(1).set_suspected(0, true);  // no-op
  fd.at(1).set_suspected(0, false);
  fd.at(1).set_suspected(0, true);
  EXPECT_EQ(fd.at(1).suspicion_edges(), 2u);
}

TEST(FdModel, RejectsInvalidParams) {
  net::System sys(2, {}, 1);
  EXPECT_THROW(QosFailureDetectorModel(sys, QosParams{.detection_time = -1.0}),
               std::invalid_argument);
  QosParams bad;
  bad.wrong_suspicions = true;
  bad.mistake_recurrence = 0.0;
  EXPECT_THROW(QosFailureDetectorModel(sys, bad), std::invalid_argument);
}

TEST(FdModel, DeterministicAcrossRuns) {
  auto run_once = [] {
    net::System sys(3, {}, 99);
    QosParams qp;
    qp.wrong_suspicions = true;
    qp.mistake_recurrence = 100.0;
    qp.mistake_duration = 10.0;
    QosFailureDetectorModel fd(sys, qp);
    EdgeLog log(sys);
    fd.at(1).add_listener(&log);
    fd.start();
    sys.scheduler().run_until(10000.0);
    return log.suspects;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

// The lazy pair layout (first variate computed from the fork seed, the
// engine persisted on the second draw) must reproduce, for every ordered
// pair, the stream of one eagerly forked engine per pair: gap, duration,
// gap, duration, ... from fork(q*n + p) of the model's "fd-qos-model"
// stream.
TEST(FdModel, PairStreamsMatchEagerForks) {
  constexpr int kN = 4;
  constexpr double kRunMs = 20000.0;
  net::System sys(kN, {}, 11);
  QosParams qp;
  qp.wrong_suspicions = true;
  qp.mistake_recurrence = 200.0;
  qp.mistake_duration = 0.01;
  QosFailureDetectorModel fd(sys, qp);
  std::vector<std::unique_ptr<EdgeLog>> logs;
  for (int q = 0; q < kN; ++q) {
    logs.push_back(std::make_unique<EdgeLog>(sys));
    fd.at(q).add_listener(logs.back().get());
  }
  fd.start();
  sys.scheduler().run_until(kRunMs);

  const sim::Rng base = sys.rng().fork("fd-qos-model");
  for (int q = 0; q < kN; ++q) {
    for (int p = 0; p < kN; ++p) {
      if (p == q) continue;
      sim::Rng eager = base.fork(static_cast<std::uint64_t>(q * kN + p));
      std::vector<sim::Time> expected;
      sim::Time start = 0.0;
      sim::Time window_end = 0.0;
      for (;;) {
        start += eager.exponential(qp.mistake_recurrence);
        if (start > kRunMs) break;
        // The previous window closed before this mistake starts, so every
        // start is one rising edge.
        ASSERT_LT(window_end, start) << q << "->" << p;
        expected.push_back(start);
        window_end = start + eager.exponential(qp.mistake_duration);
      }
      std::vector<sim::Time> recorded;
      for (const auto& [target, t] : logs[static_cast<std::size_t>(q)]->suspects)
        if (target == p) recorded.push_back(t);
      ASSERT_GT(expected.size(), 50u) << q << "->" << p;
      EXPECT_EQ(recorded, expected) << q << "->" << p;
    }
  }
}

}  // namespace
}  // namespace fdgm::fd
