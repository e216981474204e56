// Tests of the deterministic RNG streams: reproducibility, independence of
// forks, and distribution properties of the variates the simulation uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/rng.hpp"
#include "util/stats.hpp"

namespace fdgm::sim {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(7);
  Rng b(7);
  Rng fa = a.fork(42);
  Rng fb = b.fork(42);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(fa.next_u64(), fb.next_u64());
}

TEST(Rng, ForksWithDifferentTagsAreIndependent) {
  Rng base(7);
  Rng f1 = base.fork(1);
  Rng f2 = base.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (f1.next_u64() == f2.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkByLabelMatchesRepeatedCall) {
  Rng base(9);
  Rng f1 = base.fork("workload");
  Rng f2 = base.fork("workload");
  EXPECT_EQ(f1.next_u64(), f2.next_u64());
}

TEST(Rng, ForkDoesNotPerturbParent) {
  Rng a(5);
  Rng b(5);
  (void)a.fork(99);  // forking must not consume parent state
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRange) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(5.0, 10.0);
    EXPECT_GE(x, 5.0);
    EXPECT_LT(x, 10.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(4);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = r.uniform_int(0, 9);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 9);
    saw_lo |= (x == 0);
    saw_hi |= (x == 9);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng r(11);
  util::RunningStats s;
  const double mean = 25.0;
  for (int i = 0; i < 50000; ++i) s.add(r.exponential(mean));
  EXPECT_NEAR(s.mean(), mean, mean * 0.05);
  // Exponential: stddev == mean.
  EXPECT_NEAR(s.stddev(), mean, mean * 0.1);
}

TEST(Rng, ExponentialZeroMeanIsZero) {
  Rng r(1);
  EXPECT_EQ(r.exponential(0.0), 0.0);
  EXPECT_EQ(r.exponential(-1.0), 0.0);
}

TEST(Rng, ExponentialIsMemoryless) {
  // P(X > a+b | X > a) == P(X > b): compare tail fractions.
  Rng r(13);
  const double mean = 10.0;
  int over_a = 0;
  int over_ab = 0;
  int over_b = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = r.exponential(mean);
    if (x > 5.0) ++over_a;
    if (x > 12.0) ++over_ab;
    if (x > 7.0) ++over_b;
  }
  const double cond = static_cast<double>(over_ab) / over_a;
  const double uncond = static_cast<double>(over_b) / n;
  EXPECT_NEAR(cond, uncond, 0.02);
}

TEST(Rng, FirstWordMatchesMt19937_64) {
  constexpr std::array<std::uint64_t, 4> kEdgeSeeds = {0, 1, 5489, ~std::uint64_t{0}};
  for (const std::uint64_t s : kEdgeSeeds)
    EXPECT_EQ(Rng::first_output(s), std::mt19937_64(s)()) << "seed " << s;
  // The four-lane form the batched draws use, one edge seed per lane.
  const std::array<std::uint64_t, 4> words = Rng::first_outputs(kEdgeSeeds);
  for (std::size_t j = 0; j < kEdgeSeeds.size(); ++j)
    EXPECT_EQ(words[j], std::mt19937_64(kEdgeSeeds[j])()) << "lane " << j;
  // Splitmix64 outputs, the kind of seed fork() hands its engine.
  std::uint64_t state = 0;
  for (int i = 0; i < 10000; ++i) {
    std::uint64_t s = (state += 0x9e3779b97f4a7c15ULL);
    s = (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9ULL;
    s = (s ^ (s >> 27)) * 0x94d049bb133111ebULL;
    s ^= s >> 31;
    ASSERT_EQ(Rng::first_output(s), std::mt19937_64(s)()) << "seed " << s;
  }
}

TEST(Rng, ForkFirstExponentialMatchesFork) {
  const Rng base = Rng(77).fork("fd-qos-model");
  for (const double mean : {1e-3, 50.0, 81280000.0}) {
    for (std::uint64_t tag = 0; tag < 10000; ++tag) {
      const double expected = base.fork(tag).exponential(mean);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(base.fork_first_exponential(tag, mean)),
                std::bit_cast<std::uint64_t>(expected))
          << "tag " << tag << " mean " << mean;
    }
  }
  EXPECT_EQ(base.fork_first_exponential(3, 0.0), 0.0);
  EXPECT_EQ(base.fork_first_exponential(3, -1.0), 0.0);
}

// Both block kernels against the engine itself: the edge seeds, then
// 10^5 random seeds in blocks whose sizes are not multiples of any lane
// or group count (a block kernel pads or steps its tail).
void expect_kernel_matches_engine(Rng::FirstOutputsKernel kernel) {
  constexpr std::array<std::uint64_t, 4> kEdgeSeeds = {0, 1, 5489, ~std::uint64_t{0}};
  std::array<std::uint64_t, 4> edge_out{};
  kernel(kEdgeSeeds.data(), kEdgeSeeds.size(), edge_out.data());
  for (std::size_t j = 0; j < kEdgeSeeds.size(); ++j)
    EXPECT_EQ(edge_out[j], std::mt19937_64(kEdgeSeeds[j])()) << "seed " << kEdgeSeeds[j];
  std::mt19937_64 gen(20261019);
  constexpr std::size_t kSeeds = 100'000;
  std::vector<std::uint64_t> seeds(kSeeds);
  for (std::uint64_t& s : seeds) s = gen();
  std::vector<std::uint64_t> out(kSeeds, 0);
  std::size_t at = 0;
  for (std::size_t block = 1; at < kSeeds; block = block % 203 + 2) {
    const std::size_t k = std::min(block, kSeeds - at);
    kernel(seeds.data() + at, k, out.data() + at);
    at += k;
  }
  for (std::size_t i = 0; i < kSeeds; ++i)
    ASSERT_EQ(out[i], std::mt19937_64(seeds[i])()) << "seed " << seeds[i];
}

TEST(Rng, ScalarFirstOutputsKernelMatchesMt19937_64) {
  expect_kernel_matches_engine(&Rng::first_outputs_scalar);
}

TEST(Rng, VectorFirstOutputsKernelMatchesMt19937_64) {
  const Rng::FirstOutputsKernel kernel = Rng::first_outputs_vector();
  if (kernel == nullptr) GTEST_SKIP() << "no AVX-512 F and DQ on this CPU";
  expect_kernel_matches_engine(kernel);
}

TEST(Rng, BatchedForkFirstExponentialsMatchFork) {
  // Full blocks (Rng::kFirstOutputsBlock) and tails, through the block
  // entry point the QoS model's start() uses, at tags that are neither
  // contiguous nor ordered.
  constexpr std::size_t kBlock = Rng::kFirstOutputsBlock;
  const Rng base = Rng(77).fork("fd-qos-model");
  for (const std::size_t count :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4}, std::size_t{5},
        std::size_t{8}, std::size_t{127}, kBlock - 1, kBlock, kBlock + 1, 3 * kBlock + 17}) {
    std::vector<std::uint64_t> tags(count);
    for (std::size_t i = 0; i < count; ++i) tags[i] = (i * 7919 + count) % 16384;
    for (const double mean : {1e-3, 81280000.0}) {
      std::vector<double> out(count, -1.0);
      base.fork_first_exponentials(tags.data(), count, mean, out.data());
      for (std::size_t i = 0; i < count; ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                  std::bit_cast<std::uint64_t>(base.fork(tags[i]).exponential(mean)))
            << "count " << count << " index " << i << " mean " << mean;
    }
  }
  std::uint64_t tag = 3;
  double out = -1.0;
  base.fork_first_exponentials(&tag, 1, 0.0, &out);
  EXPECT_EQ(out, 0.0);
}

}  // namespace
}  // namespace fdgm::sim
