// Tests of the statistics utilities: Welford accumulator, merging,
// Student-t confidence intervals, percentiles and the histogram.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace fdgm::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.std_error(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.mean(), 42.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 42.0);
  EXPECT_EQ(s.max(), 42.0);
}

TEST(RunningStats, KnownMeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 denominator: sum sq dev = 32, n-1 = 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeEqualsCombined) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10 + i;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.mean(), 1.0);
}

TEST(RunningStats, NumericalStabilityLargeOffset) {
  RunningStats s;
  const double offset = 1e9;
  for (double x : {1.0, 2.0, 3.0}) s.add(offset + x);
  EXPECT_NEAR(s.mean() - offset, 2.0, 1e-6);
  EXPECT_NEAR(s.variance(), 1.0, 1e-6);
}

TEST(TCritical, KnownValues) {
  EXPECT_NEAR(t_critical_95(1), 12.706, 1e-3);
  EXPECT_NEAR(t_critical_95(4), 2.776, 1e-3);
  EXPECT_NEAR(t_critical_95(9), 2.262, 1e-3);
  EXPECT_NEAR(t_critical_95(30), 2.042, 1e-3);
  EXPECT_NEAR(t_critical_95(1000), 1.96, 1e-3);
}

TEST(MeanCi, SingleSampleHasZeroWidth) {
  const MeanCi ci = mean_ci_95({5.0});
  EXPECT_EQ(ci.mean, 5.0);
  EXPECT_EQ(ci.half_width, 0.0);
}

TEST(MeanCi, KnownInterval) {
  // Five samples, mean 10, sample stddev sqrt(2.5); t(4) = 2.776.
  const MeanCi ci = mean_ci_95({8.0, 9.0, 10.0, 11.0, 12.0});
  EXPECT_DOUBLE_EQ(ci.mean, 10.0);
  const double se = std::sqrt(2.5) / std::sqrt(5.0);
  EXPECT_NEAR(ci.half_width, 2.776 * se, 1e-3);
  EXPECT_LT(ci.lo(), 10.0);
  EXPECT_GT(ci.hi(), 10.0);
}

TEST(Percentile, Basics) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_EQ(percentile(v, 0), 1.0);
  EXPECT_EQ(percentile(v, 50), 3.0);
  EXPECT_EQ(percentile(v, 100), 5.0);
  EXPECT_EQ(percentile(v, 25), 2.0);
  EXPECT_NEAR(percentile(v, 90), 4.6, 1e-9);
}

TEST(Percentile, EmptyAndSingle) {
  EXPECT_EQ(percentile({}, 50), 0.0);
  EXPECT_EQ(percentile({7.0}, 99), 7.0);
}

TEST(Percentile, UnsortedInput) {
  EXPECT_EQ(percentile({5, 1, 3, 2, 4}, 50), 3.0);
}

TEST(Histogram, CountsAndBounds) {
  Histogram h(0.0, 10.0, 10);
  for (double x : {0.5, 1.5, 1.7, 9.9}) h.add(x);
  h.add(-1.0);
  h.add(10.0);  // hi is exclusive
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(1), 2u);
  EXPECT_EQ(h.bin_count(9), 1u);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 100.0, 4);
  EXPECT_EQ(h.bin_lo(0), 0.0);
  EXPECT_EQ(h.bin_hi(0), 25.0);
  EXPECT_EQ(h.bin_lo(3), 75.0);
}

TEST(Histogram, RejectsBadConfig) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, EmptyHistogramIsWellDefined) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, SingleSampleQuantilesAllLandInItsBucket) {
  Histogram h(0.0, 10.0, 10);
  h.add(3.7);
  // With one sample every quantile is that sample's bucket; linear
  // interpolation puts it at the bucket midpoint.
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_GE(h.quantile(q), 3.0);
    EXPECT_LT(h.quantile(q), 4.0);
  }
  // Out-of-range q is clamped, not UB.
  EXPECT_DOUBLE_EQ(h.quantile(-0.5), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(1.5), h.quantile(1.0));
}

TEST(Histogram, OverflowBucketSaturatesAtHi) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(1e9);
  EXPECT_EQ(h.overflow(), 100u);
  EXPECT_EQ(h.count(), 100u);
  // The saturated end carries no position information: every quantile
  // reports the range bound, not the raw value.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  for (int i = 0; i < 100; ++i) h.add(-1e9);
  EXPECT_EQ(h.underflow(), 100u);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 0.0);
}

TEST(Histogram, MergeSumsCountsAndSaturatedEnds) {
  Histogram a(0.0, 10.0, 10);
  Histogram b(0.0, 10.0, 10);
  a.add(1.5);
  a.add(-1.0);
  b.add(1.7);
  b.add(8.2);
  b.add(20.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_EQ(a.bin_count(1), 2u);
  EXPECT_EQ(a.bin_count(8), 1u);
  EXPECT_EQ(a.underflow(), 1u);
  EXPECT_EQ(a.overflow(), 1u);
  // b is untouched.
  EXPECT_EQ(b.count(), 3u);
}

TEST(Histogram, MergeRejectsDisjointOrMismatchedRanges) {
  Histogram a(0.0, 10.0, 10);
  Histogram lo(10.0, 20.0, 10);   // disjoint range
  Histogram bins(0.0, 10.0, 20);  // same range, different binning
  EXPECT_THROW(a.merge(lo), std::invalid_argument);
  EXPECT_THROW(a.merge(bins), std::invalid_argument);
  // A failed merge must not have partially applied.
  EXPECT_EQ(a.count(), 0u);
}

TEST(Histogram, QuantileInterpolatesAcrossBuckets) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) + 0.5);
  // Uniform fill: quantiles track the value range linearly.
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.0);
}

}  // namespace
}  // namespace fdgm::util
