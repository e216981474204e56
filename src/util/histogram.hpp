// Fixed-width histogram of end-to-end latencies: the armed observer bins
// every delivery into one, replicas merge them (core::RunStats::e2e), and
// --profile reads its p50/p99.
#pragma once

#include <cstddef>
#include <vector>

namespace fdgm::util {

class Histogram {
 public:
  /// Buckets of width (hi - lo) / bins over [lo, hi); values outside the
  /// range land in saturated end buckets that are tracked separately.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  [[nodiscard]] std::size_t count() const { return total_; }
  [[nodiscard]] std::size_t underflow() const { return underflow_; }
  [[nodiscard]] std::size_t overflow() const { return overflow_; }
  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  [[nodiscard]] double bin_lo(std::size_t i) const;
  [[nodiscard]] double bin_hi(std::size_t i) const { return bin_lo(i + 1); }

  /// Merge another histogram's counts into this one.  Requires identical
  /// binning (same lo, hi, bin count); throws std::invalid_argument on a
  /// mismatch — silently re-binning would fabricate data.
  void merge(const Histogram& other);

  /// q-quantile (0..1) estimated by linear interpolation inside the
  /// owning bucket.  Underflow samples count as lo, overflow samples as
  /// hi (the saturated ends carry no position information).  Returns 0
  /// for an empty histogram.
  [[nodiscard]] double quantile(double q) const;

  /// Same binning and the same counts.
  bool operator==(const Histogram&) const = default;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace fdgm::util
