// Fixed-width histogram used for latency distributions in the examples and
// for sanity-checking the exponential QoS metrics in tests.
#pragma once

#include <cstddef>
#include <string>
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

  /// Fraction of samples in bucket i (0 if empty histogram).
  [[nodiscard]] double bin_fraction(std::size_t i) const;

  /// Merge another histogram's counts into this one.  Requires identical
  /// binning (same lo, hi, bin count); throws std::invalid_argument on a
  /// mismatch — silently re-binning would fabricate data.
  void merge(const Histogram& other);

  /// q-quantile (0..1) estimated by linear interpolation inside the
  /// owning bucket.  Underflow samples count as lo, overflow samples as
  /// hi (the saturated ends carry no position information).  Returns 0
  /// for an empty histogram.
  [[nodiscard]] double quantile(double q) const;

  /// Simple ASCII rendering (one line per non-empty bucket).
  [[nodiscard]] std::string render(std::size_t width = 50) const;

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
