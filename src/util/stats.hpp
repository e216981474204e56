// Statistics helpers used by the experiment harness: running mean/variance
// (Welford), sample summaries, and Student-t 95% confidence intervals over
// independent replicas — the estimator the paper plots error bars with.
#pragma once

#include <cstddef>
#include <vector>

namespace fdgm::util {

/// Numerically stable running mean / variance accumulator (Welford).
class RunningStats {
 public:
  void add(double x);

  /// Merge another accumulator into this one (parallel Welford).
  void merge(const RunningStats& other);

  void reset() { *this = RunningStats{}; }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (n-1 denominator); 0 for n < 2.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  /// Standard error of the mean; 0 for n < 2.
  [[nodiscard]] double std_error() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Two-sided Student-t critical value at 95% confidence for `df` degrees of
/// freedom (df >= 1; large df falls back to the normal quantile 1.96).
double t_critical_95(std::size_t df);

/// Mean and 95% confidence half-width of a set of replica means.
struct MeanCi {
  double mean = 0.0;
  double half_width = 0.0;
  std::size_t n = 0;

  [[nodiscard]] double lo() const { return mean - half_width; }
  [[nodiscard]] double hi() const { return mean + half_width; }
  bool operator==(const MeanCi&) const = default;
};

/// Computes a Student-t 95% CI from independent samples (e.g. one mean
/// latency per replica run).  With fewer than 2 samples the half-width is 0.
MeanCi mean_ci_95(const std::vector<double>& samples);

/// p-th percentile (0..100) by linear interpolation; input need not be
/// sorted.  Returns 0 for an empty vector.
double percentile(std::vector<double> values, double p);

}  // namespace fdgm::util
