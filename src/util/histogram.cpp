#include "util/histogram.hpp"

#include <algorithm>
#include <stdexcept>

namespace fdgm::util {

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi) {
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must exceed lo");
  if (bins == 0) throw std::invalid_argument("Histogram: need at least one bin");
  counts_.assign(bins, 0);
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<std::size_t>((x - lo_) / width);
  idx = std::min(idx, counts_.size() - 1);  // guard fp rounding at hi_
  ++counts_[idx];
}

double Histogram::bin_lo(std::size_t i) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i);
}

void Histogram::merge(const Histogram& other) {
  if (lo_ != other.lo_ || hi_ != other.hi_ || counts_.size() != other.counts_.size())
    throw std::invalid_argument("Histogram::merge: binning mismatch");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample in the cumulative walk (0-based).
  const double target = q * static_cast<double>(total_ - 1);
  double cum = static_cast<double>(underflow_);
  if (target < cum) return lo_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto c = static_cast<double>(counts_[i]);
    if (c > 0.0 && target < cum + c) {
      // Interpolate within the bucket: samples are assumed uniform on it.
      const double frac = (target - cum + 0.5) / c;
      return bin_lo(i) + frac * (bin_hi(i) - bin_lo(i));
    }
    cum += c;
  }
  return hi_;  // target falls in the saturated overflow bucket
}

}  // namespace fdgm::util
