// Set of values from one dense stream (first, first+1, first+2, ...) that
// arrive in roughly increasing order: message sequence numbers of one
// origin, consensus instance numbers of one context.  Stored as a
// watermark -- every value in [first, watermark) is present -- plus a bit
// window above it.  Whole words leave the window as the watermark passes
// them, so the storage tracks the values out of order (in flight), not
// the run's history: a stream that arrives in order holds no window at
// all, and each such insert only moves the watermark.  A value that never
// arrives pins the watermark below it: the window then grows by one bit
// per later value.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace fdgm::util {

class SeqSet {
 public:
  /// `first` is the stream's first value; values below it are never members.
  /// The watermark starts there: started lower, it would wait forever for
  /// values that never come, and the window would grow with the run.
  explicit SeqSet(std::uint64_t first) : first_(first), floor_(first), base_(first) {}

  /// Adds v; returns false when it was present already.  Throws
  /// std::out_of_range for a value below the stream's first value.
  bool insert(std::uint64_t v) {
    if (v == floor_ && words_.empty()) {
      // In order with nothing above the watermark: no window needed.
      // base_ stays word-aligned at or below the watermark.
      if (++floor_ - base_ == 64) base_ = floor_;
      return true;
    }
    if (v < floor_) {
      if (v < first_) throw std::out_of_range("SeqSet: value below the stream's first value");
      return false;
    }
    const std::uint64_t off = v - base_;
    const std::size_t w = static_cast<std::size_t>(off / 64);
    if (w >= words_.size()) words_.resize(w + 1, 0);
    const std::uint64_t bit = std::uint64_t{1} << (off % 64);
    if ((words_[w] & bit) != 0) return false;
    words_[w] |= bit;
    if (v == floor_) advance();
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t v) const {
    if (v < floor_) return v >= first_;
    const std::uint64_t off = v - base_;
    const std::size_t w = static_cast<std::size_t>(off / 64);
    return w < words_.size() && ((words_[w] >> (off % 64)) & 1) != 0;
  }

  /// Adds every value below `v` (learned out of band, e.g. by a log sync).
  void raise_floor(std::uint64_t v) {
    if (v <= floor_) return;
    floor_ = v;
    advance();
  }

  /// The watermark: every value in [first, watermark) is present.
  [[nodiscard]] std::uint64_t watermark() const { return floor_; }
  /// 64-bit words in the window (tests: state bounds).
  [[nodiscard]] std::size_t window_words() const { return words_.size(); }

 private:
  /// Moves the watermark over the present values at and above it, then
  /// drops the words it passed.
  void advance() {
    for (;;) {
      const std::uint64_t off = floor_ - base_;
      const std::size_t w = static_cast<std::size_t>(off / 64);
      if (w >= words_.size()) break;
      const auto b = static_cast<unsigned>(off % 64);
      const auto ones = static_cast<unsigned>(std::countr_one(words_[w] >> b));
      floor_ += ones;
      if (b + ones < 64) break;
    }
    const std::uint64_t passed = (floor_ - base_) / 64;
    if (passed == 0) return;
    const auto drop = static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(passed, words_.size()));
    words_.erase(words_.begin(), words_.begin() + drop);
    base_ += passed * 64;
  }

  std::uint64_t first_;
  std::uint64_t floor_;  // watermark
  std::uint64_t base_;   // value of bit 0 of words_[0]; first_ + 64k, <= floor_
  std::vector<std::uint64_t> words_;  // empty: no value above the watermark
};

}  // namespace fdgm::util
