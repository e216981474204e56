// Map keyed by one dense stream of integers (consensus instance numbers,
// sequence numbers) whose live keys sit close together and leave roughly
// in order.  Stored as a flat window over the keys [base, base + size):
// a key is found by index, not by hashing or a tree walk, and inserting
// one allocates nothing once the window has grown to the keys in play.
// A slot holding `kAbsent` is an absent key.  Erasing trims the window
// from below, and an emptied window restarts at the next key inserted,
// so the storage spans the live keys, not the run's history; a key that
// stays pins the window below later ones, which then cost one slot each.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace fdgm::util {

template <class K, class V, V kAbsent = V{}>
class SeqMap {
 public:
  /// The value of `k`, or kAbsent.
  [[nodiscard]] V get(K k) const {
    if (k < base_ || static_cast<std::size_t>(k - base_) >= slots_.size()) return kAbsent;
    return slots_[static_cast<std::size_t>(k - base_)];
  }
  [[nodiscard]] bool contains(K k) const { return get(k) != kAbsent; }

  /// Inserts k -> v unless `k` is present (std::map::emplace); returns
  /// whether it inserted.  `v` must not be kAbsent.
  bool emplace(K k, V v) {
    V& s = slot(k);
    if (s != kAbsent) return false;
    s = v;
    ++count_;
    return true;
  }

  /// Sets k -> v (std::map::insert_or_assign).  `v` must not be kAbsent.
  void assign(K k, V v) {
    V& s = slot(k);
    if (s == kAbsent) ++count_;
    s = v;
  }

  /// Removes `k` (no-op when absent).
  void erase(K k) {
    if (!contains(k)) return;
    slots_[static_cast<std::size_t>(k - base_)] = kAbsent;
    --count_;
    trim();
  }

  /// Removes every key below `k`, calling on_erase(key, value) for each,
  /// in key order.
  template <class F>
  void erase_below(K k, F on_erase) {
    if (k <= base_) return;
    const auto n = std::min(static_cast<std::size_t>(k - base_), slots_.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (slots_[i] == kAbsent) continue;
      --count_;
      on_erase(static_cast<K>(base_ + static_cast<K>(i)), slots_[i]);
    }
    slots_.erase(slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(n));
    base_ = k;
    trim();
  }
  void erase_below(K k) { erase_below(k, [](K, V) {}); }

  /// Calls f(key, value) for every present key, in key order.
  template <class F>
  void for_each(F f) const {
    for (std::size_t i = 0; i < slots_.size(); ++i)
      if (slots_[i] != kAbsent) f(static_cast<K>(base_ + static_cast<K>(i)), slots_[i]);
  }

  void clear() {
    slots_.clear();
    count_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  /// Slots of the window, absent ones included (tests: state bounds).
  [[nodiscard]] std::size_t window() const { return slots_.size(); }

 private:
  /// The slot of `k`, growing the window to cover it.
  V& slot(K k) {
    if (slots_.empty()) {
      base_ = k;
    } else if (k < base_) {
      slots_.insert(slots_.begin(), static_cast<std::size_t>(base_ - k), kAbsent);
      base_ = k;
    }
    const auto i = static_cast<std::size_t>(k - base_);
    if (i >= slots_.size()) slots_.resize(i + 1, kAbsent);
    return slots_[i];
  }

  /// Drops the absent slots below the lowest present key.
  void trim() {
    if (count_ == 0) {
      slots_.clear();
      return;
    }
    std::size_t first = 0;
    while (slots_[first] == kAbsent) ++first;
    base_ += static_cast<K>(first);
    slots_.erase(slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(first));
  }

  K base_{};  // key of slots_[0]
  std::vector<V> slots_;
  std::size_t count_ = 0;
};

}  // namespace fdgm::util
