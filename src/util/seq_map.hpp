// Map keyed by one dense stream of integers (per-origin message seqs, GM
// sequence numbers, consensus instance numbers) whose live keys sit close
// together and leave roughly in order: the one window type behind every
// dense-key table of the stacks.  The keys [base, base + window) live in a
// power-of-two ring: a key is found by index, not by hashing or a tree
// walk, and key k sits in slot k mod capacity, so the ring's head is the
// base's slot and trimming from below or filling below the base moves no
// slot.  A window of up to kInline keys lives inside the map's own
// record, so it allocates nothing; a longer one moves to a heap ring grown
// by doubling, and back into the record once it shrinks again.  A window
// that empties keeps only the smallest heap ring, which short runs over
// kInline reuse without allocating, and frees a larger one.
//
// A slot is absent when it equals kAbsent or, for a slot type with an
// empty() member, when it is empty().  Erasing trims the window from
// below, so it spans the live keys, not the run's history; a key that
// stays pins the window below later ones, which then cost one slot each.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace fdgm::util {

template <class K, class V, V kAbsent = V{}>
class SeqMap {
 public:
  /// Slots held inside the record.
  static constexpr std::size_t kInline = 2;

  /// The present slot of `k`, or null.
  [[nodiscard]] V* find(K k) {
    if (!covers(k)) return nullptr;
    V& s = at(k);
    return absent(s) ? nullptr : &s;
  }
  [[nodiscard]] const V* find(K k) const { return const_cast<SeqMap*>(this)->find(k); }
  /// The value of `k`, or kAbsent.
  [[nodiscard]] V get(K k) const {
    const V* s = find(k);
    return s != nullptr ? *s : kAbsent;
  }
  [[nodiscard]] bool contains(K k) const { return find(k) != nullptr; }

  /// The slot of `k`, absent when `k` was not present, growing the window
  /// to cover it.  The caller fills it, or erases `k` again.
  V& slot(K k) {
    if (span_ == 0)
      rewindow(k, 1);
    else if (k < base_)
      rewindow(k, span_ + static_cast<std::size_t>(base_ - k));
    else if (static_cast<std::size_t>(k - base_) >= span_)
      rewindow(base_, static_cast<std::size_t>(k - base_) + 1);
    return at(k);
  }

  /// Inserts k -> v unless `k` is present (std::map::emplace); returns
  /// whether it inserted.  `v` must not be absent.
  bool emplace(K k, V v) {
    V& s = slot(k);
    if (!absent(s)) return false;
    s = v;
    return true;
  }
  /// Sets k -> v (std::map::insert_or_assign).  `v` must not be absent.
  void assign(K k, V v) { slot(k) = v; }

  /// Removes `k` (no-op when absent).
  void erase(K k) {
    if (!covers(k)) return;
    at(k) = kAbsent;
    if (k == base_) settle(base_, span_);
  }

  /// Removes every key below `k`, calling on_erase(key, value) for each,
  /// in key order.
  template <class F>
  void erase_below(K k, F on_erase) {
    K b = base_;
    std::size_t n = span_;
    for (; n > 0 && b < k; ++b, --n) {
      V& s = at(b);
      if (absent(s)) continue;
      on_erase(b, s);
      s = kAbsent;
    }
    settle(b, n);
  }
  void erase_below(K k) { erase_below(k, [](K, const V&) {}); }

  /// Removes every key above `k`, calling on_drop(key, value) for each,
  /// in key order.
  template <class F>
  void drop_above(K k, F on_drop) {
    const std::size_t keep =
        k < base_ ? 0 : std::min<std::size_t>(static_cast<std::size_t>(k - base_) + 1, span_);
    for (std::size_t i = keep; i < span_; ++i) {
      const K key = base_ + static_cast<K>(i);
      V& s = at(key);
      if (absent(s)) continue;
      on_drop(key, s);
      s = kAbsent;
    }
    settle(base_, keep);
  }

  /// Calls f(key, value) for every present key, in key order.
  template <class F>
  void for_each(F f) const {
    for (std::uint32_t i = 0; i < span_; ++i) {
      const K key = base_ + static_cast<K>(i);
      const V& s = at(key);
      if (!absent(s)) f(key, s);
    }
  }

  void clear() { erase_below(base_ + static_cast<K>(span_)); }

  [[nodiscard]] bool empty() const { return span_ == 0; }
  /// Present keys, counted over the window.
  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for_each([&n](K, const V&) { ++n; });
    return n;
  }
  /// Slots of the window, absent ones included (tests: state bounds).
  [[nodiscard]] std::size_t window() const { return span_; }
  /// Slots of the ring in use: kInline while it lives in the record
  /// (tests).
  [[nodiscard]] std::size_t capacity() const { return span_ > kInline ? cap_ : kInline; }

 private:
  static bool absent(const V& v) {
    if constexpr (requires { v.empty(); })
      return v.empty();
    else
      return v == kAbsent;
  }
  [[nodiscard]] bool covers(K k) const {
    return k >= base_ && static_cast<std::size_t>(k - base_) < span_;
  }
  V& at(K k) {
    const auto i = static_cast<std::size_t>(k);
    return span_ > kInline ? heap_[i & (cap_ - 1)] : local_[i & (kInline - 1)];
  }
  const V& at(K k) const { return const_cast<SeqMap*>(this)->at(k); }

  /// Shrinks the window to [b, b + n) past its absent lowest slots.
  void settle(K b, std::size_t n) {
    for (; n > 0 && absent(at(b)); ++b) --n;
    rewindow(b, n);
  }

  /// Moves the window to [b, b + n), which contains the old one or lies
  /// inside it, with every present key in it.  A window of more than
  /// kInline keys lives in the heap ring, grown by doubling, and a shorter
  /// one in the record; the ring stays allocated, all absent, while the
  /// window is in the record, until it empties.  Slots move only when the
  /// window crosses kInline or the ring grows, each to its key's place.
  void rewindow(K b, std::size_t n) {
    const bool from_heap = span_ > kInline;
    const bool to_heap = n > kInline;
    std::unique_ptr<V[]> grown;
    std::size_t cap = cap_;
    if (to_heap && n > cap_) {
      cap = std::bit_ceil(n);
      grown = std::make_unique_for_overwrite<V[]>(cap);
      std::fill(grown.get(), grown.get() + cap, kAbsent);
    }
    if (grown != nullptr || from_heap != to_heap) {
      V* src = from_heap ? heap_.get() : local_.data();
      V* dst = grown != nullptr ? grown.get() : to_heap ? heap_.get() : local_.data();
      const std::size_t src_mask = (from_heap ? cap_ : kInline) - 1;
      const std::size_t dst_mask = (to_heap ? cap : kInline) - 1;
      // The keys both windows hold: the smaller one's.
      const K first = n < span_ ? b : base_;
      for (std::size_t i = 0; i < std::min<std::size_t>(n, span_); ++i) {
        const auto key = static_cast<std::size_t>(first + static_cast<K>(i));
        dst[key & dst_mask] = src[key & src_mask];
        src[key & src_mask] = kAbsent;
      }
      if (grown != nullptr) {
        heap_ = std::move(grown);
        cap_ = static_cast<std::uint32_t>(cap);
      }
    }
    base_ = b;
    span_ = static_cast<std::uint32_t>(n);
    if (n == 0 && cap_ > 2 * kInline) {
      heap_.reset();
      cap_ = 0;
    }
  }

  K base_{};                // lowest key of the window, present unless it is empty
  std::uint32_t span_ = 0;  // keys in the window
  std::uint32_t cap_ = 0;   // slots of heap_
  std::unique_ptr<V[]> heap_;
  std::array<V, kInline> local_ = [] {
    std::array<V, kInline> a;
    a.fill(kAbsent);
    return a;
  }();
};

}  // namespace fdgm::util
