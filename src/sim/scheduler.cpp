#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace fdgm::sim {

Scheduler::~Scheduler() {
  // Destroy callables of events never executed nor cancelled.
  for (Slot& sl : slots_)
    if (sl.run != nullptr) sl.destroy(sl);
}

std::uint32_t Scheduler::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t idx = free_head_;
    free_head_ = slots_[idx].next_free;
    return idx;
  }
  if (slots_.size() >= kHandlerBit) throw std::length_error("Scheduler: slot slab overflow");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t idx) {
  Slot& sl = slots_[idx];
  sl.run = nullptr;
  sl.destroy = nullptr;
  ++sl.gen;  // stale queue records / EventIds stop matching
  sl.next_free = free_head_;
  free_head_ = idx;
}

Scheduler::HandlerId Scheduler::add_handler(HandlerFn fn, void* ctx) {
  if (fn == nullptr) throw std::invalid_argument("Scheduler::add_handler: null handler");
  if (handler_count_ == kMaxHandlers) throw std::length_error("Scheduler: handler table full");
  handlers_[handler_count_] = Handler{fn, ctx};
  return handler_count_++;
}

bool Scheduler::cancel(EventId id) {
  const auto idx = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (idx >= slots_.size()) return false;
  Slot& sl = slots_[idx];
  if (sl.run == nullptr || sl.gen != gen) return false;
  sl.destroy(sl);
  release_slot(idx);
  --live_;
  return true;
}

// ----------------------------------------------------------------- overflow

void Scheduler::overflow_push(const Rec& rec) {
  overflow_.push_back(rec);
  std::size_t i = overflow_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(rec, overflow_[parent])) break;
    overflow_[i] = overflow_[parent];
    i = parent;
  }
  overflow_[i] = rec;
}

void Scheduler::overflow_pop() {
  const Rec rec = overflow_.back();
  overflow_.pop_back();
  const std::size_t n = overflow_.size();
  if (n == 0) return;
  std::size_t i = 0;
  while (true) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < last; ++c)
      if (before(overflow_[c], overflow_[best])) best = c;
    if (!before(overflow_[best], rec)) break;
    overflow_[i] = overflow_[best];
    i = best;
  }
  overflow_[i] = rec;
}

// -------------------------------------------------------------------- wheel

std::uint64_t Scheduler::tick_of(Time t) {
  const double ticks = t * (1.0 / kTickMs);
  // Guard the double -> u64 cast: UB at/above 2^64 (and for +inf, should a
  // caller ever schedule at kTimeInfinity).  Monotone: x * c and the cast
  // are monotone, the clamp keeps the tail constant.
  constexpr double kMaxTicks = 9.0e18;
  if (!(ticks < kMaxTicks)) return static_cast<std::uint64_t>(kMaxTicks);
  return static_cast<std::uint64_t>(ticks);
}

bool Scheduler::wheel_target(std::uint64_t tick, unsigned& level, std::size_t& slot) const {
  // tick ^ cur_tick_ has all bits above level L's span clear exactly when
  // tick lies in the same level-L window as the cursor.
  const std::uint64_t x = tick ^ cur_tick_;
  if ((x >> kWheelBits) == 0) {
    level = 0;
    slot = tick & kWheelSlotMask;
  } else if ((x >> (2 * kWheelBits)) == 0) {
    level = 1;
    slot = (tick >> kWheelBits) & kWheelSlotMask;
  } else if ((x >> (3 * kWheelBits)) == 0) {
    level = 2;
    slot = (tick >> (2 * kWheelBits)) & kWheelSlotMask;
  } else {
    return false;  // beyond the top window: far-future overflow
  }
  return true;
}

std::uint32_t Scheduler::node_acquire(const Rec& rec) {
  std::uint32_t idx;
  if (node_free_ != kNilNode) {
    idx = node_free_;
    node_free_ = nodes_[idx].next;
  } else {
    idx = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[idx].rec = rec;
  return idx;
}

void Scheduler::node_release(std::uint32_t idx) {
  nodes_[idx].next = node_free_;
  node_free_ = idx;
}

void Scheduler::wheel_link(unsigned level, std::size_t slot, std::uint32_t node) {
  WheelLevel& lvl = levels_[level];
  nodes_[node].next = lvl.head[slot];
  lvl.head[slot] = node;
  wheel_mark(lvl, slot);
  ++wheel_count_;
}

void Scheduler::wheel_place(const Rec& rec, std::uint64_t tick) {
  unsigned level;
  std::size_t slot;
  if (!wheel_target(tick, level, slot)) {
    overflow_push(rec);
    return;
  }
  wheel_link(level, slot, node_acquire(rec));
}

void Scheduler::enqueue(const Rec& rec) {
  const std::uint64_t tick = tick_of(rec.t);
  if (tick <= cur_tick_) {
    // The event lands in (or before) the bucket at the cursor.  The
    // cursor can rest ahead of tick_of(now()) — it advances over
    // cancelled records without executing anything — so ticks at or
    // below it go through ready_, never through a passed wheel slot.
    if (!ready_active_) {
      // Re-open ready_ for this event.  Safe unconditionally: outside a
      // refill, every record parked in the wheel levels or the overflow
      // has a tick strictly greater than the cursor (placement and
      // cascade only ever file ahead of it), hence a strictly later t,
      // so ready_ draining first preserves the global order.
      ready_.clear();
      ready_pos_ = 0;
      ready_active_ = true;
    }
    // Its (t, seq) exceeds everything already consumed (t >= now_,
    // fresh seq), so sorting it into the un-consumed tail preserves the
    // global FIFO order.
    const auto it = std::upper_bound(
        ready_.begin() + static_cast<std::ptrdiff_t>(ready_pos_), ready_.end(), rec, before);
    ready_.insert(it, rec);
    return;
  }
  wheel_place(rec, tick);
}

std::size_t Scheduler::wheel_scan(const WheelLevel& lvl, std::size_t from) {
  if (from >= kWheelSlots) return kWheelSlots;
  std::size_t word = from >> 6;
  std::uint64_t bits = lvl.occupied[word] & (~std::uint64_t{0} << (from & 63));
  while (true) {
    if (bits != 0) return (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
    if (++word >= lvl.occupied.size()) return kWheelSlots;
    bits = lvl.occupied[word];
  }
}

void Scheduler::wheel_cascade(unsigned level, std::size_t slot) {
  WheelLevel& lvl = levels_[level];
  std::uint32_t node = lvl.head[slot];
  lvl.head[slot] = kNilNode;
  wheel_unmark(lvl, slot);
  // Relink every node into its lower-level bucket (the cursor entered
  // this slot's window, so the target is always a strictly lower level —
  // never this list).  Nodes move, nothing is copied or allocated.
  while (node != kNilNode) {
    const std::uint32_t next = nodes_[node].next;
    --wheel_count_;
    unsigned lv = 0;
    std::size_t sl = 0;
    [[maybe_unused]] const bool in_wheel = wheel_target(tick_of(nodes_[node].rec.t), lv, sl);
    assert(in_wheel && lv < level);
    wheel_link(lv, sl, node);
    node = next;
  }
}

void Scheduler::wheel_pull_overflow() {
  const std::uint64_t window = cur_tick_ >> (kWheelLevels * kWheelBits);
  while (!overflow_.empty() &&
         (tick_of(overflow_.front().t) >> (kWheelLevels * kWheelBits)) == window) {
    const Rec rec = overflow_.front();
    overflow_pop();
    wheel_place(rec, tick_of(rec.t));
  }
}

bool Scheduler::wheel_refill() {
  ready_.clear();
  ready_pos_ = 0;
  ready_active_ = false;
  for (;;) {
    if (wheel_count_ == 0) {
      if (overflow_.empty()) return false;
      // The wheel ran dry: jump the cursor to the overflow's earliest
      // tick (the root has the minimal (t, seq), and tick_of is
      // monotone) and pull that whole top-level window in.
      cur_tick_ = tick_of(overflow_.front().t);
      wheel_pull_overflow();
      continue;
    }
    // Level 0: the next occupied slot in the cursor's 256-tick window is
    // the next bucket to drain (one tick per slot).
    WheelLevel& l0 = levels_[0];
    if (const std::size_t s = wheel_scan(l0, cur_tick_ & kWheelSlotMask); s < kWheelSlots) {
      cur_tick_ = (cur_tick_ & ~kWheelSlotMask) | s;
      std::uint32_t node = l0.head[s];
      l0.head[s] = kNilNode;
      wheel_unmark(l0, s);
      while (node != kNilNode) {
        const WheelNode& nd = nodes_[node];
        ready_.push_back(nd.rec);
        const std::uint32_t next = nd.next;
        node_release(node);
        node = next;
        --wheel_count_;
      }
      std::sort(ready_.begin(), ready_.end(), before);
      ready_active_ = true;
      return true;
    }
    // Level-0 window exhausted: cascade the next occupied level-1 slot
    // (the cursor's own level-1 slot is empty by construction — its
    // events were placed at level 0).
    const std::size_t l1 = (cur_tick_ >> kWheelBits) & kWheelSlotMask;
    if (const std::size_t s = wheel_scan(levels_[1], l1 + 1); s < kWheelSlots) {
      constexpr std::uint64_t kSpan1 = (std::uint64_t{1} << (2 * kWheelBits)) - 1;
      cur_tick_ = (cur_tick_ & ~kSpan1) | (static_cast<std::uint64_t>(s) << kWheelBits);
      wheel_cascade(1, s);
      continue;
    }
    const std::size_t l2 = (cur_tick_ >> (2 * kWheelBits)) & kWheelSlotMask;
    if (const std::size_t s = wheel_scan(levels_[2], l2 + 1); s < kWheelSlots) {
      constexpr std::uint64_t kSpan2 = (std::uint64_t{1} << (3 * kWheelBits)) - 1;
      cur_tick_ = (cur_tick_ & ~kSpan2) | (static_cast<std::uint64_t>(s) << (2 * kWheelBits));
      wheel_cascade(2, s);
      continue;
    }
    assert(false && "wheel_count_ > 0 but no occupied slot ahead of the cursor");
    return false;
  }
}

// ------------------------------------------------------------------ driving

bool Scheduler::peek_next(Rec& out) {
  for (;;) {
    while (ready_pos_ < ready_.size()) {
      const Rec& rec = ready_[ready_pos_];
      if (rec_live(rec)) {
        out = rec;
        return true;
      }
      ++ready_pos_;  // stale: cancelled or reused
    }
    if (!wheel_refill()) return false;
  }
}

void Scheduler::fire(const Rec& rec) {
  ++ready_pos_;
  assert(rec.t >= now_);
  now_ = rec.t;
  ++executed_;
  --live_;
  if ((rec.slot & kHandlerBit) != 0) {
    firing_seq_ = rec.seq;
    const Handler& h = handlers_[rec.slot & ~kHandlerBit];
    h.fn(h.ctx, rec.gen);
    return;
  }
  slots_[rec.slot].run(*this, rec.slot);
}

bool Scheduler::step() {
  if (stopped_) return false;
  Rec rec;
  if (!peek_next(rec)) return false;
  fire(rec);
  return true;
}

std::uint64_t Scheduler::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

std::uint64_t Scheduler::run_until(Time t) {
  std::uint64_t n = 0;
  Rec rec;
  while (!stopped_) {
    // Not-due events are left in place (peek does not consume), so FIFO
    // order is preserved across run_until boundaries.
    if (!peek_next(rec) || rec.t > t) break;
    fire(rec);
    ++n;
  }
  if (!stopped_ && now_ < t) now_ = t;
  return n;
}

}  // namespace fdgm::sim
