// Discrete-event scheduler.
//
// Deterministic: events at equal timestamps execute in insertion order
// (FIFO), which makes every simulation reproducible given the same seed.
// Every pop returns the globally smallest (time, seq) record.
//
// The pending queue is a hierarchical timing wheel (Varghese-Lauck):
// three levels of 256 slots each bucket the near future at increasing
// granularity (level 0 = one kTickMs tick per slot).  Events beyond the
// top window (~17 simulated minutes ahead) spill into a 4-ary min-heap as
// overflow and are pulled in when the cursor reaches their window.
// Schedule and cancel are O(1); each event is touched at most three times
// on its way to execution.  Buckets are sorted by (time, seq) when
// drained, which restores the exact global FIFO order.  The tick only
// sets how much work the cursor does per empty stretch, never the order.
//
// Two kinds of record share that one queue and one (t, seq) order:
//  * closure records (schedule_at/schedule_after) run a callable kept in
//    a callback slot; they return an EventId and can be cancelled;
//  * handler records (schedule_handler_at) name a handler registered once
//    (add_handler: function pointer plus context) and carry a 32-bit
//    argument inside the 24-byte queue record, with no callback slot.
//    They cannot be cancelled: a caller whose record may go stale checks
//    that when it fires (firing_seq()).  The simulator's fixed pipeline
//    stages and timer chains, which no one cancels, use them.
// Both kinds take the next seq, move latest_at() and count in pending()
// and executed() alike.
//
// The event core is allocation-free in steady state:
//  * queue records are POD; wheel buckets are intrusive lists over a
//    pooled node slab, and the drain buffer and the overflow heap are
//    reusable vectors; the handler table is a fixed array;
//  * callbacks live in a slab of fixed slots with inline small-buffer
//    storage and a freelist; callables that fit the inline buffer (every
//    hot-path closure in the simulator) never touch the heap, oversized
//    ones fall back to a single allocation;
//  * EventIds are generation-counted slot handles, so cancel() is O(1)
//    with no hash set: it destroys the callback, bumps the slot
//    generation, and the stale record is skipped when its bucket drains.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace fdgm::sim {

/// Handle for a scheduled event; usable to cancel it before it fires.
/// Encodes (slot generation << 32 | slot index); 0 is never returned.
using EventId = std::uint64_t;

class Scheduler {
 public:
  /// Convenience alias for callers that need to store a callback; any
  /// move-constructible callable works with schedule_at/schedule_after.
  using Callback = std::function<void()>;

  /// Callables at most this large (and no more aligned than
  /// max_align_t) are stored inline in the slab — no heap allocation.
  static constexpr std::size_t kInlineCallbackBytes = 48;

  /// Width of one level-0 wheel bucket in simulated ms: hot protocol
  /// timers (O(1 ms) apart) share buckets of a handful of events while
  /// the 3x8-bit hierarchy still spans ~17 simulated minutes.
  static constexpr double kTickMs = 1.0 / 16.0;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler();

  /// Current simulated time.  Starts at kTimeZero.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `f` at absolute time `t`.  `t` must be >= now().
  template <typename F>
  EventId schedule_at(Time t, F&& f) {
    if (t < now_) throw std::invalid_argument("Scheduler::schedule_at: time in the past");
    const std::uint32_t slot = emplace_callback(std::forward<F>(f));
    const std::uint32_t gen = slots_[slot].gen;
    enqueue(Rec{t, next_seq_++, slot, gen});
    latest_at_ = t;
    ++live_;
    return make_id(gen, slot);
  }

  /// Schedule `f` `delay` time units from now.  `delay` must be >= 0.
  template <typename F>
  EventId schedule_after(Time delay, F&& f) {
    if (delay < 0) throw std::invalid_argument("Scheduler::schedule_after: negative delay");
    return schedule_at(now_ + delay, std::forward<F>(f));
  }

  /// A handler of handler records: fn(ctx, arg).
  using HandlerFn = void (*)(void* ctx, std::uint32_t arg);
  /// Names a registered handler.
  using HandlerId = std::uint32_t;
  /// Size of the fixed handler table.
  static constexpr std::size_t kMaxHandlers = 16;

  /// Register `fn` with `ctx` once; every handler record naming the
  /// returned id calls fn(ctx, arg).  Throws std::length_error when all
  /// kMaxHandlers entries are taken.
  HandlerId add_handler(HandlerFn fn, void* ctx);

  /// add_handler for a member function `void (C::*)(std::uint32_t)` of
  /// `obj`, dispatched statically.
  template <auto Method, typename C>
  HandlerId add_handler(C* obj) {
    return add_handler([](void* c, std::uint32_t arg) { (static_cast<C*>(c)->*Method)(arg); },
                       obj);
  }

  /// Schedule handler `h` with `arg` at absolute time `t` (>= now()): a
  /// handler record, ordered like a closure record scheduled here, that
  /// cannot be cancelled.  Returns its seq (see firing_seq()).
  std::uint64_t schedule_handler_at(Time t, HandlerId h, std::uint32_t arg) {
    if (t < now_) throw std::invalid_argument("Scheduler::schedule_handler_at: time in the past");
    if (h >= handler_count_) throw std::out_of_range("Scheduler::schedule_handler_at: bad handler");
    const std::uint64_t seq = next_seq_++;
    enqueue(Rec{t, seq, kHandlerBit | h, arg});
    latest_at_ = t;
    ++live_;
    return seq;
  }

  /// The seq of the handler record now firing (inside its handler): what
  /// schedule_handler_at returned for it.
  [[nodiscard]] std::uint64_t firing_seq() const { return firing_seq_; }

  /// Cancel a pending closure record.  Returns true if it was still
  /// pending.  O(1): the callback is destroyed now, the queued record
  /// lazily dropped.
  bool cancel(EventId id);

  /// Execute the next pending event, advancing time.  Returns false when
  /// the queue is empty or the scheduler was stopped.
  bool step();

  /// Run until the event queue drains, `stop()` is called, or
  /// `max_events` records have fired (guard against runaway protocols).
  /// Counts and returns records, not jobs: a record that fires several
  /// jobs (see count_job) counts once here.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  /// Run events with timestamp <= `t`; afterwards now() == t unless the
  /// scheduler was stopped earlier.  Returns the number of records
  /// fired.
  std::uint64_t run_until(Time t);

  /// Stop a run()/run_until() in progress (from inside a callback).  It
  /// takes effect between records: a record that fires several jobs
  /// (see count_job) finishes them all.
  void stop() { stopped_ = true; }

  [[nodiscard]] bool stopped() const { return stopped_; }

  /// Resets the stop flag so that run() can be called again.
  void clear_stop() { stopped_ = false; }

  /// Number of records currently pending (cancelled ones excluded).
  [[nodiscard]] std::size_t pending() const { return live_; }

  /// Simulated jobs executed so far: one per fired record, plus one per
  /// count_job() call, so a record that fires k jobs counts k.
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Called by a running record before each job it fires after its
  /// first (the network fires the receive jobs of one multicast that
  /// complete at the same instant from one record), so executed() counts
  /// simulated jobs, not records.
  void count_job() { ++executed_; }

  /// Records scheduled so far.  Two records scheduled with no other
  /// insertion between them take adjacent places in the FIFO order at
  /// equal times, which is what lets a caller fold them into one.
  [[nodiscard]] std::uint64_t inserted() const { return next_seq_ - 1; }
  /// The instant of the latest record scheduled (kTimeZero before any).
  [[nodiscard]] Time latest_at() const { return latest_at_; }

 private:
  /// POD queue record; `seq` breaks timestamp ties FIFO.  A closure
  /// record names its callback slot and the slot's generation; a handler
  /// record has slot = kHandlerBit | handler id and gen = its argument.
  struct Rec {
    Time t{};
    std::uint64_t seq{};
    std::uint32_t slot{};
    std::uint32_t gen{};
  };

  struct Slot;
  /// Relocates the callable out of the slot, releases the slot (so the
  /// callable may schedule into it again) and invokes.
  using RunFn = void (*)(Scheduler&, std::uint32_t slot);
  /// Destroys the callable in place (cancellation / scheduler teardown).
  using DestroyFn = void (*)(Slot&);

  struct Slot {
    alignas(std::max_align_t) std::byte storage[kInlineCallbackBytes];
    RunFn run = nullptr;  // null = slot free
    DestroyFn destroy = nullptr;
    std::uint32_t gen = 1;
    std::uint32_t next_free = 0;
  };

  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  /// Marks a handler record's `slot`; callback slots stay below it.
  static constexpr std::uint32_t kHandlerBit = std::uint32_t{1} << 31;

  struct Handler {
    HandlerFn fn = nullptr;
    void* ctx = nullptr;
  };

  // ------------------------------------------------------------- wheel
  static constexpr unsigned kWheelBits = 8;
  static constexpr std::size_t kWheelSlots = std::size_t{1} << kWheelBits;
  static constexpr unsigned kWheelLevels = 3;
  static constexpr std::uint64_t kWheelSlotMask = kWheelSlots - 1;
  static constexpr std::uint32_t kNilNode = UINT32_MAX;

  /// Bucket membership is an intrusive singly-linked list over a pooled
  /// node slab (nodes_/node_free_): pushing, cascading and draining never
  /// allocate, no matter which buckets the cursor visits — per-bucket
  /// vectors would re-allocate on every fresh level-1/2 lap.
  struct WheelNode {
    Rec rec{};
    std::uint32_t next{};
  };

  struct WheelLevel {
    std::array<std::uint32_t, kWheelSlots> head;
    /// Occupancy bitmap: bit s set <=> head[s] != kNilNode.
    std::array<std::uint64_t, kWheelSlots / 64> occupied{};
    WheelLevel() { head.fill(kNilNode); }
  };

  static EventId make_id(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  template <typename F>
  struct InlineOps {
    static void run(Scheduler& s, std::uint32_t idx) {
      Slot& sl = s.slots_[idx];
      F f(std::move(*std::launder(reinterpret_cast<F*>(sl.storage))));
      destroy(sl);
      s.release_slot(idx);  // nested schedule_* calls may reuse it
      f();
    }
    static void destroy(Slot& sl) { std::launder(reinterpret_cast<F*>(sl.storage))->~F(); }
  };

  template <typename F>
  struct HeapOps {
    static void run(Scheduler& s, std::uint32_t idx) {
      F* p = *std::launder(reinterpret_cast<F**>(s.slots_[idx].storage));
      s.release_slot(idx);
      (*p)();
      delete p;
    }
    static void destroy(Slot& sl) { delete *std::launder(reinterpret_cast<F**>(sl.storage)); }
  };

  template <typename F>
  std::uint32_t emplace_callback(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_v<Fn&>, "Scheduler callback must be invocable");
    const std::uint32_t idx = acquire_slot();
    Slot& sl = slots_[idx];
    if constexpr (sizeof(Fn) <= kInlineCallbackBytes && alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(sl.storage)) Fn(std::forward<F>(f));
      sl.run = &InlineOps<Fn>::run;
      sl.destroy = &InlineOps<Fn>::destroy;
    } else {
      *reinterpret_cast<Fn**>(sl.storage) = new Fn(std::forward<F>(f));
      sl.run = &HeapOps<Fn>::run;
      sl.destroy = &HeapOps<Fn>::destroy;
    }
    return idx;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);

  [[nodiscard]] bool rec_live(const Rec& rec) const {
    if ((rec.slot & kHandlerBit) != 0) return true;
    const Slot& sl = slots_[rec.slot];
    return sl.run != nullptr && sl.gen == rec.gen;
  }

  /// Queue order: earliest (t, seq) first.
  static bool before(const Rec& a, const Rec& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }

  // Far-future overflow: a 4-ary min-heap over overflow_.
  void overflow_push(const Rec& rec);
  void overflow_pop();

  [[nodiscard]] static std::uint64_t tick_of(Time t);
  void enqueue(const Rec& rec);
  /// Decides level/slot for `tick` relative to cur_tick_; returns false
  /// when the tick lies beyond the top window (overflow heap).
  [[nodiscard]] bool wheel_target(std::uint64_t tick, unsigned& level, std::size_t& slot) const;
  /// Places `rec` into the correct level relative to cur_tick_, or into
  /// the overflow heap.  Pre: its tick > cur_tick_.
  void wheel_place(const Rec& rec, std::uint64_t tick);
  std::uint32_t node_acquire(const Rec& rec);
  void node_release(std::uint32_t idx);
  void wheel_link(unsigned level, std::size_t slot, std::uint32_t node);
  /// Refills ready_ with the next non-empty bucket; false when the wheel
  /// and the overflow heap are both empty.
  bool wheel_refill();
  void wheel_cascade(unsigned level, std::size_t slot);
  void wheel_pull_overflow();
  /// First occupied slot >= from at `level`, or kWheelSlots when none.
  [[nodiscard]] static std::size_t wheel_scan(const WheelLevel& lvl, std::size_t from);
  static void wheel_mark(WheelLevel& lvl, std::size_t slot) {
    lvl.occupied[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  }
  static void wheel_unmark(WheelLevel& lvl, std::size_t slot) {
    lvl.occupied[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  }

  /// Exposes the next live event without consuming it (++ready_pos_
  /// consumes it); false when none remain.  Advances the cursor
  /// (cascading levels and pulling overflow) as a side effect, which is
  /// harmless: the cursor only moves over empty or drained buckets.
  bool peek_next(Rec& out);
  /// Consumes and executes the record last returned by peek_next.
  void fire(const Rec& rec);

  /// Callback slab and its freelist.
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  /// Registered handlers, handlers_[0, handler_count_).
  std::array<Handler, kMaxHandlers> handlers_{};
  std::uint32_t handler_count_ = 0;
  /// Seq of the handler record now firing (see firing_seq()).
  std::uint64_t firing_seq_ = 0;

  std::array<WheelLevel, kWheelLevels> levels_;
  std::vector<WheelNode> nodes_;
  std::uint32_t node_free_ = kNilNode;
  /// Events beyond the wheel's top window, as a 4-ary min-heap.
  std::vector<Rec> overflow_;
  /// Cursor: every live wheel/overflow event has tick >= cur_tick_; the
  /// bucket at cur_tick_ itself lives in ready_ while draining.
  std::uint64_t cur_tick_ = 0;
  /// Records of the bucket being drained, sorted ascending by (t, seq)
  /// and consumed front-to-back.  Events scheduled mid-drain whose tick
  /// is <= cur_tick_ are sorted into the un-consumed tail.
  std::vector<Rec> ready_;
  std::size_t ready_pos_ = 0;
  bool ready_active_ = false;
  /// Records parked in the wheel levels (stale ones included); excludes
  /// ready_ and the overflow heap.
  std::size_t wheel_count_ = 0;

  std::uint64_t next_seq_ = 1;
  Time latest_at_ = kTimeZero;
  std::size_t live_ = 0;
  Time now_ = kTimeZero;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
};

}  // namespace fdgm::sim
