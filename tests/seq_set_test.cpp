// Tests of util::SeqSet, the watermark-plus-bit-window set behind the
// delivered-id and decided-instance bookkeeping: unit cases at the word
// boundaries, and a differential run against std::set; and of
// util::SeqMap, the flat-window map behind the consensus instance table
// and the FD/GM dense-key bookkeeping, against std::map.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "abcast/abcast.hpp"
#include "sim/rng.hpp"
#include "util/seq_map.hpp"
#include "util/seq_set.hpp"

namespace fdgm::util {
namespace {

TEST(SeqSet, FirstValueOneStartsTheWatermarkThere) {
  SeqSet s(1);
  EXPECT_EQ(s.watermark(), 1u);
  EXPECT_FALSE(s.contains(0));
  EXPECT_FALSE(s.contains(1));
  EXPECT_TRUE(s.insert(1));
  EXPECT_EQ(s.watermark(), 2u);
  EXPECT_TRUE(s.contains(1));
  EXPECT_FALSE(s.contains(0));
}

TEST(SeqSet, FirstValueZeroStartsTheWatermarkThere) {
  SeqSet s(0);
  EXPECT_FALSE(s.contains(0));
  EXPECT_TRUE(s.insert(0));
  EXPECT_EQ(s.watermark(), 1u);
  EXPECT_TRUE(s.contains(0));
  EXPECT_EQ(s.window_words(), 0u);  // in order: only the watermark moved
}

TEST(SeqSet, InOrderStreamKeepsNoWindow) {
  // The common case (every delivery at every process): each value is the
  // watermark when it arrives, so no bit window is ever needed.
  SeqSet s(1);
  std::set<std::uint64_t> model;
  for (std::uint64_t v = 1; v <= 10000; ++v) {
    ASSERT_TRUE(s.insert(v)) << v;
    model.insert(v);
    ASSERT_EQ(s.window_words(), 0u) << v;
  }
  EXPECT_EQ(s.watermark(), 10001u);
  EXPECT_FALSE(s.insert(10000));
  // A gap, then the values around it out of order: the window opens and
  // closes again, and membership still matches std::set.
  for (const std::uint64_t v : {10003u, 10070u, 10002u, 10001u, 10004u, 10069u}) {
    ASSERT_EQ(s.insert(v), model.insert(v).second) << v;
    for (std::uint64_t p = 9990; p < 10140; ++p)
      ASSERT_EQ(s.contains(p), model.contains(p)) << "after " << v << ", contains " << p;
  }
  EXPECT_EQ(s.watermark(), 10005u);
  EXPECT_GT(s.window_words(), 0u);
  for (std::uint64_t v = 10005; v <= 10200; ++v) ASSERT_EQ(s.insert(v), model.insert(v).second);
  EXPECT_EQ(s.watermark(), 10201u);
  EXPECT_EQ(s.window_words(), 0u);
  for (std::uint64_t p = 9990; p < 10260; ++p) ASSERT_EQ(s.contains(p), model.contains(p)) << p;
}

TEST(SeqSet, ContainsBelowFirstValueIsFalseAndInsertThrows) {
  SeqSet s(5);
  s.raise_floor(10);
  for (std::uint64_t v = 0; v < 5; ++v) EXPECT_FALSE(s.contains(v)) << v;
  for (std::uint64_t v = 5; v < 10; ++v) EXPECT_TRUE(s.contains(v)) << v;
  EXPECT_THROW(s.insert(4), std::out_of_range);
  EXPECT_FALSE(s.insert(7));  // present below the watermark
}

TEST(SeqSet, DuplicateInsertsReturnFalse) {
  SeqSet s(1);
  EXPECT_TRUE(s.insert(3));
  EXPECT_FALSE(s.insert(3));  // in the window
  EXPECT_TRUE(s.insert(1));
  EXPECT_TRUE(s.insert(2));
  EXPECT_EQ(s.watermark(), 4u);
  EXPECT_FALSE(s.insert(2));  // below the watermark
  EXPECT_FALSE(s.insert(3));
}

TEST(SeqSet, WatermarkCrossesWordBoundariesAndDropsPassedWords) {
  // Everything but value 1 for three words, then 1: the watermark jumps
  // over three word boundaries at once and the passed words are dropped.
  SeqSet s(1);
  for (std::uint64_t v = 2; v <= 192; ++v) EXPECT_TRUE(s.insert(v));
  EXPECT_EQ(s.watermark(), 1u);
  EXPECT_EQ(s.window_words(), 3u);  // bits 0..191 cover values 1..192
  EXPECT_TRUE(s.insert(1));
  EXPECT_EQ(s.watermark(), 193u);
  EXPECT_EQ(s.window_words(), 0u);
  // Values exactly at the next word edges, in reverse.
  for (std::uint64_t v = 256; v >= 193; --v) EXPECT_TRUE(s.insert(v));
  EXPECT_EQ(s.watermark(), 257u);
  EXPECT_EQ(s.window_words(), 0u);
  for (std::uint64_t v = 1; v < 257; ++v) ASSERT_TRUE(s.contains(v)) << v;
  EXPECT_FALSE(s.contains(257));
}

TEST(SeqSet, PermanentGapGrowsTheWindowOneBitPerLaterValue) {
  // A value that never arrives (a crashed origin's lost message) pins the
  // watermark; the window then holds one bit per later value.
  SeqSet s(1);
  for (std::uint64_t v = 1; v <= 6400; ++v) {
    if (v == 5) continue;
    EXPECT_TRUE(s.insert(v));
  }
  EXPECT_EQ(s.watermark(), 5u);
  EXPECT_FALSE(s.contains(5));
  EXPECT_EQ(s.window_words(), 100u);
  // Settling the gap out of band drains the whole window.
  s.raise_floor(6);
  EXPECT_EQ(s.watermark(), 6401u);
  EXPECT_EQ(s.window_words(), 0u);
  EXPECT_TRUE(s.contains(5));
}

TEST(SeqSet, RaiseFloorSettlesEverythingBelow) {
  SeqSet s(1);
  EXPECT_TRUE(s.insert(150));
  s.raise_floor(100);
  EXPECT_EQ(s.watermark(), 100u);
  EXPECT_TRUE(s.contains(99));
  EXPECT_FALSE(s.contains(100));
  EXPECT_FALSE(s.insert(50));
  EXPECT_EQ(s.window_words(), 2u);  // the word passed (values 1..64) is dropped
  s.raise_floor(40);  // below the watermark: no-op
  EXPECT_EQ(s.watermark(), 100u);
  for (std::uint64_t v = 100; v < 150; ++v) EXPECT_TRUE(s.insert(v));
  EXPECT_EQ(s.watermark(), 151u);  // ran on over the 150 inserted earlier
}

// Differential run: a stream delivered out of order within a jitter
// window, with duplicates, occasional floor raises and probes anywhere
// (below the first value, in the window, far above), against std::set.
// With `in_order_runs`, blocks of the stream alternate between jittered
// and strictly in order, so long in-order runs (no window) lie between
// gaps.
void differential(std::uint64_t first, std::uint64_t seed, bool in_order_runs = false) {
  sim::Rng rng(seed);
  constexpr std::uint64_t kCount = 20000;
  constexpr std::int64_t kJitter = 150;
  // Arrival order: value i arrives at about position i +- kJitter.
  std::vector<std::uint64_t> order(kCount);
  std::iota(order.begin(), order.end(), first);
  std::vector<double> key(kCount);
  constexpr std::uint64_t kBlock = 1500;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    const bool jittered = !in_order_runs || (i / kBlock) % 2 == 0;
    key[i] = static_cast<double>(i) +
             (jittered ? rng.uniform(0.0, static_cast<double>(kJitter)) : 0.0);
  }
  std::vector<std::size_t> idx(kCount);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) { return key[a] < key[b]; });

  SeqSet s(first);
  std::set<std::uint64_t> model;
  auto model_watermark = [&] {
    std::uint64_t w = first;
    while (model.contains(w)) ++w;
    return w;
  };
  std::size_t max_words = 0;
  for (std::size_t step = 0; step < kCount; ++step) {
    const std::uint64_t v = order[idx[step]];
    ASSERT_EQ(s.insert(v), model.insert(v).second) << "insert " << v;
    if (rng.uniform() < 0.2) {  // a recent value again
      const auto back = static_cast<std::int64_t>(std::min<std::uint64_t>(v - first, 300));
      const std::uint64_t dv = v - static_cast<std::uint64_t>(rng.uniform_int(0, back));
      ASSERT_EQ(s.insert(dv), model.insert(dv).second) << "duplicate " << dv;
    }
    if (rng.uniform() < 0.002) {  // out-of-band settlement just above the watermark
      const std::uint64_t f = s.watermark() + static_cast<std::uint64_t>(rng.uniform_int(0, 80));
      s.raise_floor(f);
      for (std::uint64_t x = first; x < f; ++x) model.insert(x);
    }
    for (int probe = 0; probe < 4; ++probe) {
      const std::int64_t lo = std::max<std::int64_t>(0, static_cast<std::int64_t>(first) - 3);
      const auto p = static_cast<std::uint64_t>(
          rng.uniform_int(lo, static_cast<std::int64_t>(v) + 300));
      ASSERT_EQ(s.contains(p), model.contains(p)) << "contains " << p;
    }
    if (step % 64 == 0) {
      ASSERT_EQ(s.watermark(), model_watermark());
    }
    max_words = std::max(max_words, s.window_words());
  }
  EXPECT_EQ(s.watermark(), model_watermark());
  // No permanent gap: the window stays within the jitter, never the history.
  EXPECT_LE(max_words, static_cast<std::size_t>(kJitter / 64 + 2));
  EXPECT_LE(s.window_words(), 1u);
}

TEST(SeqSet, MatchesStdSetFromFirstValueZero) { differential(0, 11); }
TEST(SeqSet, MatchesStdSetFromFirstValueOne) { differential(1, 12); }
TEST(SeqSet, MatchesStdSetWithLongInOrderRunsBetweenGaps) {
  differential(0, 13, /*in_order_runs=*/true);
  differential(1, 14, /*in_order_runs=*/true);
}

// ------------------------------------------------------------------ SeqMap

TEST(SeqMap, EmplaceKeepsAssignReplacesAndEraseTrimsFromBelow) {
  SeqMap<std::int64_t, int, -1> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.get(5), -1);
  EXPECT_TRUE(m.emplace(5, 50));
  EXPECT_FALSE(m.emplace(5, 51));  // std::map::emplace keeps the first
  EXPECT_EQ(m.get(5), 50);
  m.assign(5, 52);
  EXPECT_EQ(m.get(5), 52);
  EXPECT_TRUE(m.emplace(8, 80));
  EXPECT_TRUE(m.emplace(3, 30));  // below the window: it grows at the front
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.window(), 6u);  // keys 3..8
  m.erase(3);
  EXPECT_EQ(m.window(), 4u);  // trimmed to the lowest key left, 5
  m.erase(8);
  EXPECT_EQ(m.window(), 4u);  // trimming is from below only
  EXPECT_FALSE(m.contains(8));
  m.erase(5);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.window(), 0u);
  EXPECT_TRUE(m.emplace(1000, 1));  // an emptied window restarts at the next key
  EXPECT_EQ(m.window(), 1u);
}

TEST(SeqMap, EraseBelowReportsTheErasedKeysInOrder) {
  SeqMap<std::uint64_t, const int*> m;
  const int a = 1, b = 2, c = 3;
  m.emplace(10, &a);
  m.emplace(12, &b);
  m.emplace(14, &c);
  std::vector<std::uint64_t> erased;
  m.erase_below(13, [&erased](std::uint64_t k, const int*) { erased.push_back(k); });
  EXPECT_EQ(erased, (std::vector<std::uint64_t>{10, 12}));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.window(), 1u);
  EXPECT_EQ(m.get(14), &c);
  m.erase_below(100);
  EXPECT_TRUE(m.empty());
}

// Differential run against std::map: keys inserted roughly in order
// within a jitter window, erased singly, below a rising point or above a
// falling one, with probes anywhere.  Phases alternate a wide jitter,
// where the ring lives on the heap, wraps round its end as the base moves
// up, grows while wrapped and is filled below a wrapped base, with a
// narrow one, where the window shrinks back into the record: the run
// crosses between the record and the heap in both directions.  Each wide
// phase starts from a fresh map, so its ring grows again.  The window
// spans the live keys, not the history, and the ring lives in the record
// exactly while the window fits there.
TEST(SeqMap, MatchesStdMap) {
  using Map = SeqMap<std::int64_t, std::int64_t, -1>;
  using Pairs = std::vector<std::pair<std::int64_t, std::int64_t>>;
  sim::Rng rng(21);
  Map m;
  std::map<std::int64_t, std::int64_t> model;
  std::int64_t next = 1;
  std::size_t max_window = 0;
  std::size_t wrapped_steps = 0, grown_wrapped = 0, filled_below_wrapped = 0, dropped = 0;
  std::size_t to_heap = 0, to_record = 0;
  // The window runs from the lowest key, whose slot is the ring's head.
  const auto wrapped = [&] {
    if (model.empty() || m.capacity() <= Map::kInline) return false;
    const auto head = static_cast<std::size_t>(model.begin()->first) & (m.capacity() - 1);
    return head + m.window() > m.capacity();
  };
  for (int step = 0; step < 40000; ++step) {
    const bool wide = (step / 1000) % 2 == 0;
    if (step % 2000 == 0) {  // a fresh map: its ring grows again
      m = Map{};
      model.clear();
    }
    const std::int64_t jitter = wide ? 40 : 1;
    const std::size_t capacity = m.capacity();
    const bool was_wrapped = wrapped();
    const std::int64_t base = model.empty() ? 0 : model.begin()->first;
    const double r = rng.uniform();
    const std::int64_t k = next + rng.uniform_int(-jitter, jitter);
    if (r < 0.4) {
      const std::int64_t v = rng.uniform_int(0, 1000);
      ASSERT_EQ(m.emplace(k, v), model.emplace(k, v).second) << "emplace " << k;
      if (was_wrapped && k < base) ++filled_below_wrapped;
      ++next;
    } else if (r < 0.5) {
      const std::int64_t v = rng.uniform_int(0, 1000);
      m.assign(k, v);
      model.insert_or_assign(k, v);
      if (was_wrapped && k < base) ++filled_below_wrapped;
    } else if (r < (wide ? 0.85 : 0.7)) {
      m.erase(k);
      model.erase(k);
    } else if (r < 0.95) {
      const std::int64_t below = next - (wide ? rng.uniform_int(20, 60) : rng.uniform_int(0, 2));
      std::vector<std::int64_t> erased;
      m.erase_below(below, [&erased](std::int64_t key, std::int64_t) { erased.push_back(key); });
      std::vector<std::int64_t> expected;
      while (!model.empty() && model.begin()->first < below) {
        expected.push_back(model.begin()->first);
        model.erase(model.begin());
      }
      ASSERT_EQ(erased, expected);
    } else {
      const std::int64_t above = next - rng.uniform_int(0, wide ? 60 : 2);
      Pairs erased;
      m.drop_above(above, [&erased](std::int64_t key, std::int64_t v) {
        erased.emplace_back(key, v);
      });
      const auto from = model.upper_bound(above);
      ASSERT_EQ(erased, Pairs(from, model.end()));
      dropped += erased.size();
      model.erase(from, model.end());
    }
    ASSERT_EQ(m.size(), model.size());
    ASSERT_EQ(m.empty(), model.empty());
    for (int probe = 0; probe < 4; ++probe) {
      const std::int64_t p = next + rng.uniform_int(-120, 60);
      const auto it = model.find(p);
      ASSERT_EQ(m.get(p), it == model.end() ? -1 : it->second) << "get " << p;
    }
    if (step % 256 == 0 || m.window() <= 4) {
      Pairs listed;
      m.for_each([&listed](std::int64_t key, std::int64_t v) { listed.emplace_back(key, v); });
      ASSERT_EQ(listed, Pairs(model.begin(), model.end())) << "step " << step;
    }
    ASSERT_EQ(m.capacity() == Map::kInline, m.window() <= Map::kInline) << "step " << step;
    ASSERT_GE(m.capacity(), m.window());
    if (capacity == Map::kInline && m.capacity() > Map::kInline) ++to_heap;
    if (capacity > Map::kInline && m.capacity() == Map::kInline) ++to_record;
    if (was_wrapped && m.capacity() > capacity) ++grown_wrapped;
    if (wrapped()) ++wrapped_steps;
    max_window = std::max(max_window, m.window());
  }
  EXPECT_LE(max_window, 200u);
  EXPECT_GT(wrapped_steps, 4000u);
  EXPECT_GT(grown_wrapped, 10u);
  EXPECT_GT(filled_below_wrapped, 150u);
  EXPECT_GT(dropped, 3000u);
  EXPECT_GT(to_heap, 1000u);
  EXPECT_GT(to_record, 1000u);
}

}  // namespace
}  // namespace fdgm::util

namespace fdgm::abcast {
namespace {

// ---------------------------------------------------------- InFlightWindows

struct TestSlot {
  int v = 0;
  [[nodiscard]] bool empty() const { return v == 0; }
};

using Model = std::map<MsgId, int>;

void expect_same(InFlightWindows<TestSlot>& w, const Model& model) {
  Model listed;
  MsgId last{-1, 0};
  w.for_each([&](const MsgId& id, const TestSlot& s) {
    EXPECT_LT(last, id) << "for_each out of id order";
    last = id;
    listed.emplace(id, s.v);
  });
  ASSERT_EQ(listed, model);
}

// Random fills, empties (each followed by release, as the stacks do) and
// probes over `origins` origins whose seqs move up like a stream's, with
// fills below a window's base.  The storage is checked exactly: a window
// runs from its lowest occupied seq to the highest seq filled since it
// last emptied.  With one origin, slots() is that window's size, so the
// run counts its crossings of kInline in both directions.
void windows_differential(int origins, std::uint64_t seed) {
  constexpr std::size_t kInline = InFlightWindows<TestSlot>::kInline;
  sim::Rng rng(seed);
  InFlightWindows<TestSlot> w;
  Model model;
  const auto n = static_cast<std::size_t>(origins);
  std::vector<std::uint64_t> next(n, 1);  // each origin's next new seq
  std::vector<std::uint64_t> hi(n, 0);    // highest seq filled since its window emptied
  std::size_t up = 0;
  std::size_t down = 0;
  std::size_t below_base = 0;
  std::size_t refills = 0;
  auto lowest = [&](int o) -> const MsgId* {  // lowest occupied id of origin o
    const auto it = model.lower_bound(MsgId{o, 0});
    return it != model.end() && it->first.origin == o ? &it->first : nullptr;
  };
  for (int step = 0; step < 40000; ++step) {
    const int o = static_cast<int>(rng.uniform_int(0, origins - 1));
    const auto oi = static_cast<std::size_t>(o);
    const std::size_t before = w.slots();
    if (rng.uniform() < 0.5) {
      // Fill: usually the origin's next seq, sometimes one a little below
      // it (under the window's base when the lower ones were released).
      std::uint64_t seq = next[oi];
      const auto below = std::min<std::int64_t>(6, static_cast<std::int64_t>(seq) - 1);
      if (rng.uniform() < 0.2 && below > 0)
        seq -= static_cast<std::uint64_t>(rng.uniform_int(1, below));
      else
        ++next[oi];
      const MsgId id{o, seq};
      const bool held = model.contains(id);
      ASSERT_EQ(w.find(id) != nullptr, held) << "find " << o << ":" << seq;
      if (!held) {
        const MsgId* low = lowest(o);
        if (low == nullptr) {
          ++refills;
          hi[oi] = seq;
        } else if (seq < low->seq) {
          ++below_base;
        }
        hi[oi] = std::max(hi[oi], seq);
        TestSlot& s = w.slot(id);
        ASSERT_TRUE(s.empty()) << "slot " << o << ":" << seq;
        s.v = step + 1;
        model.emplace(id, step + 1);
      }
    } else if (!model.empty()) {
      // Empty a random occupied slot of any origin, then release it.
      auto it = model.begin();
      std::advance(it, rng.uniform_int(0, static_cast<std::int64_t>(model.size()) - 1));
      const MsgId id = it->first;
      TestSlot* s = w.find(id);
      ASSERT_NE(s, nullptr) << "occupied " << id.origin << ":" << id.seq;
      ASSERT_EQ(s->v, it->second);
      *s = TestSlot{};
      w.release(id);
      model.erase(it);
    }
    std::size_t expected = 0;
    for (int q = 0; q < origins; ++q)
      if (const MsgId* low = lowest(q)) expected += hi[static_cast<std::size_t>(q)] - low->seq + 1;
    ASSERT_EQ(w.slots(), expected) << "step " << step;
    if (before <= kInline && expected > kInline) ++up;
    if (before > kInline && expected <= kInline) ++down;
    for (int probe = 0; probe < 4; ++probe) {
      const int po = static_cast<int>(rng.uniform_int(0, origins));  // `origins`: never used
      const auto top = static_cast<std::int64_t>(next[static_cast<std::size_t>(po % origins)]) + 3;
      const MsgId id{po, static_cast<std::uint64_t>(rng.uniform_int(0, top))};
      const TestSlot* f = w.find(id);
      const auto it = model.find(id);
      ASSERT_EQ(f != nullptr, it != model.end()) << "probe " << id.origin << ":" << id.seq;
      if (f != nullptr) {
        ASSERT_EQ(f->v, it->second);
      }
    }
    if (step % 128 == 0) expect_same(w, model);
  }
  expect_same(w, model);
  if (origins == 1) {
    EXPECT_GT(up, 100u);
    EXPECT_GT(down, 100u);
  }
  EXPECT_GT(below_base, 100u);
  EXPECT_GT(refills, 100u);
}

TEST(InFlightWindows, MatchesStdMapAcrossTheInlineBoundary) { windows_differential(1, 31); }
TEST(InFlightWindows, MatchesStdMapOverSeveralOrigins) { windows_differential(5, 32); }

}  // namespace
}  // namespace fdgm::abcast
