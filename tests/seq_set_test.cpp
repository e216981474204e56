// Tests of util::SeqSet, the watermark-plus-bit-window set behind the
// delivered-id and decided-instance bookkeeping: unit cases at the word
// boundaries, and a differential run against std::set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "sim/rng.hpp"
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
  EXPECT_EQ(s.window_words(), 1u);
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
void differential(std::uint64_t first, std::uint64_t seed) {
  sim::Rng rng(seed);
  constexpr std::uint64_t kCount = 20000;
  constexpr std::int64_t kJitter = 150;
  // Arrival order: value i arrives at about position i +- kJitter.
  std::vector<std::uint64_t> order(kCount);
  std::iota(order.begin(), order.end(), first);
  std::vector<double> key(kCount);
  for (std::uint64_t i = 0; i < kCount; ++i)
    key[i] = static_cast<double>(i) + rng.uniform(0.0, static_cast<double>(kJitter));
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

}  // namespace
}  // namespace fdgm::util
