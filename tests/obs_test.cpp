// Observer unit tests: span lifecycle semantics (first-write-wins,
// capacity drops), the counter registry, lazy metrics windows, and the
// shape of the two export formats.  End-to-end armed-run passivity is
// covered by the determinism tests; allocation freedom by alloc_test.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/observer.hpp"

namespace fdgm::obs {
namespace {

Config armed() {
  Config c;
  c.enabled = true;
  return c;
}

TEST(ObsSpan, LifecycleTimestampsAreRecordedInOrder) {
  Observer o(3, armed());
  o.on_submit(1, 1, 10.0);
  o.on_order_start(1, 1, 12.0);
  o.on_ordered(1, 1, 20.0);
  o.on_delivered(1, 1, 25.0);

  const Span* s = o.span(1, 1);
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->submit, 10.0);
  EXPECT_DOUBLE_EQ(s->order_start, 12.0);
  EXPECT_DOUBLE_EQ(s->ordered, 20.0);
  EXPECT_DOUBLE_EQ(s->delivered, 25.0);
  EXPECT_EQ(o.spans_recorded(), 1u);
}

// ordered/delivered fire once per process; only the global first
// transition must stick.
TEST(ObsSpan, FirstWriteWins) {
  Observer o(3, armed());
  o.on_submit(0, 1, 1.0);
  o.on_ordered(0, 1, 5.0);
  o.on_ordered(0, 1, 7.0);
  o.on_delivered(0, 1, 9.0);
  o.on_delivered(0, 1, 11.0);

  const Span* s = o.span(0, 1);
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->ordered, 5.0);
  EXPECT_DOUBLE_EQ(s->delivered, 9.0);
}

// on_submit is the only creation point: hooks for a message that was
// never submitted (or whose slab slot was dropped) are ignored.
TEST(ObsSpan, HooksWithoutSubmitAreIgnored) {
  Observer o(3, armed());
  o.on_ordered(0, 1, 5.0);
  o.on_delivered(0, 1, 9.0);
  EXPECT_EQ(o.span(0, 1), nullptr);
  EXPECT_EQ(o.spans_recorded(), 0u);

  // Out-of-range origins and seq 0 never crash either.
  o.on_submit(-1, 1, 1.0);
  o.on_submit(3, 1, 1.0);
  o.on_submit(0, 0, 1.0);
  EXPECT_EQ(o.spans_recorded(), 0u);
}

// Flight-recorder semantics: a full slab drops (and counts) new spans
// instead of growing.
TEST(ObsSpan, CapacityOverflowDropsAndCounts) {
  Config cfg = armed();
  cfg.span_capacity = 2;
  Observer o(2, cfg);
  o.on_submit(0, 1, 1.0);
  o.on_submit(0, 2, 2.0);
  o.on_submit(0, 3, 3.0);  // dropped: slab for origin 0 is full
  o.on_submit(1, 1, 4.0);  // origin 1 has its own slab

  EXPECT_EQ(o.spans_recorded(), 3u);
  EXPECT_EQ(o.spans_dropped(), 1u);
  EXPECT_EQ(o.span(0, 3), nullptr);
  ASSERT_NE(o.span(1, 1), nullptr);
}

TEST(ObsCounters, PerNodeAndAggregateTotals) {
  Observer o(3, armed());
  o.count(0, Counter::kTransportNacks, 1.0);
  o.count(0, Counter::kTransportNacks, 2.0, 4);
  o.count(2, Counter::kTransportNacks, 3.0);
  o.count(1, Counter::kSuspicions, 4.0);

  EXPECT_EQ(o.node_total(0, Counter::kTransportNacks), 5u);
  EXPECT_EQ(o.node_total(1, Counter::kTransportNacks), 0u);
  EXPECT_EQ(o.node_total(2, Counter::kTransportNacks), 1u);
  EXPECT_EQ(o.total(Counter::kTransportNacks), 6u);
  EXPECT_EQ(o.total(Counter::kSuspicions), 1u);
  EXPECT_EQ(o.total(Counter::kViewChanges), 0u);
}

TEST(ObsCounters, RetransmitTracksPerOriginConcentration) {
  Observer o(3, armed());
  o.on_retransmit(0, 1.0);
  o.on_retransmit(0, 2.0);
  o.on_retransmit(2, 3.0);
  EXPECT_EQ(o.node_total(0, Counter::kTransportRetx), 2u);
  EXPECT_EQ(o.node_total(1, Counter::kTransportRetx), 0u);
  EXPECT_EQ(o.node_total(2, Counter::kTransportRetx), 1u);
  EXPECT_EQ(o.total(Counter::kTransportRetx), 3u);
}

TEST(ObsCounters, BatchFlushFeedsHistogramAndReorderPeakIsMax) {
  Observer o(2, armed());
  o.on_batch_flush(0, 1.0);
  o.on_batch_flush(0, 2.0);
  EXPECT_EQ(o.node_total(0, Counter::kBatchesFlushed), 2u);
  EXPECT_EQ(o.total(Counter::kBatchesFlushed), 2u);
}

TEST(ObsMetrics, WindowsRollLazilyOnHookTimestamps) {
  Config cfg = armed();
  cfg.metrics_window_ms = 100.0;
  Observer o(2, cfg);
  EXPECT_EQ(o.snapshot_count(), 0u);

  o.count(0, Counter::kSuspicions, 50.0);  // inside the first window
  EXPECT_EQ(o.snapshot_count(), 0u);
  o.count(0, Counter::kSuspicions, 150.0);  // crosses the 100 ms boundary
  EXPECT_EQ(o.snapshot_count(), 1u);
  o.count(0, Counter::kSuspicions, 460.0);  // skips windows: still one snapshot
  EXPECT_EQ(o.snapshot_count(), 2u);
}

TEST(ObsMetrics, SnapshotOverflowDropsAndCounts) {
  Config cfg = armed();
  cfg.metrics_window_ms = 10.0;
  cfg.snapshot_capacity = 1;
  Observer o(1, cfg);
  o.count(0, Counter::kSuspicions, 15.0);
  o.count(0, Counter::kSuspicions, 25.0);
  o.count(0, Counter::kSuspicions, 35.0);
  EXPECT_EQ(o.snapshot_count(), 1u);
  EXPECT_EQ(o.snapshots_dropped(), 2u);
}

TEST(ObsExport, TraceJsonHasMetadataAndPhaseEvents) {
  Observer o(2, armed());
  o.on_submit(1, 1, 10.0);
  o.on_order_start(1, 1, 12.0);
  o.on_ordered(1, 1, 20.0);
  o.on_delivered(1, 1, 26.0);

  std::ostringstream ss;
  o.write_trace_json(ss);
  const std::string out = ss.str();
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(out.find("process_name"), std::string::npos);
  EXPECT_NE(out.find("\"submit-wait\""), std::string::npos);
  EXPECT_NE(out.find("\"ordering\""), std::string::npos);
  EXPECT_NE(out.find("\"delivery\""), std::string::npos);
  // Balanced JSON braces/brackets, no trailing comma before a closer.
  EXPECT_EQ(out.find(",]"), std::string::npos);
  EXPECT_EQ(out.find(",}"), std::string::npos);
}

TEST(ObsExport, MetricsCsvHasHeaderAndOneRowPerSnapshot) {
  Config cfg = armed();
  cfg.metrics_window_ms = 10.0;
  Observer o(1, cfg);
  o.count(0, Counter::kSuspicions, 15.0);
  o.count(0, Counter::kSuspicions, 25.0);

  std::ostringstream ss;
  o.write_metrics_csv(ss);
  std::istringstream in(ss.str());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header.rfind("t_ms,", 0), 0u);
  EXPECT_NE(header.find("suspicions"), std::string::npos);
  EXPECT_NE(header.find("transport_retx"), std::string::npos);
  std::size_t rows = 0;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) ++rows;
  EXPECT_EQ(rows, o.snapshot_count());
}

TEST(ObsExport, PerNodeMetricsCsvHasOneRowPerNodePerWindow) {
  Config cfg = armed();
  cfg.metrics_window_ms = 10.0;
  cfg.per_node_metrics = true;
  Observer o(3, cfg);
  o.count(0, Counter::kSuspicions, 15.0);
  o.count(1, Counter::kSuspicions, 25.0);

  std::ostringstream ss;
  o.write_metrics_per_node_csv(ss);
  std::istringstream in(ss.str());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header.rfind("t_ms,node,", 0), 0u);
  EXPECT_NE(header.find("suspicions"), std::string::npos);
  std::size_t rows = 0;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) ++rows;
  EXPECT_EQ(rows, o.snapshot_count() * 3u);
}

// Per-node rows are only collected when the config asks for them; the
// export then has nothing to write (header only).
TEST(ObsExport, PerNodeMetricsOffByDefault) {
  Config cfg = armed();
  cfg.metrics_window_ms = 10.0;
  Observer o(2, cfg);
  o.count(0, Counter::kSuspicions, 15.0);
  o.count(0, Counter::kSuspicions, 25.0);
  ASSERT_GT(o.snapshot_count(), 0u);

  std::ostringstream ss;
  o.write_metrics_per_node_csv(ss);
  std::istringstream in(ss.str());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  std::size_t rows = 0;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) ++rows;
  EXPECT_EQ(rows, 0u);
}

TEST(ObsExport, TraceJsonCarriesFlowEventsWhenCausal) {
  Config cfg = armed();
  cfg.causal = true;
  Observer o(2, cfg);
  o.on_submit(1, 1, 10.0);
  o.on_order_start(1, 1, 12.0);
  o.on_ordered(1, 1, 20.0);
  o.on_delivered(1, 1, 26.0, 0);

  std::ostringstream ss;
  o.write_trace_json(ss);
  const std::string out = ss.str();
  EXPECT_NE(out.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(out.find("dominant_cause"), std::string::npos);
  EXPECT_EQ(out.find(",]"), std::string::npos);
  EXPECT_EQ(out.find(",}"), std::string::npos);
}

TEST(ObsExport, CounterNamesAreStableSnakeCase) {
  EXPECT_STREQ(counter_name(Counter::kTransportRetx), "transport_retx");
  EXPECT_STREQ(counter_name(Counter::kCreditSheds), "credit_sheds");
  for (std::size_t c = 0; c < kCounterCount; ++c)
    EXPECT_NE(counter_name(static_cast<Counter>(c)), nullptr);
}

}  // namespace
}  // namespace fdgm::obs
