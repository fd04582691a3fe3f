// Tests for the metrics registry (counters, gauges, histograms, labeled
// lookup, Report/ReportJson) and the span recorder — the observability
// surface the benches and fuzz_chaos --trace rely on.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/sim/metrics.h"
#include "src/sim/span.h"
#include "src/sim/time.h"

namespace sim {
namespace {

TEST(HistogramTest, EmptyHistogramSentinels) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.stddev(), 0.0);
}

TEST(HistogramTest, ExactQuantilesBelowReservoirBound) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Record(static_cast<double>(i));
  }
  EXPECT_EQ(h.count(), 100);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 100.0);
  EXPECT_NEAR(h.Quantile(0.5), 50.0, 1.0);
}

// The quantile cache must be invalidated by Record: a quantile read between
// records may not pin later reads to the stale sorted view.
TEST(HistogramTest, QuantileCacheInvalidatedByRecord) {
  Histogram h;
  h.Record(1.0);
  h.Record(2.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 2.0);  // populates the cache
  h.Record(1000.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1000.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.0);
}

// Welford regression: mean around 1e9 with unit-scale deviations. The old
// sum-of-squares formula loses all significant digits here (sum_sq and
// sum^2/n agree to ~18 digits) and returned garbage, often 0 or NaN.
TEST(HistogramTest, StddevStableForLargeMeanSmallVariance) {
  Histogram h;
  const double base = 1e9;
  // 1000 samples alternating base-1, base+1: mean = base, stddev ~ 1.0005
  // (sample stddev of a +-1 series).
  for (int i = 0; i < 1000; ++i) {
    h.Record(base + ((i % 2 == 0) ? 1.0 : -1.0));
  }
  EXPECT_DOUBLE_EQ(h.mean(), base);
  EXPECT_NEAR(h.stddev(), 1.0, 1e-3);
  EXPECT_FALSE(std::isnan(h.stddev()));
}

TEST(HistogramTest, ReservoirPathPastMaxSamples) {
  // kMaxSamples is 1<<20; push well past it. Count/sum/min/max stay exact;
  // quantiles come from the reservoir and must stay within the value range
  // and roughly ordered.
  Histogram h;
  const int n = (1 << 20) + (1 << 18);
  for (int i = 0; i < n; ++i) {
    h.Record(static_cast<double>(i));
  }
  EXPECT_EQ(h.count(), n);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), static_cast<double>(n - 1));
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(n - 1) / 2.0);
  const double p10 = h.Quantile(0.10);
  const double p50 = h.Quantile(0.50);
  const double p90 = h.Quantile(0.90);
  EXPECT_LE(p10, p50);
  EXPECT_LE(p50, p90);
  // Uniform input: each quantile should land near its exact position. The
  // reservoir holds 2^20 of 1.25*2^20 samples, so sampling error is small.
  EXPECT_NEAR(p50 / static_cast<double>(n), 0.50, 0.02);
  EXPECT_NEAR(p90 / static_cast<double>(n), 0.90, 0.02);
}

TEST(GaugeTest, TimedMeanCoversFinalInterval) {
  // Level 10 for 1s, then 20 for 3s: time-weighted mean = (10*1 + 20*3)/4.
  Gauge g;
  g.SetAt(10, TimePoint(0));
  g.SetAt(20, TimePoint(Duration::Seconds(1).nanos()));
  g.FinalizeAt(TimePoint(Duration::Seconds(4).nanos()));
  EXPECT_DOUBLE_EQ(g.weighted_mean(), 17.5);
  EXPECT_EQ(g.value(), 20);
  EXPECT_EQ(g.peak(), 20);
}

TEST(GaugeTest, MissingFinalizeDropsTailInterval) {
  // Without FinalizeAt the 3s tail at level 20 is silently dropped and the
  // mean reports only the closed 1s interval — the bug FinalizeAt fixes.
  Gauge g;
  g.SetAt(10, TimePoint(0));
  g.SetAt(20, TimePoint(Duration::Seconds(1).nanos()));
  EXPECT_DOUBLE_EQ(g.weighted_mean(), 10.0);
}

TEST(GaugeTest, FinalizeIsIdempotentAndExtendsTail) {
  Gauge g;
  g.SetAt(10, TimePoint(0));
  g.FinalizeAt(TimePoint(Duration::Seconds(1).nanos()));
  EXPECT_DOUBLE_EQ(g.weighted_mean(), 10.0);
  // A later finalize extends the tail at the current level.
  g.FinalizeAt(TimePoint(Duration::Seconds(2).nanos()));
  EXPECT_DOUBLE_EQ(g.weighted_mean(), 10.0);
}

TEST(RegistryTest, LabeledNameCanonicalizesKeyOrder) {
  const std::string a =
      MetricsRegistry::LabeledName("m", {{"b", "2"}, {"a", "1"}});
  const std::string b =
      MetricsRegistry::LabeledName("m", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(a, "m{a=1,b=2}");
  EXPECT_EQ(a, b);
  EXPECT_EQ(MetricsRegistry::LabeledName("m", {}), "m");

  MetricsRegistry registry;
  registry.GetCounter("hits", {{"node", "3"}, {"layer", "causal"}}).Add(7);
  const Counter* found = registry.FindCounter("hits{layer=causal,node=3}");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->value(), 7);
}

TEST(RegistryTest, ReportRendersLongNamesInFull) {
  // The old fixed 256-byte snprintf buffer truncated long (labeled) names;
  // stream formatting must render them completely.
  MetricsRegistry registry;
  const std::string long_name(300, 'x');
  registry.GetCounter(long_name).Add(1);
  const std::string report = registry.Report();
  EXPECT_NE(report.find(long_name), std::string::npos);
}

TEST(RegistryTest, ReportJsonIsDeterministicAndComplete) {
  auto build = [] {
    MetricsRegistry registry;
    registry.GetCounter("sends", {{"node", "0"}}).Add(3);
    Gauge& g = registry.GetGauge("occupancy");
    g.SetAt(5, TimePoint(0));
    g.FinalizeAt(TimePoint(Duration::Seconds(2).nanos()));
    Histogram& h = registry.GetHistogram("delay_ms");
    h.Record(1.5);
    h.Record(2.5);
    return registry.ReportJson();
  };
  const std::string a = build();
  const std::string b = build();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"counters\""), std::string::npos);
  EXPECT_NE(a.find("\"sends{node=0}\""), std::string::npos);
  EXPECT_NE(a.find("\"gauges\""), std::string::npos);
  EXPECT_NE(a.find("\"occupancy\""), std::string::npos);
  EXPECT_NE(a.find("\"histograms\""), std::string::npos);
  EXPECT_NE(a.find("\"delay_ms\""), std::string::npos);
}

TEST(RegistryTest, ReportJsonEscapesMetricNames) {
  // Quotes and backslashes were always escaped; control characters must come
  // out as their short escapes (or \u00XX), never raw — a raw newline or tab
  // in a label makes the whole document unparseable.
  MetricsRegistry registry;
  registry.GetCounter("quote\"and\\slash").Add(1);
  registry.GetCounter(std::string("tab\tnl\ncr\rbs\bff\f")).Add(2);
  registry.GetCounter(std::string("nul") + '\x01' + "unit" + '\x1f').Add(3);
  const std::string json = registry.ReportJson();
  EXPECT_NE(json.find("\"quote\\\"and\\\\slash\""), std::string::npos);
  EXPECT_NE(json.find("\"tab\\tnl\\ncr\\rbs\\bff\\f\""), std::string::npos);
  EXPECT_NE(json.find("\"nul\\u0001unit\\u001f\""), std::string::npos);
  for (char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control character in JSON output";
  }
}

TEST(SpanRecorderTest, DisabledRecorderIsNoOp) {
  SpanRecorder spans;
  spans.Record(1, 0, TimePoint(0), SpanEvent::kSend, "member");
  EXPECT_EQ(spans.total_recorded(), 0u);
  EXPECT_TRUE(spans.records().empty());
}

TEST(SpanRecorderTest, LifecycleOrderingForOneKey) {
  SpanRecorder spans;
  spans.set_enabled(true);
  const uint64_t key = 42;
  spans.Record(key, 0, TimePoint(1), SpanEvent::kSend, "member", "causal");
  spans.Record(key, 0, TimePoint(2), SpanEvent::kStamp, "causal");
  spans.Record(7, 1, TimePoint(3), SpanEvent::kSend, "member");  // other key
  spans.Record(key, 1, TimePoint(4), SpanEvent::kEnter, "causal", "causal-gap");
  spans.Record(key, 1, TimePoint(5), SpanEvent::kDeliver, "causal");
  spans.Record(key, 1, TimePoint(6), SpanEvent::kStable, "stability");

  const auto timeline = spans.ForKey(key);
  ASSERT_EQ(timeline.size(), 5u);
  EXPECT_EQ(timeline[0].event, SpanEvent::kSend);
  EXPECT_EQ(timeline[1].event, SpanEvent::kStamp);
  EXPECT_EQ(timeline[2].event, SpanEvent::kEnter);
  EXPECT_EQ(timeline[3].event, SpanEvent::kDeliver);
  EXPECT_EQ(timeline[4].event, SpanEvent::kStable);
  for (size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_LE(timeline[i - 1].when.nanos(), timeline[i].when.nanos());
  }

  // max_events keeps the most recent tail.
  const auto tail = spans.ForKey(key, 2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].event, SpanEvent::kDeliver);
  EXPECT_EQ(tail[1].event, SpanEvent::kStable);

  const std::string rendered = SpanRecorder::Render(timeline);
  EXPECT_NE(rendered.find("send"), std::string::npos);
  EXPECT_NE(rendered.find("causal-gap"), std::string::npos);
}

TEST(SpanRecorderTest, RingEvictsOldestAtCapacity) {
  SpanRecorder spans;
  spans.set_enabled(true);
  spans.set_capacity(4);
  for (uint64_t i = 0; i < 10; ++i) {
    spans.Record(i, 0, TimePoint(static_cast<int64_t>(i)), SpanEvent::kSend, "member");
  }
  EXPECT_EQ(spans.total_recorded(), 10u);
  EXPECT_EQ(spans.records().size(), 4u);
  EXPECT_EQ(spans.evicted(), 6u);
  EXPECT_TRUE(spans.ForKey(0).empty());   // evicted
  EXPECT_EQ(spans.ForKey(9).size(), 1u);  // newest retained
}

}  // namespace
}  // namespace sim
