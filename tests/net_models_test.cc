// Coverage for the remaining network-model and utility surfaces: latency
// models (including the clustered LAN/WAN topology), RNG distribution
// shapes, histogram reservoir behavior, and the GroupFabric harness itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/catocs/group.h"
#include "src/net/latency.h"
#include "src/sim/metrics.h"
#include "src/sim/rng.h"

namespace {

TEST(LatencyModelTest, FixedIsConstant) {
  sim::Rng rng(1);
  net::FixedLatency model(sim::Duration::Millis(7));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(model.SampleDelay(1, 2, rng), sim::Duration::Millis(7));
  }
}

TEST(LatencyModelTest, UniformStaysInBoundsAndCoversThem) {
  sim::Rng rng(2);
  net::UniformLatency model(sim::Duration::Millis(2), sim::Duration::Millis(10));
  sim::Duration lo = sim::Duration::Max();
  sim::Duration hi = sim::Duration::Zero();
  for (int i = 0; i < 5000; ++i) {
    const sim::Duration d = model.SampleDelay(1, 2, rng);
    EXPECT_GE(d, sim::Duration::Millis(2));
    EXPECT_LE(d, sim::Duration::Millis(10));
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_LT(lo, sim::Duration::Millis(3)) << "lower region reachable";
  EXPECT_GT(hi, sim::Duration::Millis(9)) << "upper region reachable";
}

TEST(LatencyModelTest, ClusteredSplitsLanAndWan) {
  sim::Rng rng(4);
  net::ClusteredLatency model(
      4, std::make_unique<net::FixedLatency>(sim::Duration::Millis(1)),
      std::make_unique<net::FixedLatency>(sim::Duration::Millis(20)));
  // Nodes 0-3 are cluster 0; nodes 4-7 cluster 1.
  EXPECT_EQ(model.SampleDelay(0, 3, rng), sim::Duration::Millis(1));
  EXPECT_EQ(model.SampleDelay(4, 7, rng), sim::Duration::Millis(1));
  EXPECT_EQ(model.SampleDelay(0, 4, rng), sim::Duration::Millis(20));
  EXPECT_EQ(model.SampleDelay(7, 1, rng), sim::Duration::Millis(20));
}

TEST(RngDistributionTest, DurationSamplingInclusive) {
  sim::Rng rng(6);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const sim::Duration d = rng.NextDuration(sim::Duration::Nanos(0), sim::Duration::Nanos(3));
    saw_lo |= d == sim::Duration::Nanos(0);
    saw_hi |= d == sim::Duration::Nanos(3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(HistogramReservoirTest, StatsExactPastReservoirCap) {
  // Count/sum/min/max stay exact beyond the sample cap; quantiles remain
  // sensible estimates.
  sim::Histogram h;
  const int n = (1 << 20) + 50000;  // beyond kMaxSamples
  for (int i = 0; i < n; ++i) {
    h.Record(static_cast<double>(i % 1000));
  }
  EXPECT_EQ(h.count(), n);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 999.0);
  EXPECT_NEAR(h.mean(), 499.5, 0.5);
  EXPECT_NEAR(h.Quantile(0.5), 499.5, 25.0);
}

TEST(GroupFabricTest, DeliveryOrderAtFiltersByMember) {
  sim::Simulator s(7);
  catocs::FabricConfig cfg;
  cfg.num_members = 3;
  catocs::GroupFabric fabric(&s, cfg);
  fabric.RecordDeliveries();
  fabric.StartAll();
  s.ScheduleAfter(sim::Duration::Millis(1), [&] {
    fabric.member(0).CausalSend(std::make_shared<net::BlobPayload>("a", 8));
    fabric.member(1).CausalSend(std::make_shared<net::BlobPayload>("b", 8));
  });
  s.RunFor(sim::Duration::Seconds(2));
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(fabric.DeliveryOrderAt(i).size(), 2u) << "member " << i;
  }
  EXPECT_EQ(fabric.records().size(), 6u);
}

TEST(GroupFabricTest, CrashMemberSilencesItCompletely) {
  sim::Simulator s(8);
  catocs::FabricConfig cfg;
  cfg.num_members = 3;
  catocs::GroupFabric fabric(&s, cfg);
  fabric.RecordDeliveries();
  fabric.StartAll();
  fabric.CrashMember(2);
  s.ScheduleAfter(sim::Duration::Millis(1), [&] {
    fabric.member(0).CausalSend(std::make_shared<net::BlobPayload>("x", 8));
  });
  s.RunFor(sim::Duration::Seconds(2));
  for (const auto& record : fabric.records()) {
    EXPECT_NE(record.at, catocs::GroupFabric::IdOf(2));
  }
}

}  // namespace
