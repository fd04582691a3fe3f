// Determinism: the entire stack must produce bit-identical behavior for a
// given seed — the property that makes every anomaly in this repository
// replayable. These tests run complete scenarios twice and compare exact
// event counts, delivery orders, and results.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/apps/shopfloor.h"
#include "src/apps/trading.h"
#include "src/catocs/group.h"

namespace {

std::vector<std::string> RunGroupTraffic(uint64_t seed) {
  sim::Simulator s(seed);
  catocs::FabricConfig cfg;
  cfg.num_members = 6;
  cfg.network.drop_probability = 0.1;
  cfg.network.duplicate_probability = 0.05;
  catocs::GroupFabric fabric(&s, cfg);
  fabric.RecordDeliveries();
  fabric.StartAll();
  for (int k = 0; k < 60; ++k) {
    const auto when = sim::Duration::Millis(static_cast<int64_t>(1 + s.rng().NextBelow(400)));
    const size_t member = k % 6;
    s.ScheduleAfter(when, [&fabric, member, k] {
      fabric.member(member).Send(k % 3 == 0 ? catocs::OrderingMode::kTotal
                                            : catocs::OrderingMode::kCausal,
                                 std::make_shared<net::BlobPayload>("m" + std::to_string(k), 64));
    });
  }
  s.RunFor(sim::Duration::Seconds(10));
  std::vector<std::string> transcript;
  for (const auto& record : fabric.records()) {
    transcript.push_back(std::to_string(record.at) + ":" + record.delivery.id().ToString() + "@" +
                         std::to_string(record.delivery.delivered_at.nanos()));
  }
  return transcript;
}

// Token-circulating total order with live membership and the hybrid
// retention buffer, losing one member mid-run. This reaches what the static
// scenario above never does: the creation order of every background timer
// (ack gossip, heartbeat, failure check, token seed), failure detection, the
// flush and view install, and token regeneration in the new view. The
// gossip period equals the failure-check period and timeout so both timers
// tick together, and their start order decides which acts first at the tick
// that detects the crash.
std::vector<std::string> RunTokenChurnTraffic(uint64_t seed) {
  sim::Simulator s(seed);
  catocs::FabricConfig cfg;
  cfg.num_members = 6;
  cfg.group.total_order_mode = catocs::TotalOrderMode::kToken;
  cfg.group.enable_membership = true;
  cfg.group.causal_buffer = catocs::CausalBufferKind::kHybrid;
  cfg.group.ack_gossip_interval = sim::Duration::Millis(50);
  cfg.group.heartbeat_interval = sim::Duration::Millis(50);
  cfg.group.failure_timeout = sim::Duration::Millis(50);
  catocs::GroupFabric fabric(&s, cfg);
  fabric.RecordDeliveries();
  fabric.StartAll();
  for (int k = 0; k < 60; ++k) {
    const auto when = sim::Duration::Millis(static_cast<int64_t>(1 + s.rng().NextBelow(400)));
    const size_t member = k % 6;
    s.ScheduleAfter(when, [&fabric, member, k] {
      fabric.member(member).Send(k % 2 == 0 ? catocs::OrderingMode::kTotal
                                            : catocs::OrderingMode::kCausal,
                                 std::make_shared<net::BlobPayload>("t" + std::to_string(k), 64));
    });
  }
  s.ScheduleAfter(sim::Duration::Millis(150), [&fabric] { fabric.CrashMember(2); });
  s.RunFor(sim::Duration::Seconds(10));
  std::vector<std::string> transcript;
  for (const auto& record : fabric.records()) {
    transcript.push_back(std::to_string(record.at) + ":" + record.delivery.id().ToString() + "#" +
                         std::to_string(record.delivery.total_seq) + "@" +
                         std::to_string(record.delivery.delivered_at.nanos()));
  }
  for (size_t i = 0; i < fabric.size(); ++i) {
    transcript.push_back("view@" + std::to_string(i) + "=" +
                         std::to_string(fabric.member(i).view().id));
  }
  return transcript;
}

uint64_t Fnv1a(uint64_t hash, const std::string& s) {
  for (unsigned char c : s) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t TraceHash(const std::vector<std::string>& transcript) {
  uint64_t hash = 14695981039346656037ull;
  for (const std::string& line : transcript) {
    hash = Fnv1a(hash, line);
  }
  return hash;
}

TEST(DeterminismTest, GroupTrafficIsExactlyReproducible) {
  const auto first = RunGroupTraffic(12345);
  const auto second = RunGroupTraffic(12345);
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

// Golden trace hashes, computed from the std::map-based clock implementation
// before the flat-vector representation landed. A change here means the
// simulation itself behaves differently — not just that internals moved
// around — and invalidates every recorded experiment number.
TEST(DeterminismTest, TraceHashMatchesGolden) {
  EXPECT_EQ(TraceHash(RunGroupTraffic(12345)), 601440888793534087ull);
  EXPECT_EQ(TraceHash(RunGroupTraffic(999)), 12391433873660651454ull);
  EXPECT_EQ(TraceHash(RunTokenChurnTraffic(12345)), 15753945183993046192ull);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  const auto first = RunGroupTraffic(1);
  const auto second = RunGroupTraffic(2);
  EXPECT_NE(first, second);
}

TEST(DeterminismTest, ScenarioResultsAreReproducible) {
  apps::ShopFloorConfig sf;
  sf.rounds = 100;
  sf.seed = 777;
  const auto a = RunShopFloorScenario(sf);
  const auto b = RunShopFloorScenario(sf);
  EXPECT_EQ(a.raw_anomalies, b.raw_anomalies);
  EXPECT_EQ(a.stale_drops, b.stale_drops);
  EXPECT_DOUBLE_EQ(a.mean_delivery_latency_us, b.mean_delivery_latency_us);

  apps::TradingConfig tr;
  tr.price_updates = 200;
  tr.seed = 778;
  const auto c = RunTradingScenario(tr);
  const auto d = RunTradingScenario(tr);
  EXPECT_EQ(c.raw_false_crossings, d.raw_false_crossings);
  EXPECT_EQ(c.raw_inconsistent_displays, d.raw_inconsistent_displays);
}

TEST(DeterminismTest, SimulatorEventCountStable) {
  auto run = [] {
    sim::Simulator s(42);
    catocs::FabricConfig cfg;
    cfg.num_members = 4;
    catocs::GroupFabric fabric(&s, cfg);
    fabric.StartAll();
    for (int i = 0; i < 10; ++i) {
      s.ScheduleAfter(sim::Duration::Millis(i + 1), [&fabric, i] {
        fabric.member(static_cast<size_t>(i % 4))
            .CausalSend(std::make_shared<net::BlobPayload>("x", 10));
      });
    }
    s.RunFor(sim::Duration::Seconds(5));
    return s.events_executed();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
