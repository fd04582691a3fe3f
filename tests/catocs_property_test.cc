// Extended randomized property sweeps for the CATOCS stack: every
// combination of protocol variant and network hostility must preserve the
// ordering invariants, drain its buffers at quiescence, and (with
// membership) survive crashes injected at random points.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/catocs/group.h"
#include "src/sim/simulator.h"

namespace catocs {
namespace {

net::PayloadPtr Blob(const std::string& tag) {
  return std::make_shared<net::BlobPayload>(tag, 48);
}

// gtest names each case by printing the parameter's raw bytes. The bytes after
// `members` and after `piggyback` used to be padding, so a case's name
// depended on whatever the stack held when the sweep was registered (it
// shifted with the size of the process environment). `name_bytes` and
// `name_tail` make them explicit; the test never reads them, and the
// `name_bytes` values keep the names the sweep's cases are listed under.
struct HostileParams {
  uint32_t members;
  uint32_t name_bytes;
  double drop;
  double duplicate;
  bool piggyback;
  uint8_t name_tail[3];
  TotalOrderMode total_mode;
  uint64_t seed;
};
static_assert(sizeof(HostileParams) == 40, "HostileParams must have no padding");

class HostileNetworkTest : public ::testing::TestWithParam<HostileParams> {};

TEST_P(HostileNetworkTest, InvariantsAndQuiescence) {
  const HostileParams param = GetParam();
  sim::Simulator s(param.seed);
  FabricConfig cfg;
  cfg.num_members = param.members;
  cfg.network.drop_probability = param.drop;
  cfg.network.duplicate_probability = param.duplicate;
  cfg.group.piggyback_causal = param.piggyback;
  cfg.group.total_order_mode = param.total_mode;
  GroupFabric fabric(&s, cfg);
  fabric.RecordDeliveries();
  fabric.StartAll();

  const int sends_per_member = 15;
  for (uint32_t m = 0; m < param.members; ++m) {
    for (int k = 0; k < sends_per_member; ++k) {
      const auto when = sim::Duration::Millis(static_cast<int64_t>(1 + s.rng().NextBelow(300)));
      const OrderingMode mode = k % 2 == 0 ? OrderingMode::kCausal : OrderingMode::kTotal;
      s.ScheduleAfter(when, [&fabric, m, mode] { fabric.member(m).Send(mode, Blob("p")); });
    }
  }
  s.RunFor(sim::Duration::Seconds(30));

  // Completeness: every ordered message delivered at every member.
  const size_t expected = param.members * sends_per_member * param.members;
  EXPECT_EQ(fabric.records().size(), expected);
  // Safety.
  EXPECT_EQ(CheckCausalDeliveryInvariant(fabric.records()), "");
  EXPECT_EQ(CheckFifoInvariant(fabric.records()), "");
  EXPECT_EQ(CheckTotalOrderInvariant(fabric.records()), "");
  // Buffer drain: after quiescence + gossip rounds, nothing is retained.
  for (size_t i = 0; i < fabric.size(); ++i) {
    EXPECT_EQ(fabric.member(i).buffered_messages(), 0u) << "member " << i;
    EXPECT_EQ(fabric.member(i).delay_queue_length(), 0u) << "member " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HostileNetworkTest,
    ::testing::Values(
        HostileParams{4, 0, 0.0, 0.0, false, {}, TotalOrderMode::kSequencer, 1},
        HostileParams{4, 0, 0.3, 0.0, false, {}, TotalOrderMode::kSequencer, 2},
        HostileParams{4, 0, 0.0, 0.3, false, {}, TotalOrderMode::kSequencer, 3},
        HostileParams{4, 0, 0.2, 0.2, false, {}, TotalOrderMode::kSequencer, 4},
        HostileParams{6, 0, 0.1, 0.1, true, {}, TotalOrderMode::kSequencer, 5},
        HostileParams{6, 0, 0.2, 0.0, true, {}, TotalOrderMode::kSequencer, 6},
        HostileParams{4, 0, 0.1, 0.1, false, {}, TotalOrderMode::kToken, 7},
        HostileParams{6, 0xEFC00000, 0.2, 0.1, false, {}, TotalOrderMode::kToken, 8},
        HostileParams{10, 0, 0.15, 0.05, false, {}, TotalOrderMode::kSequencer, 9},
        HostileParams{10, 0xCAC50000, 0.1, 0.0, false, {}, TotalOrderMode::kToken, 10}));

// Crash at a random instant mid-traffic; survivors must converge on a view,
// deliver identically-ordered totals, and keep all invariants.
class CrashSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashSweepTest, SurvivorsStayConsistent) {
  const uint64_t seed = GetParam();
  sim::Simulator s(seed);
  FabricConfig cfg;
  cfg.num_members = 5;
  cfg.group.enable_membership = true;
  cfg.group.heartbeat_interval = sim::Duration::Millis(20);
  cfg.group.failure_timeout = sim::Duration::Millis(100);
  GroupFabric fabric(&s, cfg);
  fabric.RecordDeliveries();
  fabric.StartAll();

  // Random victim (never member 0, so the check below can use it), random
  // crash time inside the traffic window.
  const size_t victim = 1 + s.rng().NextBelow(4);
  const auto crash_at = sim::Duration::Millis(static_cast<int64_t>(50 + s.rng().NextBelow(400)));
  for (uint32_t m = 0; m < 5; ++m) {
    for (int k = 0; k < 12; ++k) {
      const auto when = sim::Duration::Millis(static_cast<int64_t>(1 + s.rng().NextBelow(500)));
      const OrderingMode mode = k % 2 == 0 ? OrderingMode::kCausal : OrderingMode::kTotal;
      s.ScheduleAfter(when, [&fabric, m, mode] { fabric.member(m).Send(mode, Blob("c")); });
    }
  }
  s.ScheduleAfter(crash_at, [&fabric, victim] { fabric.CrashMember(victim); });
  s.RunFor(sim::Duration::Seconds(10));

  // Survivor records only.
  std::vector<GroupFabric::Record> survivor_records;
  for (const auto& record : fabric.records()) {
    if (record.at != GroupFabric::IdOf(victim)) {
      survivor_records.push_back(record);
    }
  }
  EXPECT_EQ(CheckCausalDeliveryInvariant(survivor_records), "");
  EXPECT_EQ(CheckFifoInvariant(survivor_records), "");
  EXPECT_EQ(CheckTotalOrderInvariant(survivor_records), "");
  // All survivors installed a view excluding the victim.
  for (size_t i = 0; i < 5; ++i) {
    if (i == victim) {
      continue;
    }
    const auto& members = fabric.member(i).view().members;
    EXPECT_EQ(members.size(), 4u) << "member " << i;
    EXPECT_EQ(std::count(members.begin(), members.end(), GroupFabric::IdOf(victim)), 0)
        << "member " << i;
  }
  // Atomic delivery across the failure: survivors delivered identical
  // message sets (delivery atomicity, not just ordering).
  std::vector<std::set<std::pair<MemberId, uint64_t>>> delivered_sets(5);
  for (const auto& record : survivor_records) {
    delivered_sets[record.at - 1].insert({record.delivery.id().sender, record.delivery.id().seq});
  }
  for (size_t i = 1; i < 5; ++i) {
    if (i == victim) {
      continue;
    }
    EXPECT_EQ(delivered_sets[i], delivered_sets[0]) << "member " << i + 1;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashSweepTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// Several groups share the same transports; traffic must not leak across
// group boundaries and each group's invariants hold independently.
TEST(MultiGroupTest, GroupsAreIsolatedOnSharedTransports) {
  sim::Simulator s(5);
  net::Network network(&s, std::make_unique<net::UniformLatency>(sim::Duration::Millis(1),
                                                                 sim::Duration::Millis(8)));
  std::vector<std::unique_ptr<net::Transport>> transports;
  std::vector<MemberId> ids{1, 2, 3};
  for (MemberId id : ids) {
    transports.push_back(std::make_unique<net::Transport>(&s, &network, id));
  }
  GroupConfig g1;
  g1.group_id = 1;
  GroupConfig g2;
  g2.group_id = 2;
  std::vector<std::unique_ptr<GroupMember>> group1;
  std::vector<std::unique_ptr<GroupMember>> group2;
  std::vector<std::pair<int, Delivery>> deliveries1;
  std::vector<std::pair<int, Delivery>> deliveries2;
  for (size_t i = 0; i < 3; ++i) {
    group1.push_back(std::make_unique<GroupMember>(&s, transports[i].get(), g1, ids[i], ids));
    group2.push_back(std::make_unique<GroupMember>(&s, transports[i].get(), g2, ids[i], ids));
    group1.back()->SetDeliveryHandler(
        [&deliveries1, i](const Delivery& d) { deliveries1.emplace_back(i, d); });
    group2.back()->SetDeliveryHandler(
        [&deliveries2, i](const Delivery& d) { deliveries2.emplace_back(i, d); });
    group1.back()->Start();
    group2.back()->Start();
  }
  for (int k = 0; k < 10; ++k) {
    s.ScheduleAfter(sim::Duration::Millis(1 + k), [&group1, &group2, k] {
      group1[k % 3]->CausalSend(Blob("g1"));
      group2[(k + 1) % 3]->TotalSend(Blob("g2"));
    });
  }
  s.RunFor(sim::Duration::Seconds(5));
  EXPECT_EQ(deliveries1.size(), 30u);
  EXPECT_EQ(deliveries2.size(), 30u);
  for (const auto& [member, delivery] : deliveries1) {
    EXPECT_EQ(net::PayloadCast<net::BlobPayload>(delivery.payload())->tag(), "g1");
  }
  for (const auto& [member, delivery] : deliveries2) {
    EXPECT_EQ(net::PayloadCast<net::BlobPayload>(delivery.payload())->tag(), "g2");
    EXPECT_GT(delivery.total_seq, 0u);
  }
}

// Causal order must hold even when traffic mixes ordered and unordered
// sends: the unordered ones are invisible to the vector clocks.
TEST(MixedModeTest, UnorderedTrafficDoesNotPerturbCausalState) {
  sim::Simulator s(6);
  FabricConfig cfg;
  cfg.num_members = 4;
  GroupFabric fabric(&s, cfg);
  fabric.RecordDeliveries();
  fabric.StartAll();
  for (int k = 0; k < 20; ++k) {
    s.ScheduleAfter(sim::Duration::Millis(1 + 2 * k), [&fabric, k] {
      fabric.member(k % 4).Send(k % 2 == 0 ? OrderingMode::kUnordered : OrderingMode::kCausal,
                                Blob(k % 2 == 0 ? "noise" : "ordered"));
    });
  }
  s.RunFor(sim::Duration::Seconds(5));
  EXPECT_EQ(CheckCausalDeliveryInvariant(fabric.records()), "");
  // The 10 causal sends delivered everywhere; unordered best-effort (no loss
  // configured, so also everywhere).
  EXPECT_EQ(fabric.records().size(), 20u * 4u);
}

}  // namespace
}  // namespace catocs
