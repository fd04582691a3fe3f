// Protocol tests for the CATOCS stack: causal delivery (including the
// paper's Figure 1 pattern), total order (sequencer and token), stability
// and buffering, the footnote-4 piggyback variant, and randomized property
// sweeps over group size / jitter / traffic.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/catocs/causal_buffer.h"
#include "src/catocs/group.h"
#include "src/catocs/pipeline_stats.h"
#include "src/catocs/stability.h"
#include "src/net/payload.h"
#include "src/sim/simulator.h"

namespace catocs {
namespace {

net::PayloadPtr Blob(const std::string& tag, size_t size = 64) {
  return std::make_shared<net::BlobPayload>(tag, size);
}

std::string TagOf(const Delivery& d) {
  const auto* blob = net::PayloadCast<net::BlobPayload>(d.payload());
  return blob ? blob->tag() : "?";
}

// --- Figure 1: basic causal delivery ----------------------------------------

// Q sends m1; P receives m1 and then sends m2; m1 must precede m2 at every
// member. m3/m4 sent concurrently by R and Q have no constraint.
TEST(CausalMulticastTest, Figure1HappensBeforeRespected) {
  sim::Simulator s(42);
  FabricConfig cfg;
  cfg.num_members = 3;  // ids: 1=P, 2=Q, 3=R
  GroupFabric fabric(&s, cfg);
  fabric.RecordDeliveries();

  // P resends as a *reaction* to m1 (true causal dependency).
  fabric.member(0).SetDeliveryHandler([&](const Delivery& d) {
    static bool sent_m2 = false;
    fabric.records();  // keep linkage simple; recording replaced below
    if (TagOf(d) == "m1" && !sent_m2) {
      sent_m2 = true;
      fabric.member(0).CausalSend(Blob("m2"));
    }
  });
  // Re-install recording on members 1 and 2 only; member 0 got the reactive
  // handler above, so collect deliveries at members 1 and 2.
  std::vector<std::pair<MemberId, std::string>> got;
  for (size_t i = 1; i < 3; ++i) {
    const MemberId id = GroupFabric::IdOf(i);
    fabric.member(i).SetDeliveryHandler(
        [&got, id](const Delivery& d) { got.emplace_back(id, TagOf(d)); });
  }
  fabric.StartAll();

  s.ScheduleAfter(sim::Duration::Millis(1), [&] { fabric.member(1).CausalSend(Blob("m1")); });
  s.RunFor(sim::Duration::Seconds(2));

  // At member 3 (R): m1 before m2.
  std::vector<std::string> at_r;
  for (const auto& [member, tag] : got) {
    if (member == 3) {
      at_r.push_back(tag);
    }
  }
  ASSERT_EQ(at_r.size(), 2u);
  EXPECT_EQ(at_r[0], "m1");
  EXPECT_EQ(at_r[1], "m2");
}

TEST(CausalMulticastTest, SelfDeliveryIsImmediate) {
  sim::Simulator s(1);
  FabricConfig cfg;
  cfg.num_members = 3;
  GroupFabric fabric(&s, cfg);
  fabric.RecordDeliveries();
  fabric.StartAll();
  s.ScheduleAfter(sim::Duration::Millis(1), [&] { fabric.member(0).CausalSend(Blob("a")); });
  s.RunFor(sim::Duration::Millis(1));
  // At t=1ms the sender itself has delivered; nobody else can have.
  ASSERT_EQ(fabric.records().size(), 1u);
  EXPECT_EQ(fabric.records()[0].at, 1u);
}

TEST(CausalMulticastTest, ChainAcrossThreeMembers) {
  // m1 (member 0) -> m2 (member 1, after m1) -> m3 (member 2, after m2).
  sim::Simulator s(7);
  FabricConfig cfg;
  cfg.num_members = 4;
  GroupFabric fabric(&s, cfg);
  std::vector<std::string> at_last;
  fabric.member(1).SetDeliveryHandler([&](const Delivery& d) {
    if (TagOf(d) == "m1") {
      fabric.member(1).CausalSend(Blob("m2"));
    }
  });
  fabric.member(2).SetDeliveryHandler([&](const Delivery& d) {
    if (TagOf(d) == "m2") {
      fabric.member(2).CausalSend(Blob("m3"));
    }
  });
  fabric.member(3).SetDeliveryHandler([&](const Delivery& d) { at_last.push_back(TagOf(d)); });
  fabric.StartAll();
  s.ScheduleAfter(sim::Duration::Millis(1), [&] { fabric.member(0).CausalSend(Blob("m1")); });
  s.RunFor(sim::Duration::Seconds(2));
  ASSERT_EQ(at_last.size(), 3u);
  EXPECT_EQ(at_last, (std::vector<std::string>{"m1", "m2", "m3"}));
}

// Randomized property: under reactive traffic with jitter and loss, causal
// delivery, FIFO, and (for total mode) agreement always hold.
//
// gtest names each case by printing the parameter's raw bytes. The four bytes
// after `members` used to be padding, so a case's name depended on whatever
// the stack held when the sweep was registered (it shifted with the size of
// the process environment). `name_bytes` makes them explicit; the test never
// reads it, and its values keep the names the sweep's cases are listed under.
struct PropertyParams {
  uint32_t members;
  uint32_t name_bytes;
  double drop;
  OrderingMode mode;
  TotalOrderMode total_mode;
  uint64_t seed;
};
static_assert(sizeof(PropertyParams) == 32, "PropertyParams must have no padding");

class OrderingPropertyTest : public ::testing::TestWithParam<PropertyParams> {};

TEST_P(OrderingPropertyTest, InvariantsHold) {
  const PropertyParams param = GetParam();
  sim::Simulator s(param.seed);
  FabricConfig cfg;
  cfg.num_members = param.members;
  cfg.network.drop_probability = param.drop;
  cfg.group.total_order_mode = param.total_mode;
  GroupFabric fabric(&s, cfg);
  fabric.RecordDeliveries();
  fabric.StartAll();

  // Drive random traffic: each member sends on a random schedule; some sends
  // are reactions to deliveries (creating causal chains).
  for (size_t i = 0; i < fabric.size(); ++i) {
    for (int k = 0; k < 10; ++k) {
      const auto delay = sim::Duration::Millis(static_cast<int64_t>(1 + s.rng().NextBelow(200)));
      s.ScheduleAfter(delay, [&fabric, i, param] {
        fabric.member(i).Send(param.mode, Blob("t"));
      });
    }
  }
  s.RunFor(sim::Duration::Seconds(20));

  const auto& records = fabric.records();
  const size_t expected = fabric.size() * 10 * fabric.size();  // every member delivers every send
  EXPECT_EQ(records.size(), expected);
  EXPECT_EQ(CheckCausalDeliveryInvariant(records), "");
  EXPECT_EQ(CheckFifoInvariant(records), "");
  if (param.mode == OrderingMode::kTotal) {
    EXPECT_EQ(CheckTotalOrderInvariant(records), "");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OrderingPropertyTest,
    ::testing::Values(
        PropertyParams{3, 0, 0.0, OrderingMode::kCausal, TotalOrderMode::kSequencer, 101},
        PropertyParams{5, 0, 0.0, OrderingMode::kCausal, TotalOrderMode::kSequencer, 102},
        PropertyParams{8, 0x5F747365, 0.1, OrderingMode::kCausal, TotalOrderMode::kSequencer, 103},
        PropertyParams{12, 0, 0.2, OrderingMode::kCausal, TotalOrderMode::kSequencer, 104},
        PropertyParams{3, 0x002C3B03, 0.0, OrderingMode::kTotal, TotalOrderMode::kSequencer, 105},
        PropertyParams{6, 0, 0.1, OrderingMode::kTotal, TotalOrderMode::kSequencer, 106},
        PropertyParams{4, 0x00091E03, 0.0, OrderingMode::kTotal, TotalOrderMode::kToken, 107},
        PropertyParams{6, 0, 0.1, OrderingMode::kTotal, TotalOrderMode::kToken, 108}));

// Reactive-chain property: every delivery triggers a reply with small
// probability, generating deep causal chains; invariants must still hold.
TEST(CausalMulticastTest, ReactiveChainsPreserveCausality) {
  sim::Simulator s(555);
  FabricConfig cfg;
  cfg.num_members = 6;
  cfg.network.drop_probability = 0.05;
  GroupFabric fabric(&s, cfg);
  fabric.RecordDeliveries();
  int budget = 200;  // cap total reactive sends
  std::vector<GroupFabric::Record> records;
  for (size_t i = 0; i < fabric.size(); ++i) {
    fabric.member(i).SetDeliveryHandler([&, i](const Delivery& d) {
      records.push_back({GroupFabric::IdOf(i), d});
      if (budget > 0 && s.rng().NextBool(0.3)) {
        --budget;
        fabric.member(i).CausalSend(Blob("r"));
      }
    });
  }
  fabric.StartAll();
  for (int k = 0; k < 10; ++k) {
    s.ScheduleAfter(sim::Duration::Millis(1 + k), [&fabric, k] {
      fabric.member(k % 6).CausalSend(Blob("seed"));
    });
  }
  s.RunFor(sim::Duration::Seconds(30));
  EXPECT_EQ(CheckCausalDeliveryInvariant(records), "");
  EXPECT_EQ(CheckFifoInvariant(records), "");
}

// --- total order -------------------------------------------------------------

TEST(TotalOrderTest, ConcurrentSendsAgreeEverywhere) {
  sim::Simulator s(11);
  FabricConfig cfg;
  cfg.num_members = 5;
  GroupFabric fabric(&s, cfg);
  fabric.RecordDeliveries();
  fabric.StartAll();
  // All five members send "simultaneously" — concurrent messages, which
  // causal multicast would not order but abcast must.
  for (size_t i = 0; i < 5; ++i) {
    s.ScheduleAfter(sim::Duration::Millis(1), [&fabric, i] {
      fabric.member(i).TotalSend(Blob("c" + std::to_string(i)));
    });
  }
  s.RunFor(sim::Duration::Seconds(5));
  const auto& records = fabric.records();
  EXPECT_EQ(records.size(), 25u);
  EXPECT_EQ(CheckTotalOrderInvariant(records), "");
  // Identical delivery sequence at each member.
  auto reference = fabric.DeliveryOrderAt(0);
  for (size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(fabric.DeliveryOrderAt(i), reference) << "member " << i;
  }
}

TEST(TotalOrderTest, TokenModeAgreesEverywhere) {
  sim::Simulator s(13);
  FabricConfig cfg;
  cfg.num_members = 4;
  cfg.group.total_order_mode = TotalOrderMode::kToken;
  GroupFabric fabric(&s, cfg);
  fabric.RecordDeliveries();
  fabric.StartAll();
  for (size_t i = 0; i < 4; ++i) {
    for (int k = 0; k < 5; ++k) {
      s.ScheduleAfter(sim::Duration::Millis(1 + 7 * k), [&fabric, i] {
        fabric.member(i).TotalSend(Blob("x"));
      });
    }
  }
  s.RunFor(sim::Duration::Seconds(10));
  EXPECT_EQ(fabric.records().size(), 4u * 5u * 4u);
  EXPECT_EQ(CheckTotalOrderInvariant(fabric.records()), "");
  auto reference = fabric.DeliveryOrderAt(0);
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(fabric.DeliveryOrderAt(i), reference);
  }
}

TEST(TotalOrderTest, TotalIsAlsoCausal) {
  sim::Simulator s(17);
  FabricConfig cfg;
  cfg.num_members = 4;
  GroupFabric fabric(&s, cfg);
  std::vector<GroupFabric::Record> records;
  for (size_t i = 0; i < fabric.size(); ++i) {
    fabric.member(i).SetDeliveryHandler([&records, i](const Delivery& d) {
      records.push_back({GroupFabric::IdOf(i), d});
    });
  }
  // Member 1 reacts to member 0's message.
  auto base = fabric.member(1).stats().app_delivered;
  (void)base;
  fabric.member(1).SetDeliveryHandler([&](const Delivery& d) {
    records.push_back({2, d});
    if (TagOf(d) == "first") {
      fabric.member(1).TotalSend(Blob("second"));
    }
  });
  fabric.StartAll();
  s.ScheduleAfter(sim::Duration::Millis(1), [&] { fabric.member(0).TotalSend(Blob("first")); });
  s.RunFor(sim::Duration::Seconds(5));
  EXPECT_EQ(CheckCausalDeliveryInvariant(records), "");
  EXPECT_EQ(CheckTotalOrderInvariant(records), "");
  // "first" precedes "second" at every member.
  for (size_t i = 0; i < 4; ++i) {
    std::vector<std::string> tags;
    for (const auto& r : records) {
      if (r.at == GroupFabric::IdOf(i)) {
        tags.push_back(TagOf(r.delivery));
      }
    }
    ASSERT_EQ(tags.size(), 2u) << "member " << i;
    EXPECT_EQ(tags[0], "first");
    EXPECT_EQ(tags[1], "second");
  }
}

// --- unordered mode ----------------------------------------------------------

TEST(UnorderedTest, DeliversWithoutGuarantees) {
  sim::Simulator s(19);
  FabricConfig cfg;
  cfg.num_members = 3;
  GroupFabric fabric(&s, cfg);
  fabric.RecordDeliveries();
  fabric.StartAll();
  for (int k = 0; k < 20; ++k) {
    s.ScheduleAfter(sim::Duration::Millis(1), [&] {
      fabric.member(0).Send(OrderingMode::kUnordered, Blob("u"));
    });
  }
  s.RunFor(sim::Duration::Seconds(2));
  EXPECT_EQ(fabric.records().size(), 60u);
  // Unordered messages are not buffered for stability.
  EXPECT_EQ(fabric.member(0).buffered_messages(), 0u);
}

// --- stability / buffering ----------------------------------------------------

TEST(StabilityTest, BuffersDrainOnceStable) {
  sim::Simulator s(23);
  FabricConfig cfg;
  cfg.num_members = 4;
  cfg.group.ack_gossip_interval = sim::Duration::Millis(20);
  GroupFabric fabric(&s, cfg);
  fabric.RecordDeliveries();
  fabric.StartAll();
  for (int k = 0; k < 10; ++k) {
    s.ScheduleAfter(sim::Duration::Millis(1 + k), [&fabric, k] {
      fabric.member(k % 4).CausalSend(Blob("m"));
    });
  }
  s.RunFor(sim::Duration::Seconds(5));
  // All messages delivered everywhere and gossip has run: buffers empty.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(fabric.member(i).buffered_messages(), 0u) << "member " << i;
    EXPECT_GT(fabric.member(i).peak_buffered_messages(), 0u);
  }
}

TEST(StabilityTest, BuffersGrowWhileAMemberLags) {
  sim::Simulator s(29);
  FabricConfig cfg;
  cfg.num_members = 3;
  GroupFabric fabric(&s, cfg);
  fabric.RecordDeliveries();
  fabric.StartAll();
  // Member 2 is unreachable (down): messages cannot become stable.
  fabric.network().SetNodeUp(GroupFabric::IdOf(2), false);
  for (int k = 0; k < 20; ++k) {
    s.ScheduleAfter(sim::Duration::Millis(1 + k), [&fabric] {
      fabric.member(0).CausalSend(Blob("m"));
    });
  }
  s.RunFor(sim::Duration::Seconds(2));
  EXPECT_EQ(fabric.member(0).buffered_messages(), 20u);
  EXPECT_EQ(fabric.member(1).buffered_messages(), 20u);
}

TEST(StabilityTest, TrackerMinimumSemantics) {
  StabilityTracker tracker;
  tracker.SetMembers({1, 2, 3});
  auto msg = std::make_shared<GroupData>(1, MessageId{1, 1}, OrderingMode::kCausal, VectorClock{},
                                         Blob("x"), sim::TimePoint::Zero());
  tracker.AddToBuffer(msg);
  EXPECT_EQ(tracker.buffered_count(), 1u);
  // Only two of three members reported: nothing stable.
  tracker.UpdateMemberVector(1, {{1, 1}});
  tracker.UpdateMemberVector(2, {{1, 1}});
  tracker.Prune();
  EXPECT_EQ(tracker.buffered_count(), 1u);
  tracker.UpdateMemberVector(3, {{1, 1}});
  tracker.Prune();
  EXPECT_EQ(tracker.buffered_count(), 0u);
}

TEST(StabilityTest, RemovingMemberUnblocksStability) {
  StabilityTracker tracker;
  tracker.SetMembers({1, 2, 3});
  auto msg = std::make_shared<GroupData>(1, MessageId{1, 1}, OrderingMode::kCausal, VectorClock{},
                                         Blob("x"), sim::TimePoint::Zero());
  tracker.AddToBuffer(msg);
  tracker.UpdateMemberVector(1, {{1, 1}});
  tracker.UpdateMemberVector(2, {{1, 1}});
  tracker.Prune();
  EXPECT_EQ(tracker.buffered_count(), 1u);  // member 3 silent
  tracker.SetMembers({1, 2});               // member 3 failed
  tracker.Prune();
  EXPECT_EQ(tracker.buffered_count(), 0u);
}

// --- footnote-4 piggyback variant ---------------------------------------------

TEST(PiggybackTest, DeliversCausallyAndCarriesPredecessors) {
  sim::Simulator s(31);
  FabricConfig cfg;
  cfg.num_members = 4;
  cfg.group.piggyback_causal = true;
  GroupFabric fabric(&s, cfg);
  fabric.RecordDeliveries();
  fabric.StartAll();
  for (int k = 0; k < 12; ++k) {
    s.ScheduleAfter(sim::Duration::Millis(1 + 3 * k), [&fabric, k] {
      fabric.member(k % 4).CausalSend(Blob("m"));
    });
  }
  s.RunFor(sim::Duration::Seconds(5));
  EXPECT_EQ(fabric.records().size(), 12u * 4u);
  EXPECT_EQ(CheckCausalDeliveryInvariant(fabric.records()), "");
  uint64_t carried = 0;
  for (size_t i = 0; i < 4; ++i) {
    carried += fabric.member(i).stats().piggyback_msgs_carried;
  }
  EXPECT_GT(carried, 0u) << "the variant should actually piggyback something";
}

// --- stats -------------------------------------------------------------------

TEST(StatsTest, DelayedDeliveriesCounted) {
  sim::Simulator s(37);
  FabricConfig cfg;
  cfg.num_members = 3;
  // Strong jitter: reordering between two causally related messages is
  // nearly certain across many trials.
  cfg.latency_lo = sim::Duration::Millis(1);
  cfg.latency_hi = sim::Duration::Millis(50);
  GroupFabric fabric(&s, cfg);
  fabric.member(1).SetDeliveryHandler([&](const Delivery& d) {
    if (TagOf(d) == "a") {
      fabric.member(1).CausalSend(Blob("b"));
    }
  });
  fabric.StartAll();
  for (int k = 0; k < 30; ++k) {
    s.ScheduleAfter(sim::Duration::Millis(1 + 100 * k), [&fabric] {
      fabric.member(0).CausalSend(Blob("a"));
    });
  }
  s.RunFor(sim::Duration::Seconds(10));
  // Member 2 should have seen at least one delayed (held-back) delivery.
  EXPECT_GT(fabric.member(2).stats().delayed_deliveries, 0u);
  EXPECT_GT(fabric.member(2).stats().total_causal_delay, sim::Duration::Zero());
}

TEST(StatsTest, HeaderBytesAccounted) {
  sim::Simulator s(41);
  FabricConfig cfg;
  cfg.num_members = 5;
  GroupFabric fabric(&s, cfg);
  fabric.StartAll();
  s.ScheduleAfter(sim::Duration::Millis(1), [&] { fabric.member(0).CausalSend(Blob("m")); });
  s.RunFor(sim::Duration::Seconds(1));
  // One causal send to 4 peers, each copy carrying VT + acks headers.
  EXPECT_GT(fabric.member(0).stats().ordering_header_bytes, 4u * VectorClock::kEntryBytes);
}

// Observability: with the flag on, every wait point a message crosses is
// attributed in PipelineStats and the span recorder sees the lifecycle; with
// the flag off (default) the same run records nothing.
class ObservabilityTest : public ::testing::TestWithParam<CausalBufferKind> {};

TEST_P(ObservabilityTest, PipelineStatsAttributeHolds) {
  sim::Simulator s(77);
  FabricConfig cfg;
  cfg.num_members = 4;
  cfg.group.causal_buffer = GetParam();
  cfg.group.observability = true;
  GroupFabric fabric(&s, cfg);
  fabric.StartAll();
  s.spans().set_enabled(true);
  for (int k = 0; k < 20; ++k) {
    s.ScheduleAfter(sim::Duration::Millis(1 + 5 * k), [&fabric, k] {
      fabric.member(static_cast<size_t>(k) % 4).Send(
          k % 3 == 0 ? OrderingMode::kTotal : OrderingMode::kCausal, Blob("m"));
    });
  }
  s.RunFor(sim::Duration::Seconds(5));

  PipelineStats merged;
  for (size_t i = 0; i < fabric.size(); ++i) {
    merged.Merge(fabric.member(i).pipeline_stats());
  }
  // Every ordered message enters the causal layer and the retention buffer
  // at every member; at quiescence everything has been released again.
  EXPECT_GT(merged.reason(HoldReason::kCausalGap).entered, 0u);
  EXPECT_GT(merged.reason(HoldReason::kStability).entered, 0u);
  EXPECT_GT(merged.reason(HoldReason::kOrderAssign).entered, 0u);
  EXPECT_EQ(merged.TotalEntered(), merged.TotalReleased());
  EXPECT_GT(merged.TotalHold(), sim::Duration::Zero());
  EXPECT_FALSE(merged.Summary().empty());

  // The span recorder saw sends, layer entries, and stability releases.
  EXPECT_GT(s.spans().total_recorded(), 0u);
  bool saw_stable = false;
  for (const auto& record : s.spans().records()) {
    if (record.event == sim::SpanEvent::kStable) {
      saw_stable = true;
      break;
    }
  }
  EXPECT_TRUE(saw_stable);

  // Labeled export lands under the member's node label.
  merged.ExportTo(s.metrics(), "all");
  const sim::Counter* entered = s.metrics().FindCounter(
      sim::MetricsRegistry::LabeledName("pipeline_entered", {{"layer", "causal"},
                                                             {"node", "all"},
                                                             {"reason", "causal-gap"}}));
  ASSERT_NE(entered, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(entered->value()),
            merged.reason(HoldReason::kCausalGap).entered);
}

TEST_P(ObservabilityTest, DisabledByDefaultRecordsNothing) {
  sim::Simulator s(77);
  FabricConfig cfg;
  cfg.num_members = 4;
  cfg.group.causal_buffer = GetParam();
  GroupFabric fabric(&s, cfg);
  fabric.StartAll();
  for (int k = 0; k < 20; ++k) {
    s.ScheduleAfter(sim::Duration::Millis(1 + 5 * k), [&fabric, k] {
      fabric.member(static_cast<size_t>(k) % 4).Send(
          k % 3 == 0 ? OrderingMode::kTotal : OrderingMode::kCausal, Blob("m"));
    });
  }
  s.RunFor(sim::Duration::Seconds(5));
  for (size_t i = 0; i < fabric.size(); ++i) {
    EXPECT_EQ(fabric.member(i).pipeline_stats().TotalEntered(), 0u);
  }
  EXPECT_EQ(s.spans().total_recorded(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BufferStrategies, ObservabilityTest,
                         ::testing::Values(CausalBufferKind::kFullVector,
                                           CausalBufferKind::kHybrid));

}  // namespace
}  // namespace catocs
