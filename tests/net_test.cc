// Unit tests for the network model, reliable transport (including across
// partitions and node restarts), and clock sync.

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/net/clock.h"
#include "src/net/network.h"
#include "src/net/transport.h"
#include "src/sim/simulator.h"

namespace net {
namespace {

constexpr uint32_t kPort = 7;

std::unique_ptr<Network> MakeNetwork(sim::Simulator* s, NetworkConfig cfg = {}) {
  return std::make_unique<Network>(
      s, std::make_unique<UniformLatency>(sim::Duration::Millis(1), sim::Duration::Millis(5)),
      cfg);
}

PayloadPtr Blob(const std::string& tag, size_t size = 100) {
  return std::make_shared<BlobPayload>(tag, size);
}

TEST(NetworkTest, DeliversToRegisteredHandler) {
  sim::Simulator s(1);
  auto network = MakeNetwork(&s);
  std::vector<std::string> got;
  network->Attach(1);
  network->RegisterHandler(2, kPort, [&](const Packet& p) { got.push_back(p.payload->Describe()); });
  network->Send(1, 2, kPort, Blob("hello"));
  s.Run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "hello");
}

TEST(NetworkTest, DelayWithinModelBounds) {
  sim::Simulator s(2);
  auto network = MakeNetwork(&s);
  sim::TimePoint delivered_at;
  network->Attach(1);
  network->RegisterHandler(2, kPort, [&](const Packet&) { delivered_at = s.now(); });
  network->Send(1, 2, kPort, Blob("x"));
  s.Run();
  EXPECT_GE(delivered_at, sim::TimePoint::Zero() + sim::Duration::Millis(1));
  EXPECT_LE(delivered_at, sim::TimePoint::Zero() + sim::Duration::Millis(5));
}

TEST(NetworkTest, DropsWithProbabilityOne) {
  sim::Simulator s(3);
  NetworkConfig cfg;
  cfg.drop_probability = 1.0;
  auto network = MakeNetwork(&s, cfg);
  int got = 0;
  network->Attach(1);
  network->RegisterHandler(2, kPort, [&](const Packet&) { ++got; });
  for (int i = 0; i < 10; ++i) {
    network->Send(1, 2, kPort, Blob("x"));
  }
  s.Run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(network->packets_dropped(), 10u);
}

TEST(NetworkTest, DuplicationDeliversTwice) {
  sim::Simulator s(4);
  NetworkConfig cfg;
  cfg.duplicate_probability = 1.0;
  auto network = MakeNetwork(&s, cfg);
  int got = 0;
  network->Attach(1);
  network->RegisterHandler(2, kPort, [&](const Packet&) { ++got; });
  network->Send(1, 2, kPort, Blob("x"));
  s.Run();
  EXPECT_EQ(got, 2);
}

TEST(NetworkTest, DownNodeCannotSendOrReceive) {
  sim::Simulator s(5);
  auto network = MakeNetwork(&s);
  int got = 0;
  network->Attach(1);
  network->RegisterHandler(2, kPort, [&](const Packet&) { ++got; });
  network->SetNodeUp(2, false);
  network->Send(1, 2, kPort, Blob("x"));
  s.Run();
  EXPECT_EQ(got, 0);
  network->SetNodeUp(1, false);
  EXPECT_FALSE(network->Send(1, 2, kPort, Blob("x")));
}

TEST(NetworkTest, PartitionBlocksAcrossComponents) {
  sim::Simulator s(6);
  auto network = MakeNetwork(&s);
  int got12 = 0;
  int got13 = 0;
  network->Attach(1);
  network->RegisterHandler(2, kPort, [&](const Packet&) { ++got12; });
  network->RegisterHandler(3, kPort, [&](const Packet&) { ++got13; });
  network->Partition({{1, 2}, {3}});
  network->Send(1, 2, kPort, Blob("x"));
  network->Send(1, 3, kPort, Blob("x"));
  s.Run();
  EXPECT_EQ(got12, 1);
  EXPECT_EQ(got13, 0);
  network->HealPartition();
  network->Send(1, 3, kPort, Blob("x"));
  s.Run();
  EXPECT_EQ(got13, 1);
}

TEST(NetworkTest, PartitionDropsPacketsAlreadyInFlight) {
  sim::Simulator s(30);
  auto network = MakeNetwork(&s);
  int got = 0;
  network->Attach(1);
  network->RegisterHandler(2, kPort, [&](const Packet&) { ++got; });
  EXPECT_TRUE(network->Send(1, 2, kPort, Blob("x")));
  // The partition forms while the packet is still in flight (earliest
  // delivery is 1ms away): the cable is cut under it.
  network->Partition({{1}, {2}});
  s.Run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(network->packets_dropped(), 1u);
  EXPECT_EQ(network->packets_delivered(), 0u);
}

TEST(NetworkTest, HealBeforeDeliveryLetsInFlightPacketThrough) {
  sim::Simulator s(31);
  auto network = MakeNetwork(&s);
  int got = 0;
  network->Attach(1);
  network->RegisterHandler(2, kPort, [&](const Packet&) { ++got; });
  network->Send(1, 2, kPort, Blob("x"));
  network->Partition({{1}, {2}});
  // Healed before the earliest possible delivery instant: the transient
  // partition is invisible to the in-flight packet.
  s.ScheduleAfter(sim::Duration::Micros(500), [&] { network->HealPartition(); });
  s.Run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(network->packets_dropped(), 0u);
}

TEST(NetworkTest, HealDoesNotResurrectPacketSentWhilePartitioned) {
  sim::Simulator s(32);
  auto network = MakeNetwork(&s);
  int got = 0;
  network->Attach(1);
  network->RegisterHandler(2, kPort, [&](const Packet&) { ++got; });
  network->Partition({{1}, {2}});
  // Dropped at send time (the sender can't tell: Send still returns true)...
  EXPECT_TRUE(network->Send(1, 2, kPort, Blob("x")));
  EXPECT_EQ(network->packets_dropped(), 1u);
  // ...so healing before the would-have-been delivery resurrects nothing.
  s.ScheduleAfter(sim::Duration::Micros(100), [&] { network->HealPartition(); });
  s.Run();
  EXPECT_EQ(got, 0);
}

TEST(NetworkTest, DuplicateAccountingCountsOneSendTwoDeliveries) {
  sim::Simulator s(33);
  NetworkConfig cfg;
  cfg.duplicate_probability = 1.0;
  auto network = MakeNetwork(&s, cfg);
  int got = 0;
  network->Attach(1);
  network->RegisterHandler(2, kPort, [&](const Packet&) { ++got; });
  for (int i = 0; i < 10; ++i) {
    network->Send(1, 2, kPort, Blob("x"));
  }
  s.Run();
  EXPECT_EQ(got, 20);
  EXPECT_EQ(network->packets_sent(), 10u);
  EXPECT_EQ(network->packets_delivered(), 20u);
  EXPECT_EQ(network->packets_dropped(), 0u);
}

TEST(NetworkTest, DuplicatesSharePacketIdAndSetterTakesEffectMidRun) {
  sim::Simulator s(34);
  auto network = MakeNetwork(&s);
  std::vector<uint64_t> ids;
  network->Attach(1);
  network->RegisterHandler(2, kPort, [&](const Packet& p) { ids.push_back(p.packet_id); });
  network->Send(1, 2, kPort, Blob("x"));
  s.Run();
  ASSERT_EQ(ids.size(), 1u);
  network->set_duplicate_probability(1.0);
  network->Send(1, 2, kPort, Blob("y"));
  s.Run();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[1], ids[2]) << "duplicate copies share one transmission id";
  EXPECT_NE(ids[0], ids[1]);
}

TEST(NetworkTest, DropAccountingTracksEverySend) {
  sim::Simulator s(35);
  auto network = MakeNetwork(&s);
  int got = 0;
  network->Attach(1);
  network->RegisterHandler(2, kPort, [&](const Packet&) { ++got; });
  network->set_drop_probability(1.0);
  for (int i = 0; i < 7; ++i) {
    network->Send(1, 2, kPort, Blob("x"));
  }
  EXPECT_EQ(network->packets_sent(), 7u);
  EXPECT_EQ(network->packets_dropped(), 7u) << "p=1 drops are counted at send time";
  network->set_drop_probability(0.0);
  network->Send(1, 2, kPort, Blob("x"));
  s.Run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(network->packets_dropped(), 7u);
  EXPECT_EQ(network->packets_delivered(), 1u);
}

TEST(NetworkTest, LatencySpikeScalesSampledDelays) {
  sim::Simulator s(36);
  auto network = MakeNetwork(&s);  // base delay uniform in [1ms, 5ms]
  sim::TimePoint delivered_at;
  network->Attach(1);
  network->RegisterHandler(2, kPort, [&](const Packet&) { delivered_at = s.now(); });
  network->set_latency_scale(10.0);
  network->Send(1, 2, kPort, Blob("x"));
  s.Run();
  EXPECT_GE(delivered_at - sim::TimePoint::Zero(), sim::Duration::Millis(10));
  EXPECT_LE(delivered_at - sim::TimePoint::Zero(), sim::Duration::Millis(50));
}

TEST(NetworkTest, ByteAccounting) {
  sim::Simulator s(7);
  auto network = MakeNetwork(&s);
  network->Attach(1);
  network->Attach(2);
  network->Send(1, 2, kPort, Blob("x", 100), /*header_bytes=*/10);
  EXPECT_EQ(network->payload_bytes_sent(), 100u);
  EXPECT_EQ(network->header_bytes_sent(), 10u + 28u);  // +base header
  EXPECT_EQ(network->bytes_sent(), 138u);
}

TEST(NetworkTest, MulticastSkipsSelf) {
  sim::Simulator s(8);
  auto network = MakeNetwork(&s);
  int got = 0;
  for (NodeId n = 1; n <= 4; ++n) {
    network->RegisterHandler(n, kPort, [&](const Packet&) { ++got; });
  }
  network->Multicast(1, {1, 2, 3, 4}, kPort, Blob("x"));
  s.Run();
  EXPECT_EQ(got, 3);
}

// --- transport -------------------------------------------------------------

struct TransportPair {
  std::unique_ptr<Network> network;
  std::unique_ptr<Transport> a;
  std::unique_ptr<Transport> b;
};

TransportPair MakePair(sim::Simulator* s, NetworkConfig cfg = {}, TransportConfig tcfg = {}) {
  TransportPair pair;
  pair.network = MakeNetwork(s, cfg);
  pair.a = std::make_unique<Transport>(s, pair.network.get(), 1, tcfg);
  pair.b = std::make_unique<Transport>(s, pair.network.get(), 2, tcfg);
  return pair;
}

TEST(TransportTest, ReliableDeliversInFifoOrderDespiteReordering) {
  sim::Simulator s(9);
  auto pair = MakePair(&s);
  std::vector<std::string> got;
  pair.b->RegisterReceiver(kPort, [&](NodeId, uint32_t, const PayloadPtr& p) {
    got.push_back(p->Describe());
  });
  for (int i = 0; i < 50; ++i) {
    pair.a->SendReliable(2, kPort, Blob("m" + std::to_string(i)));
  }
  s.Run();
  ASSERT_EQ(got.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(got[i], "m" + std::to_string(i));
  }
}

TEST(TransportTest, ReliableSurvivesHeavyLoss) {
  sim::Simulator s(10);
  NetworkConfig cfg;
  cfg.drop_probability = 0.4;
  auto pair = MakePair(&s, cfg);
  std::vector<std::string> got;
  pair.b->RegisterReceiver(kPort, [&](NodeId, uint32_t, const PayloadPtr& p) {
    got.push_back(p->Describe());
  });
  for (int i = 0; i < 100; ++i) {
    pair.a->SendReliable(2, kPort, Blob("m" + std::to_string(i)));
  }
  s.RunFor(sim::Duration::Seconds(30));
  ASSERT_EQ(got.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(got[i], "m" + std::to_string(i));
  }
  EXPECT_GT(pair.a->retransmissions(), 0u);
}

TEST(TransportTest, ReliableSuppressesDuplicates) {
  sim::Simulator s(11);
  NetworkConfig cfg;
  cfg.duplicate_probability = 0.5;
  auto pair = MakePair(&s, cfg);
  int got = 0;
  pair.b->RegisterReceiver(kPort, [&](NodeId, uint32_t, const PayloadPtr&) { ++got; });
  for (int i = 0; i < 50; ++i) {
    pair.a->SendReliable(2, kPort, Blob("x"));
  }
  s.RunFor(sim::Duration::Seconds(10));
  EXPECT_EQ(got, 50);
}

TEST(TransportTest, UnreliableMayReorder) {
  sim::Simulator s(12);
  auto pair = MakePair(&s);
  std::vector<std::string> got;
  pair.b->RegisterReceiver(kPort, [&](NodeId, uint32_t, const PayloadPtr& p) {
    got.push_back(p->Describe());
  });
  for (int i = 0; i < 200; ++i) {
    pair.a->SendUnreliable(2, kPort, Blob("m" + std::to_string(i)));
  }
  s.Run();
  ASSERT_EQ(got.size(), 200u);
  bool reordered = false;
  for (size_t i = 1; i < got.size(); ++i) {
    if (got[i] < got[i - 1]) {
      reordered = true;
    }
  }
  EXPECT_TRUE(reordered) << "with 1-5ms jitter, 200 datagrams should reorder";
}

TEST(TransportTest, GivesUpAfterMaxRetries) {
  sim::Simulator s(13);
  TransportConfig tcfg;
  tcfg.max_retries = 3;
  auto pair = MakePair(&s, {}, tcfg);
  pair.network->SetNodeUp(2, false);
  pair.a->SendReliable(2, kPort, Blob("x"));
  s.RunFor(sim::Duration::Seconds(5));
  // All events quiesce: the retransmit timer must have given up.
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_LE(pair.a->retransmissions(), 3u);
}

TEST(TransportTest, GiveUpNotifiesHandlerAndDropsWholeQueue) {
  sim::Simulator s(17);
  TransportConfig tcfg;
  tcfg.max_retries = 3;
  auto pair = MakePair(&s, {}, tcfg);
  std::vector<NodeId> failed;
  pair.a->SetFailureHandler([&](NodeId peer) { failed.push_back(peer); });
  int got = 0;
  pair.b->RegisterReceiver(kPort, [&](NodeId, uint32_t, const PayloadPtr&) { ++got; });
  pair.network->SetNodeUp(2, false);
  for (int i = 0; i < 5; ++i) {
    pair.a->SendReliable(2, kPort, Blob("m" + std::to_string(i)));
  }
  s.RunFor(sim::Duration::Seconds(5));
  // One ordered failure for the peer, not one per queued segment.
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], NodeId{2});
  EXPECT_EQ(pair.a->peer_failures(), 1u);
  EXPECT_EQ(s.pending_events(), 0u) << "retransmit timer must quiesce after give-up";

  // The old stream is dead: a post-failure send must never let the receiver
  // observe data past the gap the dropped queue left.
  pair.network->SetNodeUp(2, true);
  pair.a->SendReliable(2, kPort, Blob("after-gap"));
  s.RunFor(sim::Duration::Seconds(5));
  EXPECT_EQ(got, 0);
  // An explicit reset (what crash handling does) starts a clean stream.
  pair.a->ResetPeerState();
  pair.b->ResetPeerState();
  pair.a->SendReliable(2, kPort, Blob("fresh"));
  s.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(got, 1);
}

// With the peer down, an unacked segment goes out again every
// retransmit_timeout, as seen by the 5 ms retransmit scan: a fixed interval
// that neither stretches with the retry count nor varies per segment.
TEST(TransportTest, RetransmitsOnFixedSchedule) {
  {
    sim::Simulator s(18);
    auto pair = MakePair(&s);  // default 20 ms timeout
    pair.network->SetNodeUp(2, false);
    pair.a->SendReliable(2, kPort, Blob("x"));
    s.RunFor(sim::Duration::Millis(100));
    EXPECT_EQ(pair.a->retransmissions(), 5u);
    s.RunFor(sim::Duration::Millis(200));
    EXPECT_EQ(pair.a->retransmissions(), 15u);
  }
  {
    sim::Simulator s(18);
    TransportConfig tcfg;
    tcfg.retransmit_timeout = sim::Duration::Millis(150);
    auto pair = MakePair(&s, {}, tcfg);
    pair.network->SetNodeUp(2, false);
    pair.a->SendReliable(2, kPort, Blob("x"));
    s.RunFor(sim::Duration::Millis(600));
    EXPECT_EQ(pair.a->retransmissions(), 4u);
  }
}

TEST(TransportTest, SeparatePortsDemultiplex) {
  sim::Simulator s(14);
  auto pair = MakePair(&s);
  int on7 = 0;
  int on8 = 0;
  pair.b->RegisterReceiver(7, [&](NodeId, uint32_t, const PayloadPtr&) { ++on7; });
  pair.b->RegisterReceiver(8, [&](NodeId, uint32_t, const PayloadPtr&) { ++on8; });
  pair.a->SendReliable(2, 7, Blob("x"));
  pair.a->SendReliable(2, 8, Blob("x"));
  pair.a->SendReliable(2, 8, Blob("x"));
  s.Run();
  EXPECT_EQ(on7, 1);
  EXPECT_EQ(on8, 2);
}

// Receive state is looked up by source id through a sparse index: senders
// with scattered ids, first heard in an order unrelated to their ids, each
// get their own FIFO stream, and a reset forgets every one of them.
TEST(TransportTest, ReceiveStateIsPerSourceForScatteredIds) {
  sim::Simulator s(15);
  auto network = MakeNetwork(&s);
  Transport receiver(&s, network.get(), 2);
  std::vector<std::unique_ptr<Transport>> senders;
  for (NodeId id : {4000u, 1u, 300u}) {
    senders.push_back(std::make_unique<Transport>(&s, network.get(), id));
  }
  std::map<NodeId, std::vector<std::string>> got;
  receiver.RegisterReceiver(kPort, [&](NodeId src, uint32_t, const PayloadPtr& p) {
    got[src].push_back(p->Describe());
  });
  for (int i = 0; i < 20; ++i) {
    for (auto& sender : senders) {
      sender->SendReliable(2, kPort, Blob(std::to_string(sender->node()) + "/" + std::to_string(i)));
    }
  }
  s.Run();
  ASSERT_EQ(got.size(), 3u);
  for (const auto& [src, tags] : got) {
    ASSERT_EQ(tags.size(), 20u) << "from " << src;
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(tags[i], std::to_string(src) + "/" + std::to_string(i));
    }
  }

  // After a reset on both ends, seq 1 from a known source is new data again,
  // and a source heard for the first time after the reset gets a fresh record.
  receiver.ResetPeerState();
  senders[2]->ResetPeerState();
  Transport late(&s, network.get(), 70);
  got.clear();
  senders[2]->SendReliable(2, kPort, Blob("again"));
  late.SendReliable(2, kPort, Blob("late"));
  s.Run();
  EXPECT_EQ(got, (std::map<NodeId, std::vector<std::string>>{{70, {"late"}}, {300, {"again"}}}));
}

// --- transport occupancy -------------------------------------------------------

// Hands out scripted delays, one per packet in send order (1 ms once the
// script runs out), so a test places every segment and ack exactly.
class ScriptedLatency : public LatencyModel {
 public:
  explicit ScriptedLatency(std::deque<int64_t> millis) : millis_(std::move(millis)) {}
  sim::Duration SampleDelay(NodeId, NodeId, sim::Rng&) override {
    if (millis_.empty()) {
      return sim::Duration::Millis(1);
    }
    const int64_t next = millis_.front();
    millis_.pop_front();
    return sim::Duration::Millis(next);
  }

 private:
  std::deque<int64_t> millis_;
};

TransportPair MakeScriptedPair(sim::Simulator* s, std::deque<int64_t> millis,
                               TransportConfig tcfg = {}) {
  TransportPair pair;
  pair.network = std::make_unique<Network>(s, std::make_unique<ScriptedLatency>(std::move(millis)));
  pair.a = std::make_unique<Transport>(s, pair.network.get(), 1, tcfg);
  pair.b = std::make_unique<Transport>(s, pair.network.get(), 2, tcfg);
  return pair;
}

sim::TimePoint AtMs(int64_t ms) { return sim::TimePoint::Zero() + sim::Duration::Millis(ms); }

constexpr size_t kSegmentBytes = 100 + kDataHeaderBytes;  // Blob() payload + header

// Three segments: m1 arrives first (ack 1 discharges only m1), m3 arrives
// twice ahead of m2 (each copy re-acks 1: one duplicate ack while m2 and m3
// are queued, one stale ack that lands after ack 3, while m4 is queued),
// then m2 fills the gap and ack 3 discharges the rest.
TEST(TransportOccupancyTest, AcksDischargeExactlyTheAckedPrefix) {
  sim::Simulator s(41);
  // Delays in send order: m1, m2, m3, m3's duplicate; b's acks for m1, m3,
  // m3's duplicate (the stale one), m2; then m4.
  auto pair = MakeScriptedPair(&s, {1, 8, 2, 3, 1, 1, 9, 1, 15});
  std::vector<std::string> got;
  pair.b->RegisterReceiver(kPort, [&](NodeId, uint32_t, const PayloadPtr& p) {
    got.push_back(p->Describe());
  });
  pair.a->SendReliable(2, kPort, Blob("m1"));
  pair.a->SendReliable(2, kPort, Blob("m2"));
  pair.network->set_duplicate_probability(1.0);
  pair.a->SendReliable(2, kPort, Blob("m3"));
  pair.network->set_duplicate_probability(0.0);
  EXPECT_EQ(pair.a->queued_segments(), 3u);
  EXPECT_EQ(pair.a->queued_bytes(), 3 * kSegmentBytes);

  s.RunUntil(AtMs(4));  // ack 1 at 2 ms, its duplicate at 3 ms
  EXPECT_EQ(got, (std::vector<std::string>{"m1"}));
  EXPECT_EQ(pair.a->queued_segments(), 2u) << "only the acked prefix is discharged";
  EXPECT_EQ(pair.a->queued_bytes(), 2 * kSegmentBytes);

  s.RunUntil(AtMs(10));  // m2 at 8 ms releases m3; ack 3 at 9 ms
  EXPECT_EQ(got, (std::vector<std::string>{"m1", "m2", "m3"}));
  EXPECT_EQ(pair.a->queued_segments(), 0u);
  EXPECT_EQ(pair.a->queued_bytes(), 0u);

  pair.a->SendReliable(2, kPort, Blob("m4"));  // arrives at 25 ms
  s.RunUntil(AtMs(13));  // the stale ack 1 lands at 12 ms
  EXPECT_EQ(pair.a->queued_segments(), 1u) << "a stale ack must not discharge m4";
  EXPECT_EQ(pair.a->queued_bytes(), kSegmentBytes);

  s.Run();
  EXPECT_EQ(got, (std::vector<std::string>{"m1", "m2", "m3", "m4"}));
  EXPECT_EQ(pair.a->queued_segments(), 0u);
  EXPECT_EQ(pair.a->queued_bytes(), 0u);
  EXPECT_EQ(pair.a->peak_queued_segments(), 3u);
  EXPECT_EQ(pair.a->retransmissions(), 0u);
  EXPECT_EQ(s.pending_events(), 0u) << "the retransmit scan stops once nothing is queued";
}

// Segments 2 and 3 overtake segment 1: both wait in the reorder buffer, and
// segment 1's in-order arrival releases all three in FIFO order.
TEST(TransportOccupancyTest, GapThenFillDeliversInFifoOrder) {
  sim::Simulator s(42);
  auto pair = MakeScriptedPair(&s, {10, 3, 2});
  std::vector<std::string> got;
  pair.b->RegisterReceiver(kPort, [&](NodeId, uint32_t, const PayloadPtr& p) {
    got.push_back(p->Describe());
  });
  pair.a->SendReliable(2, kPort, Blob("m1"));
  pair.a->SendReliable(2, kPort, Blob("m2"));
  pair.a->SendReliable(2, kPort, Blob("m3"));
  s.RunUntil(AtMs(9));
  EXPECT_TRUE(got.empty()) << "nothing may pass the gap";
  EXPECT_EQ(pair.a->queued_segments(), 3u) << "acks of 0 discharge nothing";

  s.RunUntil(AtMs(12));
  EXPECT_EQ(got, (std::vector<std::string>{"m1", "m2", "m3"}));
  EXPECT_EQ(pair.a->queued_segments(), 0u);

  pair.a->SendReliable(2, kPort, Blob("m4"));  // in order again
  s.Run();
  EXPECT_EQ(got, (std::vector<std::string>{"m1", "m2", "m3", "m4"}));
  EXPECT_EQ(pair.b->acks_sent(), 4u);
  EXPECT_EQ(pair.a->queued_segments(), 0u);
  EXPECT_EQ(pair.a->queued_bytes(), 0u);
}

// After ack 1 discharges m1, the peer goes down with m2 and m3 unacked: the
// give-up drops both together and reports the peer once.
TEST(TransportOccupancyTest, GiveUpAfterPartialAckDropsTheRestOnce) {
  sim::Simulator s(43);
  TransportConfig tcfg;
  tcfg.max_retries = 3;
  auto pair = MakeScriptedPair(&s, {}, tcfg);
  std::vector<NodeId> failed;
  pair.a->SetFailureHandler([&](NodeId peer) { failed.push_back(peer); });
  int got = 0;
  pair.b->RegisterReceiver(kPort, [&](NodeId, uint32_t, const PayloadPtr&) { ++got; });
  pair.a->SendReliable(2, kPort, Blob("m1"));
  pair.network->set_drop_probability(1.0);
  pair.a->SendReliable(2, kPort, Blob("m2"));
  pair.a->SendReliable(2, kPort, Blob("m3"));
  pair.network->set_drop_probability(0.0);
  s.RunUntil(AtMs(3));
  ASSERT_EQ(got, 1);
  ASSERT_EQ(pair.a->queued_segments(), 2u);
  ASSERT_EQ(pair.a->queued_bytes(), 2 * kSegmentBytes);

  pair.network->SetNodeUp(2, false);
  s.RunFor(sim::Duration::Seconds(5));
  EXPECT_EQ(failed, (std::vector<NodeId>{2}));
  EXPECT_EQ(pair.a->peer_failures(), 1u);
  EXPECT_EQ(pair.a->queued_segments(), 0u);
  EXPECT_EQ(pair.a->queued_bytes(), 0u);
  EXPECT_EQ(s.pending_events(), 0u);
}

// --- clocks ------------------------------------------------------------------

TEST(ClockTest, HardwareClockOffsetAndDrift) {
  sim::Simulator s(15);
  HardwareClock clock(&s, sim::Duration::Millis(10), /*drift_ppm=*/100.0);
  s.RunFor(sim::Duration::Seconds(10));
  // offset 10ms + drift 100ppm * 10s = 1ms.
  const sim::Duration error = clock.Now() - s.now();
  EXPECT_EQ(error, sim::Duration::Millis(11));
}

TEST(ClockTest, CristianSyncBoundsError) {
  sim::Simulator s(16);
  auto network = MakeNetwork(&s);
  Transport server_t(&s, network.get(), 1);
  Transport client_t(&s, network.get(), 2);
  ClockSyncServer server(&s, &server_t);
  HardwareClock hw(&s, sim::Duration::Millis(500), /*drift_ppm=*/200.0);
  SyncedClock synced(&hw);
  ClockSyncClient client(&s, &client_t, 1, &hw, &synced, sim::Duration::Seconds(1));
  client.Start();
  s.RunUntil(sim::TimePoint::Zero() + sim::Duration::Seconds(10));
  client.Stop();
  s.Run();
  EXPECT_GE(client.rounds_completed(), 9);
  // After sync, the corrected clock is within half-RTT (<= 2.5ms) + drift
  // accumulated over one period of true time.
  const sim::Duration error = synced.Now() - s.now();
  EXPECT_LE(error.nanos() < 0 ? -error.nanos() : error.nanos(),
            sim::Duration::Millis(4).nanos());
}

// --- transport across partitions -------------------------------------------------

TEST(TransportPartitionTest, ReliableTransferResumesAfterHeal) {
  sim::Simulator s(7);
  net::Network network(&s, std::make_unique<net::UniformLatency>(sim::Duration::Millis(1),
                                                                 sim::Duration::Millis(3)));
  net::TransportConfig cfg;
  cfg.max_retries = 500;
  net::Transport a(&s, &network, 1, cfg);
  net::Transport b(&s, &network, 2, cfg);
  std::vector<std::string> got;
  b.RegisterReceiver(4, [&](net::NodeId, uint32_t, const net::PayloadPtr& p) {
    got.push_back(p->Describe());
  });
  network.Partition({{1}, {2}});
  for (int i = 0; i < 10; ++i) {
    a.SendReliable(2, 4, std::make_shared<net::BlobPayload>("m" + std::to_string(i), 16));
  }
  s.RunFor(sim::Duration::Seconds(1));
  EXPECT_TRUE(got.empty());
  network.HealPartition();
  s.RunFor(sim::Duration::Seconds(5));
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)], "m" + std::to_string(i)) << "FIFO across the heal";
  }
}

TEST(TransportPartitionTest, TrafficWithinComponentUnaffected) {
  sim::Simulator s(8);
  net::Network network(&s, std::make_unique<net::UniformLatency>(sim::Duration::Millis(1),
                                                                 sim::Duration::Millis(3)));
  net::Transport a(&s, &network, 1);
  net::Transport b(&s, &network, 2);
  net::Transport c(&s, &network, 3);
  int at_b = 0;
  b.RegisterReceiver(4, [&](net::NodeId, uint32_t, const net::PayloadPtr&) { ++at_b; });
  network.Partition({{1, 2}, {3}});
  for (int i = 0; i < 5; ++i) {
    a.SendReliable(2, 4, std::make_shared<net::BlobPayload>("x", 8));
  }
  s.RunFor(sim::Duration::Seconds(2));
  EXPECT_EQ(at_b, 5);
}

TEST(TransportPartitionTest, NodeRestartWithResetStateDoesNotReplayOldSeqs) {
  sim::Simulator s(9);
  net::Network network(&s, std::make_unique<net::UniformLatency>(sim::Duration::Millis(1),
                                                                 sim::Duration::Millis(2)));
  net::Transport a(&s, &network, 1);
  net::Transport b(&s, &network, 2);
  int got = 0;
  b.RegisterReceiver(4, [&](net::NodeId, uint32_t, const net::PayloadPtr&) { ++got; });
  a.SendReliable(2, 4, std::make_shared<net::BlobPayload>("one", 8));
  s.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(got, 1);
  // a "restarts" amnesiac: sequence numbers reset. The receiver must also be
  // reset (an amnesiac peer pair), else old state would discard new traffic.
  a.ResetPeerState();
  b.ResetPeerState();
  a.SendReliable(2, 4, std::make_shared<net::BlobPayload>("two", 8));
  s.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(got, 2);
}

}  // namespace
}  // namespace net
