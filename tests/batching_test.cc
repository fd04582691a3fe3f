// Sender-side batching and delta-encoded timestamps (the raw-speed layer):
// batching defers only the broadcast — constituents keep their identity and
// delivery obligations — and the delta codec must reconstruct every clock
// exactly, across view changes and fresh-id rejoins included.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/catocs/group.h"
#include "src/catocs/pipeline_stats.h"
#include "src/catocs/wire_codec.h"
#include "src/sim/simulator.h"

namespace catocs {
namespace {

net::PayloadPtr Blob(size_t size = 32) { return std::make_shared<net::BlobPayload>("b", size); }

FabricConfig BatchedConfig(uint32_t batching, bool delta = false) {
  FabricConfig cfg;
  cfg.num_members = 4;
  cfg.group.batching = batching;
  cfg.group.delta_timestamps = delta;
  return cfg;
}

TEST(BatchingTest, BatchedTrafficDeliversEverywhereInOrder) {
  sim::Simulator s(41);
  GroupFabric fabric(&s, BatchedConfig(4));
  fabric.RecordDeliveries();
  fabric.StartAll();
  s.ScheduleAfter(sim::Duration::Millis(10), [&fabric] {
    for (int k = 0; k < 16; ++k) {
      fabric.member(0).CausalSend(Blob());
    }
  });
  s.RunFor(sim::Duration::Seconds(2));

  const auto& stats = fabric.member(0).stats();
  EXPECT_EQ(stats.sent, 16u);
  EXPECT_EQ(stats.batches_sent, 4u) << "16 sends at batching=4 = 4 full frames";
  EXPECT_EQ(stats.batched_data_msgs, 16u);
  for (size_t i = 0; i < fabric.size(); ++i) {
    const auto order = fabric.DeliveryOrderAt(i);
    ASSERT_EQ(order.size(), 16u) << "member " << i;
    for (size_t k = 0; k < order.size(); ++k) {
      EXPECT_EQ(order[k], (MessageId{1, k + 1})) << "member " << i << " position " << k;
    }
  }
}

TEST(BatchingTest, PartialBatchFlushesOnTimer) {
  sim::Simulator s(42);
  GroupFabric fabric(&s, BatchedConfig(8));
  fabric.RecordDeliveries();
  fabric.StartAll();
  s.ScheduleAfter(sim::Duration::Millis(10), [&fabric] {
    for (int k = 0; k < 3; ++k) {
      fabric.member(0).CausalSend(Blob());
    }
  });
  s.RunFor(sim::Duration::Seconds(1));

  const auto& stats = fabric.member(0).stats();
  EXPECT_EQ(stats.batches_sent, 1u) << "flush timer drains the partial batch";
  EXPECT_EQ(stats.batched_data_msgs, 3u);
  for (size_t i = 0; i < fabric.size(); ++i) {
    EXPECT_EQ(fabric.member(i).stats().app_delivered, 3u) << "member " << i;
  }
}

TEST(BatchingTest, BatchingReducesHeaderBytesForSameDeliveries) {
  // Every member sends bursts, so clocks carry all four entries: unbatched
  // frames each pay the full 4-entry vt, while within a batch only the
  // first constituent does (the rest delta against it).
  auto run = [](uint32_t batching, bool delta) {
    sim::Simulator s(43);
    GroupFabric fabric(&s, BatchedConfig(batching, delta));
    fabric.StartAll();
    for (int round = 0; round < 3; ++round) {
      for (int m = 0; m < 4; ++m) {
        s.ScheduleAfter(sim::Duration::Millis(10 + 20 * round + 2 * m), [&fabric, m] {
          for (int k = 0; k < 8; ++k) {
            fabric.member(m).CausalSend(Blob());
          }
        });
      }
    }
    s.RunFor(sim::Duration::Seconds(2));
    uint64_t header_bytes = 0;
    for (size_t i = 0; i < fabric.size(); ++i) {
      header_bytes += fabric.member(i).stats().ordering_header_bytes;
    }
    return std::pair<uint64_t, uint64_t>{header_bytes, fabric.member(3).stats().app_delivered};
  };
  const auto [unbatched_bytes, unbatched_delivered] = run(1, false);
  const auto [batched_bytes, batched_delivered] = run(8, true);
  EXPECT_EQ(batched_delivered, unbatched_delivered) << "batching must not change what arrives";
  EXPECT_LT(batched_bytes, unbatched_bytes / 2)
      << "one delta-encoded frame per 8 sends must cost far less than 8 full headers";
}

// The membership layer flushes the pending batch before blocking the group:
// a batch is broadcast whole into the old view, never split across one.
TEST(BatchingTest, BatchNeverSpansViewChange) {
  sim::Simulator s(44);
  FabricConfig cfg = BatchedConfig(8);
  cfg.num_members = 3;
  cfg.group.enable_membership = true;
  cfg.group.heartbeat_interval = sim::Duration::Millis(20);
  cfg.group.failure_timeout = sim::Duration::Millis(120);
  // 100 µs links: the join reaches the coordinator (member 0, via member 1)
  // and the whole view change completes well inside the 1 ms batch flush
  // delay, so the partial batch is still pending when the flush starts.
  cfg.latency_lo = sim::Duration::Micros(100);
  cfg.latency_hi = sim::Duration::Micros(100);
  GroupFabric fabric(&s, cfg);
  net::Transport joiner_transport(&s, &fabric.network(), 9);
  GroupMember joiner(&s, &joiner_transport, cfg.group, 9, {9});
  fabric.RecordDeliveries();
  fabric.StartAll();
  joiner.Start();

  s.ScheduleAfter(sim::Duration::Millis(100), [&fabric, &joiner] {
    for (int k = 0; k < 3; ++k) {
      fabric.member(0).CausalSend(Blob());
    }
    joiner.JoinGroup(2);
  });
  s.RunFor(sim::Duration::Seconds(3));

  EXPECT_EQ(joiner.view().members, (std::vector<MemberId>{1, 2, 3, 9}));
  const auto& stats = fabric.member(0).stats();
  EXPECT_EQ(stats.batches_sent, 1u) << "the flush broadcast the pending batch, whole";
  EXPECT_EQ(stats.batched_data_msgs, 3u);
  EXPECT_EQ(stats.data_transmissions, 2u)
      << "the batch went out to the two old-view peers, before the joiner was admitted";
  for (size_t i = 0; i < 3; ++i) {
    const auto order = fabric.DeliveryOrderAt(i);
    ASSERT_EQ(order.size(), 3u) << "member " << i << ": every constituent survives the flush";
    for (size_t k = 0; k < order.size(); ++k) {
      EXPECT_EQ(order[k], (MessageId{1, k + 1}));
    }
  }
}

TEST(BatchingTest, DeltaTimestampsReconstructExactly) {
  sim::Simulator s(45);
  FabricConfig cfg = BatchedConfig(1, /*delta=*/true);
  GroupFabric fabric(&s, cfg);
  fabric.StartAll();
  // Interleaved senders so clocks pick up entries from everyone; each turn
  // sends a back-to-back pair, whose second frame deltas only the sender's
  // own entry — the case the encoding exists for.
  for (int k = 0; k < 12; ++k) {
    s.ScheduleAfter(sim::Duration::Millis(10 + 10 * k), [&fabric, k] {
      fabric.member(k % 4).CausalSend(Blob());
      fabric.member(k % 4).CausalSend(Blob());
    });
  }
  s.RunFor(sim::Duration::Seconds(2));

  for (size_t i = 0; i < fabric.size(); ++i) {
    const auto& stats = fabric.member(i).stats();
    EXPECT_EQ(stats.delta_decode_mismatches, 0u) << "member " << i;
    EXPECT_EQ(stats.app_delivered, 24u) << "member " << i;
    EXPECT_EQ(stats.delta_keyframes_sent, 1u) << "member " << i << ": stream-start keyframe only";
    EXPECT_GT(stats.delta_frames_sent, 0u) << "member " << i;
    EXPECT_GT(stats.delta_header_bytes_saved, 0u) << "member " << i;
  }
  // The fast path answered deliverability checks somewhere in the run.
  uint64_t fast_hits = 0;
  for (size_t i = 0; i < fabric.size(); ++i) {
    fast_hits += fabric.member(i).stats().delta_fast_path_hits;
  }
  EXPECT_GT(fast_hits, 0u);
}

// A crashed member rejoins under a fresh id; its first frame is naturally a
// keyframe (no prior stream), and survivors' references for the dead id are
// dropped at the view change — reconstruction must stay exact throughout.
TEST(BatchingTest, DeltaReconstructionSurvivesFreshIdRejoin) {
  sim::Simulator s(46);
  FabricConfig cfg = BatchedConfig(2, /*delta=*/true);
  cfg.num_members = 3;
  cfg.group.enable_membership = true;
  cfg.group.heartbeat_interval = sim::Duration::Millis(20);
  cfg.group.failure_timeout = sim::Duration::Millis(120);
  GroupFabric fabric(&s, cfg);
  net::Transport joiner_transport(&s, &fabric.network(), 9);
  GroupMember joiner(&s, &joiner_transport, cfg.group, 9, {9});
  std::map<MemberId, uint64_t> delivered_from_9;
  for (size_t i = 0; i < 3; ++i) {
    const MemberId at = fabric.member(i).self();
    fabric.member(i).SetDeliveryHandler([&delivered_from_9, at](const Delivery& d) {
      if (d.id().sender == 9) {
        ++delivered_from_9[at];
      }
    });
  }
  fabric.StartAll();

  for (int k = 0; k < 6; ++k) {
    s.ScheduleAfter(sim::Duration::Millis(20 + 10 * k),
                    [&fabric, k] { fabric.member(k % 3).CausalSend(Blob()); });
  }
  s.ScheduleAfter(sim::Duration::Millis(200), [&fabric] { fabric.CrashMember(2); });
  for (int k = 0; k < 6; ++k) {
    s.ScheduleAfter(sim::Duration::Millis(600 + 10 * k),
                    [&fabric, k] { fabric.member(k % 2).CausalSend(Blob()); });
  }
  s.ScheduleAfter(sim::Duration::Millis(900), [&joiner] {
    joiner.Start();
    joiner.JoinGroup(1);
  });
  s.ScheduleAfter(sim::Duration::Millis(2000), [&joiner] {
    for (int k = 0; k < 4; ++k) {
      joiner.CausalSend(Blob());
    }
  });
  s.RunFor(sim::Duration::Seconds(4));

  EXPECT_EQ(joiner.view().members, (std::vector<MemberId>{1, 2, 9}));
  EXPECT_EQ(joiner.stats().delta_decode_mismatches, 0u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(fabric.member(i).stats().delta_decode_mismatches, 0u) << "member " << i;
    EXPECT_EQ(delivered_from_9[fabric.member(i).self()], 4u) << "member " << i;
  }
}

// Footnote-4 piggybacking under batching: constituents carry predecessor
// copies, receivers ingest them first, and buffered/retransmitted copies are
// stripped — the combination must deliver exactly the sent traffic.
TEST(BatchingTest, PiggybackVariantComposesWithBatching) {
  sim::Simulator s(47);
  FabricConfig cfg = BatchedConfig(4);
  cfg.group.piggyback_causal = true;
  GroupFabric fabric(&s, cfg);
  fabric.RecordDeliveries();
  fabric.StartAll();
  for (int k = 0; k < 12; ++k) {
    s.ScheduleAfter(sim::Duration::Millis(10 + 5 * k),
                    [&fabric, k] { fabric.member(k % 2).CausalSend(Blob()); });
  }
  s.RunFor(sim::Duration::Seconds(2));
  for (size_t i = 0; i < fabric.size(); ++i) {
    EXPECT_EQ(fabric.member(i).stats().app_delivered, 12u) << "member " << i;
  }
}

// Every batched constituent carries its own full lifecycle span — send,
// batch hold (enter -> deliver with the flush size), causal delivery — not
// just the frame's first message. Delta timestamps ride along to cover the
// full raw-speed wire path.
TEST(BatchingTest, BatchedConstituentsEachCarryFullLifecycleSpans) {
  sim::Simulator s(49);
  FabricConfig cfg = BatchedConfig(4, /*delta=*/true);
  cfg.group.observability = true;
  s.spans().set_enabled(true);
  GroupFabric fabric(&s, cfg);
  fabric.RecordDeliveries();
  fabric.StartAll();
  s.ScheduleAfter(sim::Duration::Millis(10), [&fabric] {
    for (int k = 0; k < 8; ++k) {
      fabric.member(0).CausalSend(Blob());
    }
  });
  s.RunFor(sim::Duration::Seconds(1));
  for (uint64_t seq = 1; seq <= 8; ++seq) {
    const uint64_t key = SpanKey(MessageId{1, seq});
    const auto timeline = s.spans().ForKey(key);
    ASSERT_FALSE(timeline.empty()) << "constituent seq " << seq << " left no spans";
    bool batch_entered = false;
    bool batch_flushed = false;
    size_t causal_delivers = 0;
    for (const auto& record : timeline) {
      if (std::string(record.layer) == "batch") {
        if (record.event == sim::SpanEvent::kEnter) {
          batch_entered = true;
        }
        if (record.event == sim::SpanEvent::kDeliver) {
          batch_flushed = true;
          EXPECT_EQ(record.note, "flush n=4") << "seq " << seq;
        }
      }
      if (std::string(record.layer) == "causal" && record.event == sim::SpanEvent::kDeliver) {
        ++causal_delivers;
      }
    }
    EXPECT_TRUE(batch_entered) << "seq " << seq << " has no batch-hold entry";
    EXPECT_TRUE(batch_flushed) << "seq " << seq << " has no batch flush";
    EXPECT_EQ(causal_delivers, fabric.size()) << "seq " << seq;
  }
}

// A partial batch flushed by the timer closes each parked constituent's
// batch-hold span with the actual (smaller) flush size.
TEST(BatchingTest, PartialBatchFlushSpansRecordActualSize) {
  sim::Simulator s(50);
  FabricConfig cfg = BatchedConfig(4, /*delta=*/true);
  cfg.group.observability = true;
  s.spans().set_enabled(true);
  GroupFabric fabric(&s, cfg);
  fabric.StartAll();
  s.ScheduleAfter(sim::Duration::Millis(10), [&fabric] {
    for (int k = 0; k < 3; ++k) {
      fabric.member(0).CausalSend(Blob());
    }
  });
  s.RunFor(sim::Duration::Seconds(1));
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    const uint64_t key = SpanKey(MessageId{1, seq});
    bool batch_flushed = false;
    for (const auto& record : s.spans().ForKey(key)) {
      if (std::string(record.layer) == "batch" && record.event == sim::SpanEvent::kDeliver) {
        batch_flushed = true;
        EXPECT_EQ(record.note, "flush n=3") << "seq " << seq;
      }
    }
    EXPECT_TRUE(batch_flushed) << "seq " << seq;
  }
}

// The sanity anchor for byte-identity: batching=1 with delta off IS the
// pre-raw-speed stack — same stats, same deliveries, same header accounting
// as a default-constructed config (this is also enforced end-to-end by
// diffing the bench outputs).
TEST(BatchingTest, DefaultConfigBypassesBatcherEntirely) {
  sim::Simulator s(48);
  GroupFabric fabric(&s, BatchedConfig(1));
  fabric.StartAll();
  s.ScheduleAfter(sim::Duration::Millis(10), [&fabric] {
    for (int k = 0; k < 4; ++k) {
      fabric.member(0).CausalSend(Blob());
    }
  });
  s.RunFor(sim::Duration::Seconds(1));
  const auto& stats = fabric.member(0).stats();
  EXPECT_EQ(stats.batches_sent, 0u);
  EXPECT_EQ(stats.batched_data_msgs, 0u);
  EXPECT_EQ(stats.delta_frames_sent, 0u);
  EXPECT_EQ(stats.delta_keyframes_sent, 0u);
  EXPECT_EQ(fabric.member(2).stats().app_delivered, 4u);
}

}  // namespace
}  // namespace catocs
