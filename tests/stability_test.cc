// Edge cases of the retention-buffer strategies (causal_buffer.h), run
// against both vector implementations (and, for the eviction purge, the
// overlay one too): the degenerate single-member group, the
// stability jump when a lagging member is evicted, and the ack "wraparound"
// hazard on crash-recovery rejoin — a rejoining process must come back under
// a fresh member id, and stale acks from its dead id must not advance the
// floor while the fresh id has yet to report.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/catocs/causal_buffer.h"
#include "src/catocs/hold_tap.h"
#include "src/catocs/hybrid_buffer.h"
#include "src/catocs/overlay_buffer.h"
#include "src/catocs/stability.h"
#include "src/net/payload.h"
#include "src/sim/simulator.h"

namespace catocs {
namespace {

GroupDataPtr Msg(MemberId sender, uint64_t seq) {
  VectorClock vt;
  vt.Set(sender, seq);
  return std::make_shared<GroupData>(1, MessageId{sender, seq}, OrderingMode::kCausal,
                                     std::move(vt), std::make_shared<net::BlobPayload>("t", 64),
                                     sim::TimePoint::Zero());
}

// Evicts sender 3 (members {1,2,3} -> {1,2,4}: 3 rejoins under fresh id 4)
// with a tap watching the retained stray {3,5}, and returns the cause the
// tap's kStable span recorded for it ("" if its hold never ended).
std::string EvictionReleaseCause(CausalBufferStrategy& buffer) {
  sim::Simulator s(1);
  s.spans().set_enabled(true);
  PipelineStats stats;
  HoldTap tap;
  tap.Enable(&s, /*self=*/1, &stats, /*provenance=*/nullptr);
  tap.Enter(HoldReason::kStability, MessageId{3, 5});
  buffer.SetHoldTap(&tap);
  buffer.SetMembers({1, 2, 4});
  buffer.SetHoldTap(nullptr);
  EXPECT_EQ(1u, stats.reason(HoldReason::kStability).released);
  const std::vector<sim::SpanRecord> timeline = s.spans().ForKey(SpanKey(MessageId{3, 5}));
  if (timeline.empty() || timeline.back().event != sim::SpanEvent::kStable) {
    return "";
  }
  return timeline.back().note;
}

class CausalBufferTest : public ::testing::TestWithParam<CausalBufferKind> {
 protected:
  CausalBufferTest() : buffer_(MakeCausalBuffer(GetParam())) {}
  std::unique_ptr<CausalBufferStrategy> buffer_;
};

TEST_P(CausalBufferTest, FactoryProducesNamedStrategy) {
  const bool full_vector = GetParam() == CausalBufferKind::kFullVector;
  EXPECT_EQ(full_vector, dynamic_cast<StabilityTracker*>(buffer_.get()) != nullptr);
  EXPECT_EQ(!full_vector, dynamic_cast<HybridBuffer*>(buffer_.get()) != nullptr);
  EXPECT_STREQ(full_vector ? "full-vector" : "hybrid", ToString(GetParam()));
}

TEST_P(CausalBufferTest, SingleMemberGroup) {
  buffer_->SetMembers({1});
  buffer_->AddToBuffer(Msg(1, 1));
  EXPECT_EQ(1u, buffer_->buffered_count());
  // Even a sole member must report before anything is stable.
  EXPECT_TRUE(buffer_->StableVector().empty());
  buffer_->Prune();
  EXPECT_EQ(1u, buffer_->buffered_count());

  buffer_->UpdateMemberEntry(1, 1, 1);
  EXPECT_EQ(1u, buffer_->StableVector().Get(1));
  buffer_->Prune();
  EXPECT_EQ(0u, buffer_->buffered_count());
  EXPECT_EQ(0u, buffer_->buffered_bytes());
  EXPECT_EQ(nullptr, buffer_->Find(MessageId{1, 1}));
  EXPECT_EQ(1u, buffer_->peak_buffered_count());
}

TEST_P(CausalBufferTest, StabilityAfterMemberEviction) {
  buffer_->SetMembers({1, 2, 3});
  buffer_->AddToBuffer(Msg(1, 1));
  buffer_->UpdateMemberEntry(1, 1, 1);
  buffer_->UpdateMemberEntry(2, 1, 1);
  // Member 3 has reported (an empty ack vector) but delivered nothing, so it
  // holds the floor at zero.
  buffer_->UpdateMemberVector(3, VectorClock{});
  EXPECT_EQ(0u, buffer_->StableVector().Get(1));
  buffer_->Prune();
  EXPECT_EQ(1u, buffer_->buffered_count());
  ASSERT_EQ(1u, buffer_->UnstableMessages().size());

  // Evicting the laggard can only make more messages stable: the floor is
  // now the minimum over the survivors.
  buffer_->SetMembers({1, 2});
  EXPECT_EQ(1u, buffer_->StableVector().Get(1));
  buffer_->Prune();
  EXPECT_EQ(0u, buffer_->buffered_count());
  EXPECT_TRUE(buffer_->UnstableMessages().empty());
}

TEST_P(CausalBufferTest, AckWraparoundOnRejoinUnderFreshId) {
  buffer_->SetMembers({1, 2, 3});
  buffer_->AddToBuffer(Msg(1, 1));
  buffer_->AddToBuffer(Msg(1, 2));
  buffer_->UpdateMemberEntry(1, 1, 2);
  buffer_->UpdateMemberEntry(2, 1, 2);
  buffer_->UpdateMemberEntry(3, 1, 1);
  EXPECT_EQ(1u, buffer_->StableVector().Get(1));
  buffer_->Prune();
  EXPECT_EQ(1u, buffer_->buffered_count());

  // Member 3 crashes and rejoins under a fresh id (4) — the protocol's rule
  // for crash recovery, precisely so its old delivery counters cannot be
  // mistaken for the new incarnation's.
  buffer_->SetMembers({1, 2, 4});
  EXPECT_TRUE(buffer_->StableVector().empty());

  // A stale ack from the dead id, claiming everything was delivered, must
  // not advance the floor: id 3 is no longer a member, and id 4 has not
  // reported.
  VectorClock stale;
  stale.Set(1, 2);
  buffer_->UpdateMemberVector(3, stale);
  EXPECT_TRUE(buffer_->StableVector().empty());
  buffer_->Prune();
  EXPECT_EQ(1u, buffer_->buffered_count());
  EXPECT_NE(nullptr, buffer_->Find(MessageId{1, 2}));

  // Only the fresh incarnation's own report completes the member set.
  VectorClock fresh;
  fresh.Set(1, 2);
  buffer_->UpdateMemberVector(4, fresh);
  EXPECT_EQ(2u, buffer_->StableVector().Get(1));
  buffer_->Prune();
  EXPECT_EQ(0u, buffer_->buffered_count());
}

TEST_P(CausalBufferTest, EvictedSenderOverflowStraysPurgedOnMemberChange) {
  buffer_->SetMembers({1, 2, 3});
  buffer_->AddToBuffer(Msg(3, 1));
  buffer_->AddToBuffer(Msg(3, 2));
  // Sequence gap: lands in the retention ring's overflow map (possible only
  // through direct strategy use, which is exactly what this test is).
  buffer_->AddToBuffer(Msg(3, 5));

  // Everyone delivered the contiguous prefix; the stray stays retained.
  VectorClock acked;
  acked.Set(3, 2);
  buffer_->UpdateMemberVector(1, acked);
  buffer_->UpdateMemberVector(2, acked);
  buffer_->UpdateMemberVector(3, acked);
  buffer_->Prune();
  ASSERT_EQ(1u, buffer_->buffered_count());

  // Member 3 is evicted and rejoins under fresh id 4. The old id's floor row
  // is gone for good (MeetMin drops departed rows; the rejoiner reports under
  // 4), so without the eviction purge the {3,5} stray would be retained
  // forever — and its bytes would stay charged against the resource budget.
  EXPECT_EQ("evicted-sender", EvictionReleaseCause(*buffer_));
  EXPECT_EQ(0u, buffer_->buffered_count());
  EXPECT_EQ(0u, buffer_->buffered_bytes());
  EXPECT_EQ(nullptr, buffer_->Find(MessageId{3, 5}));
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, CausalBufferTest,
                         ::testing::Values(CausalBufferKind::kFullVector,
                                           CausalBufferKind::kHybrid),
                         [](const ::testing::TestParamInfo<CausalBufferKind>& info) {
                           return info.param == CausalBufferKind::kFullVector ? "FullVector"
                                                                              : "Hybrid";
                         });

// The overlay strategy releases by an adopted floor rather than by member
// rows, but a departed sender's overflow strays must go the same way.
TEST(OverlayBufferTest, EvictedSenderOverflowStraysPurgedOnMemberChange) {
  OverlayCausalStrategy buffer;
  buffer.SetMembers({1, 2, 3});
  buffer.AddToBuffer(Msg(3, 1));
  buffer.AddToBuffer(Msg(3, 2));
  buffer.AddToBuffer(Msg(3, 5));
  VectorClock floor;
  floor.Set(3, 2);
  buffer.AdoptFloor(floor);
  ASSERT_EQ(1u, buffer.buffered_count());

  EXPECT_EQ("evicted-sender", EvictionReleaseCause(buffer));
  EXPECT_EQ(0u, buffer.buffered_count());
  EXPECT_EQ(0u, buffer.buffered_bytes());
  EXPECT_EQ(nullptr, buffer.Find(MessageId{3, 5}));
}

}  // namespace
}  // namespace catocs
