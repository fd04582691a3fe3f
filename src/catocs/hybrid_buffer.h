// Hybrid/dependency-pruned retention buffer: the PAPERS.md-inspired
// alternative to the full-vector StabilityTracker (same stability condition,
// different release schedule — see causal_buffer.h).
//
// Two ideas, after Nédelec et al.'s scalable causal broadcast and Almeida's
// hybrid buffering:
//   1. Incremental floors: instead of a throttled walk of the whole member
//      matrix, keep the per-sender stability floor up to date as each ack
//      arrives and release buffered copies the instant their floor passes
//      them. The full tracker holds stable messages for up to a prune
//      interval; this one holds them for zero extra time.
//   2. Causal evidence: a delivered message's vector timestamp proves its
//      sender had causally delivered everything at or below it, so every
//      data message doubles as an ack vector even when explicit acks are
//      sparse (piggybacking off, slow gossip).
// Both only ever *advance* knowledge of what other members delivered, so the
// floor never overtakes true stability and no unstable message is dropped:
// the flush protocol's redistribution argument holds unchanged.

#ifndef REPRO_SRC_CATOCS_HYBRID_BUFFER_H_
#define REPRO_SRC_CATOCS_HYBRID_BUFFER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/catocs/causal_buffer.h"
#include "src/catocs/message.h"
#include "src/catocs/stability.h"

namespace catocs {

class HybridBuffer : public CausalBufferStrategy {
 public:
  void SetMembers(const std::vector<MemberId>& members) override;
  void UpdateMemberVector(MemberId member, const VectorClock& vec) override;
  void UpdateMemberEntry(MemberId member, MemberId sender, uint64_t count) override;
  void ObserveDeliveredTimestamp(MemberId sender, const VectorClock& vt) override;
  void AddToBuffer(const GroupDataPtr& msg) override;
  VectorClock StableVector() const override;
  uint64_t StableFloorFor(MemberId sender) const override;
  MemberId SlowestMemberFor(MemberId sender) const override;
  void Prune() override;

 private:
  // The floor is only meaningful once every current member has reported at
  // least once (an unreported member pins everything unstable, exactly like
  // the full tracker's empty-row rule).
  bool AllReported() const { return reporting_ == members_.size(); }
  // Returns `member`'s progress row, creating it (and handling the
  // everyone-has-now-reported transition) on first contact.
  VectorClock& Row(MemberId member);
  // Incremental per-sender minimum over the member rows. Without it every
  // advanced coordinate pays an O(N) column rescan, and since every causal
  // delivery feeds ObserveDeliveredTimestamp the per-delivery cost becomes
  // O(N * entries) — at N=1024 that turns the E21 sweep from seconds into
  // hours. Rows only ever advance, so the cached minimum stays exact: a
  // raise from above the minimum cannot move it, and the column is rescanned
  // only when the last row holding the minimum leaves it — which is exactly
  // a floor advance, so rescans amortize against messages sent. Valid only
  // while AllReported(); rebuilt lazily per sender and invalidated wholesale
  // by RecomputeFloor() (membership changes, all-reported transitions).
  struct FloorMin {
    uint64_t value = 0;
    size_t rows_at_value = 0;
  };
  // A current member's row just advanced on `sender`'s coordinate from
  // `old_value`: update the cached minimum and, if it moved, raise the floor
  // and release newly stable buffered copies immediately.
  void NoteRowRaise(MemberId sender, uint64_t old_value);
  // Authoritative O(N log N) rescan of `sender`'s column over member rows.
  FloorMin ScanMin(MemberId sender) const;
  // Full floor recompute + release, for membership changes and the
  // all-reported transition.
  void RecomputeFloor();
  void ReleaseAllStable();

  std::vector<MemberId> members_;  // sorted
  // Rows may exist for non-members (late reports from evicted ids); the
  // floor ignores them.
  MemberMatrix delivered_by_;
  size_t row_cache_ = 0;  // last-touched row index, validated before use
  size_t reporting_ = 0;  // how many of members_ have a row
  VectorClock floor_;     // per-sender stability floor; valid iff AllReported()
  // Cached per-sender column minimum backing floor_ (see FloorMin above).
  std::map<MemberId, FloorMin> floor_min_;
};

}  // namespace catocs

#endif  // REPRO_SRC_CATOCS_HYBRID_BUFFER_H_
