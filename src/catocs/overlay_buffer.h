// Retention strategy for the constant-metadata overlay path (DESIGN.md §11).
//
// With dissemination running over the spanning overlay, stability tracking
// goes tree-shaped too: flat ack gossip (every member posting its
// delivered-vector to every other) is O(N) messages per member per round,
// which is exactly the scaling wall the overlay exists to remove. Instead
// each member aggregates a *subtree floor* — the pointwise minimum of its
// own delivered-vector and its overlay children's last up-reports — and
// sends only that to its overlay parent. The root's subtree is the whole
// group, so its floor is the true global stability floor; it floods the
// floor back down as an announcement every member adopts as its release
// floor. O(degree) messages per member per round, floor lag ~2·depth rounds.
//
// Safety under rewires: an up-report claims "every member of my subtree has
// delivered at least this", and subtrees are a pure function of the view's
// member list — so a report computed against one tree must not be read
// against another. The stability layer tags every floor frame with the view
// id and drops mismatches, and this strategy forgets child reports on every
// view change; aggregation restarts from fresh same-view evidence. Adopted
// floors stay valid across views (delivered counts never decrease, and a
// joiner enters having delivered the flush cut, which dominates any floor
// announced before its view), so the release floor itself is merged
// monotonically and never reset.

#ifndef REPRO_SRC_CATOCS_OVERLAY_BUFFER_H_
#define REPRO_SRC_CATOCS_OVERLAY_BUFFER_H_

#include <cstdint>
#include <vector>

#include "src/catocs/causal_buffer.h"
#include "src/catocs/message.h"
#include "src/catocs/stability.h"

namespace catocs {

class OverlayCausalStrategy : public CausalBufferStrategy {
 public:
  void SetMembers(const std::vector<MemberId>& members) override;
  void UpdateMemberVector(MemberId member, const VectorClock& vec) override;
  void UpdateMemberEntry(MemberId member, MemberId sender, uint64_t count) override;
  void AddToBuffer(const GroupDataPtr& msg) override;
  VectorClock StableVector() const override { return floor_; }
  uint64_t StableFloorFor(MemberId sender) const override { return floor_.Get(sender); }
  MemberId SlowestMemberFor(MemberId sender) const override;
  void Prune() override;

  // --- overlay-specific surface (driven by StabilityLayer) ------------------
  // Installs the aggregation set for the current tree: self plus the overlay
  // children. Reports from the previous tree are forgotten (see header).
  void SetReportSet(MemberId self, const std::vector<MemberId>& children);

  // Pointwise min of self's row and every child's report — empty (nothing
  // provable) until each report-set member has reported under this tree.
  VectorClock SubtreeFloor() const;

  // Merges an announced floor into the release floor and releases everything
  // it newly covers. Returns true if the floor advanced.
  bool AdoptFloor(const VectorClock& announced);

 private:
  void ReleaseUnderFloor(const char* cause);

  std::vector<MemberId> members_;     // current view, sorted
  std::vector<MemberId> report_set_;  // self + overlay children, sorted
  MemberId self_ = 0;
  // One row per report-set member: self's delivered-vector, children's
  // subtree floors. Rows for departed reporters are dropped on rewire.
  MemberMatrix reports_;
  size_t row_cache_ = 0;
  VectorClock floor_;     // adopted release floor; monotone across views
};

}  // namespace catocs

#endif  // REPRO_SRC_CATOCS_OVERLAY_BUFFER_H_
