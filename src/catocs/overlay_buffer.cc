#include "src/catocs/overlay_buffer.h"

#include <algorithm>

namespace catocs {

void OverlayCausalStrategy::SetMembers(const std::vector<MemberId>& members) {
  members_ = members;
  std::sort(members_.begin(), members_.end());
  PurgeEvicted(members_);
}

void OverlayCausalStrategy::SetReportSet(MemberId self, const std::vector<MemberId>& children) {
  self_ = self;
  report_set_.clear();
  report_set_.push_back(self);
  for (MemberId child : children) {
    report_set_.push_back(child);
  }
  std::sort(report_set_.begin(), report_set_.end());
  // Child reports were computed against the previous tree's subtrees; only
  // self's own delivered-vector survives a rewire (it is tree-independent).
  reports_.erase(std::remove_if(reports_.begin(), reports_.end(),
                                [self](const std::pair<MemberId, VectorClock>& row) {
                                  return row.first != self;
                                }),
                 reports_.end());
  row_cache_ = 0;
}

void OverlayCausalStrategy::UpdateMemberVector(MemberId member, const VectorClock& vec) {
  MatrixRowCached(reports_, member, row_cache_).Merge(vec);
}

void OverlayCausalStrategy::UpdateMemberEntry(MemberId member, MemberId sender, uint64_t count) {
  VectorClock& row = MatrixRowCached(reports_, member, row_cache_);
  if (count > row.Get(sender)) {
    row.RaiseTo(sender, count);
  }
}

void OverlayCausalStrategy::AddToBuffer(const GroupDataPtr& msg) {
  if (msg->id().seq <= floor_.Get(msg->id().sender)) {
    return;  // already announced stable; nothing to retain
  }
  Retain(msg);
}

VectorClock OverlayCausalStrategy::SubtreeFloor() const {
  VectorClock out;
  bool first = true;
  for (MemberId member : report_set_) {
    const VectorClock* row = MatrixRowIfPresent(reports_, member);
    if (row == nullptr || row->empty()) {
      // An unreported subtree pins everything: nothing is provably delivered
      // below it yet (the empty-row rule every strategy shares).
      return VectorClock{};
    }
    if (first) {
      out = *row;
      first = false;
    } else {
      out.MeetMin(*row);
    }
  }
  return out;
}

MemberId OverlayCausalStrategy::SlowestMemberFor(MemberId sender) const {
  // Only the local subtree is visible here; the slowest *reporter* is the
  // honest local answer (a laggard deeper down surfaces as its subtree
  // root's report, which is the link this member could act on).
  return SlowestInMatrix(reports_, report_set_, sender);
}

bool OverlayCausalStrategy::AdoptFloor(const VectorClock& announced) {
  bool advanced = false;
  for (const auto& [sender, count] : announced.entries()) {
    if (count > floor_.Get(sender)) {
      floor_.RaiseTo(sender, count);
      advanced = true;
    }
  }
  if (advanced) {
    ReleaseUnderFloor("floor");
  }
  return advanced;
}

void OverlayCausalStrategy::ReleaseUnderFloor(const char* cause) {
  if (floor_.empty()) {
    return;
  }
  ReleaseUpTo(floor_, cause);
}

void OverlayCausalStrategy::Prune() { ReleaseUnderFloor("floor-sweep"); }

}  // namespace catocs
