#include "src/catocs/hybrid_buffer.h"

#include <algorithm>

namespace catocs {

void HybridBuffer::SetMembers(const std::vector<MemberId>& members) {
  members_ = members;
  std::sort(members_.begin(), members_.end());
  // Late reports from non-members (evicted ids) may recreate rows later;
  // those never count toward the floor.
  EraseDepartedRows(delivered_by_, members_);
  reporting_ = 0;
  for (MemberId member : members_) {
    if (MatrixRowIfPresent(delivered_by_, member) != nullptr) {
      ++reporting_;
    }
  }
  PurgeEvicted(members_);
  RecomputeFloor();
}

VectorClock& HybridBuffer::Row(MemberId member) {
  bool created = false;
  VectorClock& row = MatrixRowCached(delivered_by_, member, row_cache_, &created);
  if (created && std::binary_search(members_.begin(), members_.end(), member)) {
    ++reporting_;
    if (AllReported()) {
      // The last holdout just reported: the floor becomes meaningful. The
      // fresh row is still empty here, so this recompute yields an empty
      // floor; the caller's updates advance it entry by entry.
      RecomputeFloor();
    }
  }
  return row;
}

void HybridBuffer::UpdateMemberVector(MemberId member, const VectorClock& vec) {
  VectorClock& row = Row(member);
  // Only raises to a current member's row can move a per-sender minimum;
  // non-member rows (late reports from evicted ids) never count toward it.
  const bool counted =
      AllReported() && std::binary_search(members_.begin(), members_.end(), member);
  for (const auto& [sender, count] : vec.entries()) {
    const uint64_t old_value = row.Get(sender);
    if (count > old_value) {
      row.RaiseTo(sender, count);
      if (counted) {
        NoteRowRaise(sender, old_value);
      }
    }
  }
}

void HybridBuffer::UpdateMemberEntry(MemberId member, MemberId sender, uint64_t count) {
  VectorClock& row = Row(member);
  const uint64_t old_value = row.Get(sender);
  if (count <= old_value) {
    return;
  }
  row.RaiseTo(sender, count);
  if (AllReported() && std::binary_search(members_.begin(), members_.end(), member)) {
    NoteRowRaise(sender, old_value);
  }
}

void HybridBuffer::ObserveDeliveredTimestamp(MemberId sender, const VectorClock& vt) {
  // The timestamp is a truthful ack vector from the message's sender: to
  // stamp vt it must have causally delivered vt[m] messages from every m
  // (including its own message, by self-delivery at send).
  UpdateMemberVector(sender, vt);
}

void HybridBuffer::AddToBuffer(const GroupDataPtr& msg) {
  if (AllReported() && msg->id().seq <= floor_.Get(msg->id().sender)) {
    return;  // already stable everywhere; nothing to retain
  }
  Retain(msg);
}

VectorClock HybridBuffer::StableVector() const {
  // Mirrors the full tracker's observable semantics: nothing is stable until
  // every current member has reported.
  return AllReported() ? floor_ : VectorClock{};
}

uint64_t HybridBuffer::StableFloorFor(MemberId sender) const {
  return AllReported() ? floor_.Get(sender) : 0;
}

MemberId HybridBuffer::SlowestMemberFor(MemberId sender) const {
  return SlowestInMatrix(delivered_by_, members_, sender);
}

void HybridBuffer::NoteRowRaise(MemberId sender, uint64_t old_value) {
  auto it = floor_min_.find(sender);
  if (it == floor_min_.end()) {
    // First raise on this column since the cache was (in)validated: pay the
    // scan once, then stay incremental.
    it = floor_min_.emplace(sender, ScanMin(sender)).first;
  } else if (old_value > it->second.value) {
    return;  // the advanced row sat above the minimum; it is unchanged
  } else if (--it->second.rows_at_value > 0) {
    return;  // other rows still hold the old minimum
  } else {
    // The last row at the minimum advanced, so the column minimum moved —
    // the rescan is amortized against this floor advance.
    it->second = ScanMin(sender);
  }
  const uint64_t min_count = it->second.value;
  if (min_count <= floor_.Get(sender)) {
    return;
  }
  floor_.RaiseTo(sender, min_count);
  ReleaseUpTo(sender, min_count, "floor");
}

HybridBuffer::FloorMin HybridBuffer::ScanMin(MemberId sender) const {
  // Callers guarantee members_ is non-empty (the raised row belongs to a
  // current member) and every member has a row (AllReported()).
  FloorMin min{UINT64_MAX, 0};
  for (MemberId member : members_) {
    const uint64_t value = MatrixRowIfPresent(delivered_by_, member)->Get(sender);
    if (value < min.value) {
      min = {value, 1};
    } else if (value == min.value) {
      ++min.rows_at_value;
    }
  }
  return min;
}

void HybridBuffer::RecomputeFloor() {
  floor_ = VectorClock{};
  floor_min_.clear();
  if (!AllReported() || members_.empty()) {
    return;
  }
  bool first = true;
  for (MemberId member : members_) {
    const VectorClock& row = *MatrixRowIfPresent(delivered_by_, member);
    if (first) {
      floor_ = row;
      first = false;
    } else {
      floor_.MeetMin(row);
    }
  }
  ReleaseAllStable();
}

void HybridBuffer::ReleaseAllStable() {
  if (!floor_.empty()) {
    ReleaseUpTo(floor_, "floor-sweep");
  }
}

void HybridBuffer::Prune() {
  // Releases happen eagerly as acks arrive; this exists for interface parity
  // (gossip ticks and view changes call it) and is normally a no-op.
  if (AllReported()) {
    ReleaseAllStable();
  }
}

}  // namespace catocs
