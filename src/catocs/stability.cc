#include "src/catocs/stability.h"

#include <algorithm>

namespace catocs {

VectorClock& MatrixRow(MemberMatrix& matrix, MemberId member) {
  auto it = std::lower_bound(
      matrix.begin(), matrix.end(), member,
      [](const std::pair<MemberId, VectorClock>& row, MemberId m) { return row.first < m; });
  if (it == matrix.end() || it->first != member) {
    it = matrix.emplace(it, member, VectorClock{});
  }
  return it->second;
}

const VectorClock* MatrixRowIfPresent(const MemberMatrix& matrix, MemberId member) {
  auto it = std::lower_bound(
      matrix.begin(), matrix.end(), member,
      [](const std::pair<MemberId, VectorClock>& row, MemberId m) { return row.first < m; });
  return it != matrix.end() && it->first == member ? &it->second : nullptr;
}

MemberId SlowestInMatrix(const MemberMatrix& matrix, const std::vector<MemberId>& members,
                         MemberId sender) {
  MemberId slowest = 0;
  uint64_t lowest = UINT64_MAX;
  for (MemberId member : members) {
    const VectorClock* row = MatrixRowIfPresent(matrix, member);
    const uint64_t delivered = row == nullptr ? 0 : row->Get(sender);
    if (delivered < lowest) {
      lowest = delivered;
      slowest = member;
    }
  }
  return slowest;
}

void EraseDepartedRows(MemberMatrix& matrix, const std::vector<MemberId>& members) {
  matrix.erase(std::remove_if(matrix.begin(), matrix.end(),
                              [&members](const std::pair<MemberId, VectorClock>& row) {
                                return !std::binary_search(members.begin(), members.end(),
                                                           row.first);
                              }),
               matrix.end());
}

VectorClock& MatrixRowCached(MemberMatrix& matrix, MemberId member, size_t& cache,
                             bool* created) {
  if (cache < matrix.size() && matrix[cache].first == member) {
    if (created != nullptr) {
      *created = false;
    }
    return matrix[cache].second;
  }
  auto it = std::lower_bound(
      matrix.begin(), matrix.end(), member,
      [](const std::pair<MemberId, VectorClock>& row, MemberId m) { return row.first < m; });
  const bool miss = it == matrix.end() || it->first != member;
  if (miss) {
    it = matrix.emplace(it, member, VectorClock{});
  }
  if (created != nullptr) {
    *created = miss;
  }
  cache = static_cast<size_t>(it - matrix.begin());
  return it->second;
}

void StabilityTracker::SetMembers(const std::vector<MemberId>& members) {
  members_ = members;
  std::sort(members_.begin(), members_.end());
  EraseDepartedRows(delivered_by_, members_);
  PurgeEvicted(members_);
}

void StabilityTracker::UpdateMemberVector(MemberId member, const VectorClock& vec) {
  MatrixRowCached(delivered_by_, member, row_cache_).Merge(vec);
}

void StabilityTracker::UpdateMemberEntry(MemberId member, MemberId sender, uint64_t count) {
  MatrixRowCached(delivered_by_, member, row_cache_).RaiseTo(sender, count);
}

VectorClock StabilityTracker::StableVector() const {
  VectorClock stable;
  bool first = true;
  for (MemberId member : members_) {
    const VectorClock* row = MatrixRowIfPresent(delivered_by_, member);
    if (row == nullptr) {
      // No report from this member yet: nothing is stable.
      return {};
    }
    if (first) {
      stable = *row;
      first = false;
      continue;
    }
    // Pointwise minimum: senders absent from the member's report have min 0
    // and are dropped.
    stable.MeetMin(*row);
  }
  return stable;
}

void StabilityTracker::Prune() {
  if (buffered_count() == 0) {
    return;
  }
  const VectorClock stable = StableVector();
  if (!stable.empty()) {
    ReleaseUpTo(stable, "prune");
  }
}

uint64_t StabilityTracker::StableFloorFor(MemberId sender) const {
  uint64_t floor = UINT64_MAX;
  for (MemberId member : members_) {
    const VectorClock* row = MatrixRowIfPresent(delivered_by_, member);
    if (row == nullptr) {
      return 0;  // unreported member: nothing from `sender` is stable yet
    }
    floor = std::min(floor, row->Get(sender));
  }
  return floor == UINT64_MAX ? 0 : floor;
}

MemberId StabilityTracker::SlowestMemberFor(MemberId sender) const {
  return SlowestInMatrix(delivered_by_, members_, sender);
}

}  // namespace catocs
