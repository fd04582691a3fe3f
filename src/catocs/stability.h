// Full-vector-clock stability tracking: the paper-faithful baseline
// retention-buffer strategy (see causal_buffer.h for the interface).
//
// Members learn each other's progress from ack vectors piggybacked on data
// messages and/or periodic gossip; the stability floor is recomputed by
// walking the whole member matrix, so callers throttle Prune() off the
// per-message path. The buffering this forces is the quantity §5 predicts
// grows quadratically system-wide, so the tracker exposes exact occupancy
// numbers.
//
// Storage is tuned for the per-delivery hot path: retained copies live in
// per-sender contiguous lanes (retention_ring.h) instead of one ordered
// map, and the member matrix is a sorted flat vector of rows — binary
// search over contiguous memory instead of tree-node chasing.

#ifndef REPRO_SRC_CATOCS_STABILITY_H_
#define REPRO_SRC_CATOCS_STABILITY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/catocs/causal_buffer.h"
#include "src/catocs/message.h"

namespace catocs {

// member -> (sender -> contiguous delivered count), sorted by member. A row
// exists once the member has reported at all, even if it has delivered
// nothing yet.
using MemberMatrix = std::vector<std::pair<MemberId, VectorClock>>;

// The member's row, created in place if absent.
VectorClock& MatrixRow(MemberMatrix& matrix, MemberId member);
// The member's row, or nullptr if it has never reported.
const VectorClock* MatrixRowIfPresent(const MemberMatrix& matrix, MemberId member);
// The member of `members` whose row reports the fewest deliveries from
// `sender` (an unreported member counts as 0; the first in order wins ties;
// 0 when `members` is empty).
MemberId SlowestInMatrix(const MemberMatrix& matrix, const std::vector<MemberId>& members,
                         MemberId sender);
// Erases the rows of members absent from the sorted `members`, so departed
// members no longer hold the stability minimum down.
void EraseDepartedRows(MemberMatrix& matrix, const std::vector<MemberId>& members);
// MatrixRow with a caller-held index cache. The per-delivery update always
// touches our own row, so the cached slot hits nearly every time; rows shift
// on insert/erase, so the slot is validated (member match) before use, never
// trusted. `created` (optional) reports whether a new row was inserted.
VectorClock& MatrixRowCached(MemberMatrix& matrix, MemberId member, size_t& cache,
                             bool* created = nullptr);

class StabilityTracker : public CausalBufferStrategy {
 public:
  void SetMembers(const std::vector<MemberId>& members) override;
  void UpdateMemberVector(MemberId member, const VectorClock& vec) override;
  void UpdateMemberEntry(MemberId member, MemberId sender, uint64_t count) override;
  VectorClock StableVector() const override;
  uint64_t StableFloorFor(MemberId sender) const override;
  MemberId SlowestMemberFor(MemberId sender) const override;
  void Prune() override;

 private:
  std::vector<MemberId> members_;
  MemberMatrix delivered_by_;
  size_t row_cache_ = 0;  // last-touched row index, validated before use
};

}  // namespace catocs

#endif  // REPRO_SRC_CATOCS_STABILITY_H_
