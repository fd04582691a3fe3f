// Pluggable retention-buffer strategies for atomic delivery.
//
// A message is *stable* once every current group member has delivered it;
// until then each member retains a copy so any member can re-forward it if
// the original sender fails mid-multicast (§2). How aggressively that
// retention buffer is trimmed is a strategy decision: the paper-faithful
// full-vector tracker (stability.h) walks the whole member matrix on a
// throttled schedule, while the hybrid buffer (hybrid_buffer.h) keeps
// incremental per-sender floors and mines causal timestamps as implicit
// acks, after the designs in PAPERS.md (Nédelec et al.'s scalable causal
// broadcast, Almeida's hybrid buffering). The stability *condition* is
// identical across strategies — only when buffered copies are released
// differs — so every strategy is safe to swap under the flush protocol.

#ifndef REPRO_SRC_CATOCS_CAUSAL_BUFFER_H_
#define REPRO_SRC_CATOCS_CAUSAL_BUFFER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/catocs/hold_tap.h"
#include "src/catocs/message.h"
#include "src/catocs/retention_ring.h"
#include "src/catocs/types.h"

namespace catocs {

class CausalBufferStrategy {
 public:
  virtual ~CausalBufferStrategy() = default;

  // The member set over which the stability minimum is taken. Removing a
  // member (it failed) can only make more messages stable.
  virtual void SetMembers(const std::vector<MemberId>& members) = 0;

  // Records that `member` has contiguously delivered `vec[s]` messages from
  // each sender s — an ack vector from gossip or piggybacked on data.
  virtual void UpdateMemberVector(MemberId member, const VectorClock& vec) = 0;

  // Point update: `member` has contiguously delivered `count` messages from
  // `sender`. The per-delivery hot path.
  virtual void UpdateMemberEntry(MemberId member, MemberId sender, uint64_t count) = 0;

  // Optional evidence channel: a delivered message stamped `vt` by `sender`
  // proves `sender` had causally delivered everything at or below `vt`
  // before sending. The full-vector tracker ignores this (its release
  // schedule is the paper's baseline being measured); the hybrid buffer
  // folds it in as an implicit ack, which is what keeps its occupancy low
  // even when explicit acks are sparse.
  virtual void ObserveDeliveredTimestamp(MemberId sender, const VectorClock& vt) {
    (void)sender;
    (void)vt;
  }

  // Adds a delivered (or sent) message to the retention buffer.
  virtual void AddToBuffer(const GroupDataPtr& msg) { Retain(msg); }

  // Per-sender stability floor: min over members of their delivered count.
  virtual VectorClock StableVector() const = 0;

  // Stability floor for one sender: min over members of their contiguously
  // delivered count of `sender`'s messages (0 while any member is
  // unreported). The flow controller's credit formula reads this per tick,
  // so strategies override it with an O(members) walk rather than paying for
  // the full StableVector.
  virtual uint64_t StableFloorFor(MemberId sender) const { return StableVector().Get(sender); }

  // The member holding that floor down — the slowest receiver of `sender`'s
  // stream (lowest id on ties; 0 with no members). Drives the evict-laggard
  // overload policy.
  virtual MemberId SlowestMemberFor(MemberId sender) const = 0;

  // Drops every buffered message at or below the stability floor.
  virtual void Prune() = 0;

  // Messages not yet known stable (what a flush contributes).
  std::vector<GroupDataPtr> UnstableMessages() const { return buffer_.CollectAll(); }

  // Looks up a buffered message; nullptr when absent (already pruned).
  GroupDataPtr Find(const MessageId& id) const { return buffer_.Find(id); }

  size_t buffered_count() const { return buffer_.count(); }
  size_t buffered_bytes() const { return buffered_bytes_; }
  size_t peak_buffered_count() const { return peak_count_; }
  size_t peak_buffered_bytes() const { return peak_bytes_; }

  // Observability (DESIGN.md §6) and bounded resources (§10), both unset by
  // default (one pointer test per add/release): every release is reported to
  // the tap with its cause ("prune", "floor", "floor-sweep",
  // "evicted-sender"), and occupancy to the budget after every add/release.
  void SetHoldTap(HoldTap* tap) { tap_ = tap; }
  void SetBudget(ResourceBudget* budget) { budget_ = budget; }

 protected:
  // Every strategy keeps its copies here and decides only *when* they go;
  // each call keeps the occupancy numbers, reports releases to the tap and
  // recharges the budget. Retain is a no-op for a copy already held.
  void Retain(const GroupDataPtr& msg);
  // Releases every copy at or below `floor`, or `sender`'s up to `seq`.
  void ReleaseUpTo(const VectorClock& floor, const char* cause);
  void ReleaseUpTo(MemberId sender, uint64_t seq, const char* cause);
  // Drops the overflow strays (retention_ring.h) of senders outside the
  // sorted `members`, which are never acked under their old id again. A
  // no-op on the protocol path, where retention is always contiguous.
  void PurgeEvicted(const std::vector<MemberId>& members);

 private:
  void Released(const GroupDataPtr& msg, const char* cause);
  void ChargeBudget();

  RetentionRing buffer_;
  size_t buffered_bytes_ = 0;
  size_t peak_count_ = 0;
  size_t peak_bytes_ = 0;
  HoldTap* tap_ = nullptr;
  ResourceBudget* budget_ = nullptr;
};

const char* ToString(CausalBufferKind kind);

std::unique_ptr<CausalBufferStrategy> MakeCausalBuffer(CausalBufferKind kind);

}  // namespace catocs

#endif  // REPRO_SRC_CATOCS_CAUSAL_BUFFER_H_
