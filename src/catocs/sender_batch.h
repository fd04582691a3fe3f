// Sender-side batching (GroupConfig::batching > 1): consecutive ordered
// sends coalesce into one GroupBatch frame instead of one network frame
// each. Constituents are stamped and self-delivered individually by the
// normal send path before they reach the batcher — only the *broadcast* is
// deferred — so batching changes when bytes hit the wire, never what the
// protocol delivers.
//
// Flush triggers, in priority order:
//   * the batch reaches config.batching constituents (size flush);
//   * kBatchFlushDelay elapses after the first pending constituent
//     (timer flush, so a quiet sender never strands a partial batch);
//   * the membership layer is about to block the group for a flush
//     (FlushNow, called at every flushing_ transition) — a batch is
//     broadcast whole before the view change, so it never spans one.
//
// The batcher owns the ordering_header_bytes charge for batched sends: one
// base frame plus delta-encoded per-entry metadata (GroupBatch::HeaderBytes)
// per destination, instead of a full header per constituent.

#ifndef REPRO_SRC_CATOCS_SENDER_BATCH_H_
#define REPRO_SRC_CATOCS_SENDER_BATCH_H_

#include <vector>

#include "src/catocs/layer.h"

namespace catocs {

class SenderBatcher {
 public:
  explicit SenderBatcher(GroupCore* core) : core_(core) { core->batcher = this; }
  ~SenderBatcher();

  SenderBatcher(const SenderBatcher&) = delete;
  SenderBatcher& operator=(const SenderBatcher&) = delete;

  // Defers the broadcast of an already-stamped, already-self-delivered
  // ordered message. Flushes when the batch is full.
  void Append(const GroupDataPtr& data);

  // Broadcasts the pending batch immediately (membership flush about to
  // block the group, or the member stopping). No-op when empty.
  void FlushNow();

  // A crashed member abandons its pending batch: the constituents were
  // never broadcast, exactly like in-flight unbatched frames lost with the
  // transport. (Atomic-but-not-durable, as ever.)
  void DropPending();

 private:
  void ArmTimer();
  // Reports pending-constituent occupancy to the group budget (no-op when
  // unbounded).
  void ChargeBudget() {
    if (core_->budget.bounded()) {
      core_->budget.Set(ResourceBudget::kBatcher, pending_bytes_, pending_.size());
    }
  }

  GroupCore* core_;
  std::vector<GroupDataPtr> pending_;
  size_t pending_bytes_ = 0;
  sim::EventId flush_timer_{};
};

}  // namespace catocs

#endif  // REPRO_SRC_CATOCS_SENDER_BATCH_H_
