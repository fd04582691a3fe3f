// The app-side delivery gate (stage 2): stage-1 (causal) output, FIFO per
// sender, awaiting app-level causal clearance — a cbcast never overtakes an
// abcast it depends on — and, for kTotal, the global sequence turn.
// Deadlock-free because the total order is a linear extension of
// happens-before. This is also where every delivery is finally handed to the
// application.

#ifndef REPRO_SRC_CATOCS_FIFO_LAYER_H_
#define REPRO_SRC_CATOCS_FIFO_LAYER_H_

#include <cstdint>
#include <deque>

#include "src/catocs/layer.h"
#include "src/catocs/vector_clock.h"

namespace catocs {

class FifoLayer {
 public:
  explicit FifoLayer(GroupCore* core) : core_(core) { core->fifo = this; }

  FifoLayer(const FifoLayer&) = delete;
  FifoLayer& operator=(const FifoLayer&) = delete;

  // A causally delivered message enters the app gate.
  void Enqueue(const GroupDataPtr& data, sim::Duration causal_delay);

  void TryDeliverApp();

  // Unordered bypass: straight to the application, no gating, no total seq.
  void DeliverDirect(const GroupDataPtr& data);

  // App-delivered (or skipped) count per sender.
  const VectorClock& app_delivered() const { return ad_; }

  // Joiner: adopt the group's delivery cut as the app-level floor too.
  void AdoptCut(const VectorClock& cut) { ad_.Merge(cut); }

  struct AppPending {
    GroupDataPtr data;
    sim::Duration causal_delay;
    // Observability bookkeeping (meaningful only when recorded): when the
    // message entered the gate and which condition was blocking it then.
    sim::TimePoint entered_at;
    HoldReason gate = HoldReason::kFifoGap;
  };
  // Causally delivered messages not yet handed to the app, in causal
  // delivery order (the membership and total-order layers walk this for
  // state transfer and for sequencing unordered kTotal backlogs).
  const std::deque<AppPending>& pending() const { return app_pending_; }

 private:
  // Final delivery gate: everything that happens-before this message must
  // already be visible to the application (or have been skipped at a view
  // change). Per-sender order is enforced by the FIFO scan in
  // TryDeliverApp; the gate never waits on the message's own sender entry.
  bool AppDeliverable(const GroupData& data) const;
  void DeliverToApp(const GroupDataPtr& data, uint64_t total_seq, sim::Duration causal_delay);

  GroupCore* core_;
  std::deque<AppPending> app_pending_;
  VectorClock ad_;  // app-delivered (or skipped) count per sender
};

}  // namespace catocs

#endif  // REPRO_SRC_CATOCS_FIFO_LAYER_H_
