// Total ordering (abcast): a single group-wide sequence consistent with
// causality, assigned either by a fixed sequencer (lowest member id) or by a
// rotating token. This layer owns sequence assignment and the delivery
// counter; the FIFO layer consults it for the "is it my turn" check on every
// kTotal delivery.

#ifndef REPRO_SRC_CATOCS_TOTAL_ORDER_LAYER_H_
#define REPRO_SRC_CATOCS_TOTAL_ORDER_LAYER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "src/catocs/layer.h"

namespace catocs {

class TotalOrderLayer {
 public:
  explicit TotalOrderLayer(GroupCore* core) : core_(core) { core->total = this; }

  TotalOrderLayer(const TotalOrderLayer&) = delete;
  TotalOrderLayer& operator=(const TotalOrderLayer&) = delete;

  // Token mode: the lowest member seeds the token. Stop drops it.
  void Start();
  void Stop() { holding_token_ = false; }
  // Handlers for the group's Order and Token ports.
  void OnOrder(const net::PayloadPtr& payload);
  void OnToken(const net::PayloadPtr& payload);
  // After a view install: the new sequencer orders any held messages that
  // lost their assignment with the old sequencer; in token mode the lowest
  // survivor re-seeds the token.
  void OnViewChange();

  // Sequencing hook on the causal-delivery path: the sequencer assigns
  // immediately; token holders queue until their turn.
  void OnCausalDeliver(const GroupData& data);

  // --- FIFO-layer gate ------------------------------------------------------
  bool IsNextToDeliver(const MessageId& id) const;
  // Claims the next delivery slot for the message being delivered now.
  uint64_t ConsumeDeliverySlot();

  // --- membership/flush support ---------------------------------------------
  uint64_t next_total_deliver() const { return next_total_deliver_; }
  std::vector<std::pair<MessageId, uint64_t>> KnownAssignments() const;
  // Joiner: start delivering at the cut its install names.
  void AdoptJoinerFloor(uint64_t next_deliver);
  // Adopt the coordinator's consolidated total order *authoritatively*. The
  // coordinator merged every survivor's known assignments (renumbering those
  // at or above the delivery base to close gaps left by a dead sequencer),
  // so the merged map supersedes anything we hold — including a stale
  // in-flight assignment from the old sequencer that the renumbering moved.
  void AdoptConsolidatedOrder(const ViewInstall& install);

 private:
  void SequencerAssign(const MessageId& id);
  // Used at view changes and token turns: sequence every causally delivered
  // but still unordered kTotal message, in local (causal) delivery order.
  std::vector<std::pair<MessageId, uint64_t>> AssignPendingUnorderedTotals();
  void ApplyAssignments(const std::vector<std::pair<MessageId, uint64_t>>& assignments);
  void PassToken(uint64_t next_total_seq);
  // Reports pending-set occupancy (known-but-undelivered assignments plus
  // unsequenced totals) to the group budget. No-op when unbounded.
  void SyncBudget();

  GroupCore* core_;
  uint64_t next_total_assign_ = 1;  // sequencer/token holder only
  uint64_t next_total_deliver_ = 1;
  std::map<uint64_t, MessageId> order_by_seq_;
  std::map<MessageId, uint64_t> seq_by_id_;
  // Rolling window of recent assignments carried by the token so the next
  // holder cannot double-assign a message whose OrderAssignment broadcast is
  // still in flight. Older assignments have long since been delivered by the
  // reliable broadcast, so a bounded window suffices. Kept as a flat vector
  // sorted by seq — the window is append-mostly and trimmed from the front,
  // and every token pass walks it linearly, so a node-per-entry map bought
  // nothing but cache misses.
  static constexpr uint64_t kTokenAssignmentWindow = 512;
  using SeqAssignment = std::pair<uint64_t, MessageId>;
  // Merges fresh_ into the window.
  void MergeRecentAssignments();
  std::vector<SeqAssignment> recent_assignments_;  // sorted by seq ascending
  // Scratch for one ApplyAssignments: the newly accepted assignments, and
  // the merge output that becomes the next window. Reused across calls, and
  // done with before delivery can re-enter ApplyAssignments.
  std::vector<SeqAssignment> fresh_;
  std::vector<SeqAssignment> merged_;
  // Token mode: causally delivered kTotal messages not yet sequenced, in
  // local causal delivery order (a linear extension of happens-before).
  std::deque<MessageId> unassigned_total_;
  bool holding_token_ = false;
};

}  // namespace catocs

#endif  // REPRO_SRC_CATOCS_TOTAL_ORDER_LAYER_H_
