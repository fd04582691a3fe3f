// Causal delivery (cbcast): the Birman–Schiper–Stephenson vector-clock delay
// queue. Stage 1 of the delivery cascade — a message leaves this layer only
// when everything that happens-before it has been causally delivered here.

#ifndef REPRO_SRC_CATOCS_CAUSAL_LAYER_H_
#define REPRO_SRC_CATOCS_CAUSAL_LAYER_H_

#include <cstdint>
#include <deque>
#include <set>
#include <utility>
#include <vector>

#include "src/mem/pool.h"

#include "src/catocs/layer.h"
#include "src/catocs/vector_clock.h"

namespace catocs {

class CausalLayer {
 public:
  explicit CausalLayer(GroupCore* core) : core_(core) { core->causal = this; }

  CausalLayer(const CausalLayer&) = delete;
  CausalLayer& operator=(const CausalLayer&) = delete;

  // Stamps the vector timestamp: the delivered-vector with our own entry
  // advanced to this send — one contiguous copy, no per-entry churn.
  void Stamp(GroupData& data);
  // Handler for the group's Data port: a single frame or a batch.
  void OnData(MemberId src, const net::PayloadPtr& payload);

  // Allocates the per-sender sequence number for an outgoing ordered send.
  uint64_t AllocateSendSeq() { return ++send_seq_; }
  // Highest sequence allocated so far (the flow controller's credit formula
  // reads send_seq − stable floor).
  uint64_t send_seq() const { return send_seq_; }

  // Entry point for a data message (local self-delivery, network arrival, or
  // view-change redistribution): observes piggybacked acks, dedups, queues,
  // and drives the cascade as far as it will go. `observe_acks=false` lets
  // the batch unpacker observe one ack vector per frame instead of one per
  // constituent (ack vectors are monotone along a sender's stream, so the
  // last one subsumes the rest).
  //
  // `from` matters only on the overlay path: the link the frame arrived on
  // (or self for an origin send), so forward-on-delivery floods to every
  // overlay neighbor *except* that link. 0 — the default, used by the
  // view-install redistribution path — means "local": no view gating and no
  // re-forwarding (everyone on the new view received the same redistribution
  // directly from the coordinator).
  void Ingest(const GroupDataPtr& data, bool observe_acks = true, MemberId from = 0);

  void TryDeliverPending();

  // Contiguous causally-delivered count per sender.
  const VectorClock& delivered() const { return vd_; }
  size_t delay_queue_length() const { return pending_.size(); }

  // Joiner: adopt the group's delivery cut as our floor (history we never
  // see, by design).
  void AdoptCut(const VectorClock& cut) { vd_.Merge(cut); }

  // Failed-sender cleanup at a view install: messages from a failed sender
  // *beyond* the flush cut are lost for good — no survivor holds a copy, and
  // nothing deliverable can depend on them (a dependent message would have
  // required its own sender to causally deliver the predecessor first, which
  // would have pulled it into the cut). Dropping them is the protocol
  // admitting non-durability.
  void DropFailedSenderBacklog(const ViewInstall& install);

  // View change: both delta-codec ends resynchronize on a keyframe (the
  // encoder's next frame carries the full clock; decoder references reset),
  // and the overlay path re-ingests frames stashed for the new view.
  void OnViewChange(const View& view);

 private:
  struct PendingMessage {
    GroupDataPtr data;
    sim::TimePoint arrived_at;
    MemberId from = 0;  // overlay arrival link; see Ingest
  };

  // Receiver half of the delta codec: the last reconstructed clock per
  // sender, advanced strictly along each sender's frame stream (the
  // transport's per-peer FIFO order).
  struct DeltaRef {
    VectorClock clock;
    uint64_t seq = 0;  // seq of the frame `clock` was decoded from
  };

  bool CausallyDeliverable(const GroupData& data) const;
  void CausalDeliver(const GroupDataPtr& data, sim::TimePoint arrived_at, MemberId from = 0);
  // Decodes a delta-stamped frame against the sender's reference and
  // cross-checks the reconstruction (counted in stats on mismatch).
  void DecodeDeltaFrame(const GroupData& data);
  // Overlay forward-on-delivery: push the just-delivered frame onto every
  // tree link except the one it arrived on, in causal delivery order — the
  // per-link FIFO discipline the constant-metadata path's correctness rests
  // on (DESIGN.md §11).
  void ForwardOnOverlay(const GroupDataPtr& data, MemberId from);

  GroupCore* core_;
  uint64_t send_seq_ = 0;
  VectorClock vd_;  // contiguous causally-delivered count per sender
  std::deque<PendingMessage> pending_;
  // Buffering-during-churn (overlay): frames tagged with a view id ahead of
  // ours, held until that view installs here — the install's redistribution
  // closes any causal gap before these re-enter Ingest.
  std::deque<PendingMessage> pre_view_;
  // Fast duplicate check for pending_. Pool-backed: entries come and go once
  // per out-of-order arrival, and tree nodes are exactly the churn the
  // size-class pool exists for.
  std::set<MessageId, std::less<MessageId>, mem::PoolAllocator<MessageId>> pending_ids_;

  // Sender half of the delta codec (config.delta_timestamps): the clock
  // stamped on our previous frame; invalid forces the next frame to be a
  // keyframe (stream start, view change).
  VectorClock encoder_prev_;
  bool encoder_valid_ = false;
  // Sorted by member. Flat: one reference per live sender, looked up on
  // every delta-stamped frame — binary search over a contiguous vector.
  std::vector<std::pair<MemberId, DeltaRef>> delta_refs_;
};

}  // namespace catocs

#endif  // REPRO_SRC_CATOCS_CAUSAL_LAYER_H_
