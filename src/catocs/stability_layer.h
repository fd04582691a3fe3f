// Stability / atomic-delivery layer: owns the retention-buffer strategy
// (causal_buffer.h), stamps ack vectors onto outgoing data, consumes ack
// vectors from data and gossip, and runs the periodic ack-gossip timer.
// Pruning is throttled on the per-message path (the full-vector strategy
// walks the whole buffer and the member matrix); the periodic gossip path
// prunes unconditionally so buffers always drain at quiescence.

#ifndef REPRO_SRC_CATOCS_STABILITY_LAYER_H_
#define REPRO_SRC_CATOCS_STABILITY_LAYER_H_

#include <memory>
#include <vector>

#include "src/catocs/causal_buffer.h"
#include "src/catocs/layer.h"

namespace catocs {

class OverlayCausalStrategy;

class StabilityLayer {
 public:
  // Reads core->overlay and core->tap: both must be set up first.
  explicit StabilityLayer(GroupCore* core);

  StabilityLayer(const StabilityLayer&) = delete;
  StabilityLayer& operator=(const StabilityLayer&) = delete;

  // Starts and stops the ack-gossip timer.
  void Start();
  void Stop();
  // Stamps the piggybacked ack vector and, under the footnote-4 variant, the
  // unstable causal predecessors.
  void Stamp(GroupData& data);
  // Handler for the group's Ack port: gossiped ack vectors and overlay
  // stability floors.
  void OnAck(MemberId src, const net::PayloadPtr& payload);
  // New member set: re-anchor the stability minimum and prune.
  void OnViewChange(const View& view);

  // A message passed the causal gate: retain it (stripped of piggyback),
  // record our own delivery, and feed the strategy's evidence channel.
  void OnCausalDeliver(const GroupDataPtr& data);

  // An explicit ack vector arrived (piggybacked on data or gossiped).
  void ObserveAckVector(MemberId member, const VectorClock& vec);

  void Prune() { strategy_->Prune(); }
  std::vector<GroupDataPtr> UnstableMessages() const { return strategy_->UnstableMessages(); }

  const CausalBufferStrategy& strategy() const { return *strategy_; }
  size_t buffered_messages() const { return strategy_->buffered_count(); }
  size_t buffered_bytes() const { return strategy_->buffered_bytes(); }
  size_t peak_buffered_messages() const { return strategy_->peak_buffered_count(); }
  size_t peak_buffered_bytes() const { return strategy_->peak_buffered_bytes(); }

 private:
  void MaybePrune();
  void GossipAcks();
  // Overlay replacement for flat ack gossip: up-report the subtree floor to
  // the overlay parent, or (at the root) adopt it and flood the announcement
  // down. O(degree) frames per member per round instead of O(N).
  void GossipOverlayFloor();
  void OnStabilityFloor(MemberId src, const StabilityFloor& frame);

  GroupCore* core_;
  std::unique_ptr<CausalBufferStrategy> strategy_;
  // Downcast view of strategy_ when the group runs the overlay path; null
  // otherwise, so non-overlay code never even branches past the pointer.
  OverlayCausalStrategy* overlay_strategy_ = nullptr;
  sim::TimePoint last_prune_ = sim::TimePoint::Zero();
  std::unique_ptr<sim::PeriodicTimer> gossip_timer_;
};

}  // namespace catocs

#endif  // REPRO_SRC_CATOCS_STABILITY_LAYER_H_
