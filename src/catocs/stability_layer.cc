#include "src/catocs/stability_layer.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/catocs/causal_layer.h"
#include "src/catocs/flow_control.h"
#include "src/catocs/membership_layer.h"
#include "src/catocs/overlay_buffer.h"
#include "src/mem/pool.h"

namespace catocs {

StabilityLayer::StabilityLayer(GroupCore* core)
    : core_(core), strategy_(MakeCausalBuffer(core->config.causal_buffer)) {
  core->stability = this;
  if (core->config.budget.bounded()) {
    strategy_->SetBudget(&core->budget);
  }
  if (core->overlay_mode()) {
    overlay_strategy_ = static_cast<OverlayCausalStrategy*>(strategy_.get());
  }
  strategy_->SetMembers(core->view.members);
  if (overlay_strategy_ != nullptr) {
    // The founding view's tree is already built (GroupCore's constructor
    // builds it before any layer exists); later rewires come through
    // OnViewChange.
    overlay_strategy_->SetReportSet(core->self, core->overlay.children());
  }
  if (core->tap.on()) {
    strategy_->SetHoldTap(&core->tap);
  }
}

void StabilityLayer::Start() {
  if (core_->config.ack_gossip_interval > sim::Duration::Zero()) {
    gossip_timer_ = std::make_unique<sim::PeriodicTimer>(
        core_->simulator, core_->config.ack_gossip_interval, [this] { GossipAcks(); });
    gossip_timer_->Start(core_->config.ack_gossip_interval);
  }
}

void StabilityLayer::Stop() {
  if (gossip_timer_) {
    gossip_timer_->Stop();
  }
}

void StabilityLayer::Stamp(GroupData& data) {
  // Overlay mode: no piggybacked ack vectors — a per-message delivered-vector
  // is exactly the O(N) header the constant-metadata path forbids. Stability
  // evidence travels on the tree floor frames instead.
  if (!core_->overlay_mode()) {
    data.set_acks(core_->causal->delivered());
  }
  if (core_->config.piggyback_causal) {
    // Footnote-4 variant: carry every unstable causal predecessor so the
    // receiver never has to wait — at the price of (much) larger messages.
    std::vector<GroupDataPtr> predecessors = strategy_->UnstableMessages();
    core_->stats.piggyback_msgs_carried += predecessors.size();
    for (const auto& p : predecessors) {
      core_->stats.piggyback_bytes += p->SizeBytes() + p->HeaderBytes();
    }
    data.set_piggyback(std::move(predecessors));
  }
}

void StabilityLayer::OnAck(MemberId src, const net::PayloadPtr& payload) {
  if (const auto* floor = net::PayloadCast<StabilityFloor>(payload)) {
    if (floor->group() == core_->config.group_id) {
      OnStabilityFloor(src, *floor);
    }
    return;
  }
  const auto* acks = net::PayloadCast<AckVector>(payload);
  assert(acks != nullptr);
  if (acks->group() == core_->config.group_id) {
    ObserveAckVector(src, acks->delivered());
  }
}

void StabilityLayer::OnStabilityFloor(MemberId src, const StabilityFloor& frame) {
  // A floor computed against another tree must not be read against ours:
  // subtrees are a pure function of the view, so a view-id mismatch means the
  // evidence sets don't line up (see overlay_buffer.h). Drop it; aggregation
  // re-converges from same-view reports within ~depth gossip rounds.
  if (overlay_strategy_ == nullptr || frame.view_id() != core_->view.id) {
    return;
  }
  if (frame.announce()) {
    // Root's global floor flooding down: adopt, release, relay to our own
    // children (same frame — the view id still matches by construction).
    if (overlay_strategy_->AdoptFloor(frame.floor())) {
      ++core_->stats.overlay_floor_updates;
      if (core_->flow != nullptr) {
        core_->flow->OnProgress();
      }
    }
    for (MemberId child : core_->overlay.children()) {
      core_->transport->SendUnreliable(child, GroupPorts::Ack(core_->config.group_id),
                                       mem::MakePooled<StabilityFloor>(
                                           core_->config.group_id, frame.view_id(),
                                           /*announce=*/true, frame.floor()));
      ++core_->stats.ack_msgs_sent;
    }
    return;
  }
  // A child's subtree floor: fold it into the aggregation matrix. It only
  // counts if src actually is one of our children under this tree — a frame
  // from anyone else raced a rewire and its subtree claim is meaningless.
  const auto& children = core_->overlay.children();
  if (std::find(children.begin(), children.end(), src) != children.end()) {
    overlay_strategy_->UpdateMemberVector(src, frame.floor());
  }
}

void StabilityLayer::OnViewChange(const View& view) {
  strategy_->SetMembers(view.members);
  if (overlay_strategy_ != nullptr) {
    // New tree, new aggregation set: forget child reports from the old tree
    // (their subtree claims no longer describe our subtrees) and restart from
    // same-view evidence. The adopted release floor survives — see
    // overlay_buffer.h for why that stays safe across views.
    overlay_strategy_->SetReportSet(core_->self, core_->overlay.children());
  }
  strategy_->Prune();
  if (core_->flow != nullptr) {
    core_->flow->OnProgress();
  }
}

void StabilityLayer::OnCausalDeliver(const GroupDataPtr& data) {
  core_->tap.Enter(HoldReason::kStability, data->id());
  // Retain for atomic delivery until stable (without any piggybacked
  // predecessors, which are buffered in their own right). The empty-piggyback
  // check here keeps the common case free of a refcount round trip.
  if (data->piggyback().empty()) {
    strategy_->AddToBuffer(data);
  } else {
    strategy_->AddToBuffer(StripPiggyback(data));
  }
  strategy_->UpdateMemberEntry(core_->self, data->id().sender, data->id().seq);
  // The message's own timestamp is implicit-ack evidence about its sender
  // (a no-op for the full-vector baseline).
  strategy_->ObserveDeliveredTimestamp(data->id().sender, data->vt());
  MaybePrune();
  // Every delivery can advance the stability floor — let a backpressured
  // sender recheck its credits without waiting for the next retry tick.
  if (core_->flow != nullptr) {
    core_->flow->OnProgress();
  }
}

void StabilityLayer::ObserveAckVector(MemberId member, const VectorClock& vec) {
  strategy_->UpdateMemberVector(member, vec);
  MaybePrune();
  if (core_->flow != nullptr) {
    core_->flow->OnProgress();
  }
}

void StabilityLayer::MaybePrune() {
  if (core_->simulator->now() - last_prune_ >= core_->config.prune_interval) {
    last_prune_ = core_->simulator->now();
    strategy_->Prune();
  }
}

void StabilityLayer::GossipAcks() {
  if (core_->membership->flushing()) {
    return;
  }
  if (overlay_strategy_ != nullptr) {
    GossipOverlayFloor();
    return;
  }
  strategy_->Prune();
  auto acks = mem::MakePooled<AckVector>(core_->config.group_id, core_->causal->delivered());
  for (MemberId member : core_->view.members) {
    if (member != core_->self) {
      core_->transport->SendUnreliable(member, GroupPorts::Ack(core_->config.group_id), acks);
      ++core_->stats.ack_msgs_sent;
    }
  }
}

void StabilityLayer::GossipOverlayFloor() {
  // Refresh our own row (self's delivered-vector is always honest evidence
  // about self's subtree leaf contribution), then fold in the children's
  // last up-reports.
  overlay_strategy_->UpdateMemberVector(core_->self, core_->causal->delivered());
  VectorClock subtree = overlay_strategy_->SubtreeFloor();
  if (core_->overlay.is_root()) {
    // Our subtree is the whole view: the subtree floor IS the global floor.
    if (overlay_strategy_->AdoptFloor(subtree)) {
      ++core_->stats.overlay_floor_updates;
      if (core_->flow != nullptr) {
        core_->flow->OnProgress();
      }
    }
    const VectorClock global = overlay_strategy_->StableVector();
    for (MemberId child : core_->overlay.children()) {
      core_->transport->SendUnreliable(
          child, GroupPorts::Ack(core_->config.group_id),
          mem::MakePooled<StabilityFloor>(core_->config.group_id, core_->view.id,
                                          /*announce=*/true, global));
      ++core_->stats.ack_msgs_sent;
    }
  } else if (core_->overlay.in_overlay() && subtree.entry_count() > 0) {
    core_->transport->SendUnreliable(
        core_->overlay.parent(), GroupPorts::Ack(core_->config.group_id),
        mem::MakePooled<StabilityFloor>(core_->config.group_id, core_->view.id,
                                        /*announce=*/false, std::move(subtree)));
    ++core_->stats.ack_msgs_sent;
  }
}

}  // namespace catocs
