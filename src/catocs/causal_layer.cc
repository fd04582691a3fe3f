#include "src/catocs/causal_layer.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/catocs/fifo_layer.h"
#include "src/catocs/stability_layer.h"
#include "src/catocs/total_order_layer.h"
#include "src/catocs/wire_codec.h"

namespace catocs {

void CausalLayer::Stamp(GroupData& data) {
  VectorClock vt = vd_;
  vt.Set(core_->self, data.id().seq);
  if (core_->overlay_mode()) {
    // Constant-metadata wire form: the frame carries only the sender's view
    // id (kOverlayHeaderBytes); causal order comes from FIFO tree links, not
    // from shipping a clock, so delta encoding is moot here. The clock is
    // still stamped below as internal bookkeeping — it backs the delivery
    // gate and the invariant oracles but is never charged on the wire.
    data.set_overlay_view(core_->view.id);
    data.set_vt(std::move(vt));
    core_->tap.Stamp(data.id(), "causal");
    return;
  }
  if (core_->config.delta_timestamps) {
    // Wire form: only the entries changed since our previous frame (full
    // clock on keyframes). The receiver reconstructs against its per-sender
    // reference; see DecodeDeltaFrame.
    WireVt wire = EncodeVtDelta(encoder_valid_ ? &encoder_prev_ : nullptr, vt);
    const size_t fanout = core_->view.members.size() - 1;
    core_->stats.delta_header_bytes_saved += (vt.SizeBytes() - wire.SizeBytes() + 1) * fanout;
    if (wire.keyframe) {
      ++core_->stats.delta_keyframes_sent;
    } else {
      ++core_->stats.delta_frames_sent;
    }
    data.set_wire_vt(std::move(wire));
    encoder_prev_ = vt;
    encoder_valid_ = true;
  }
  data.set_vt(std::move(vt));
  core_->tap.Stamp(data.id(), "causal");
}

void CausalLayer::OnData(MemberId src, const net::PayloadPtr& payload) {
  // Batched frame: unpack and ingest the constituents in their send order
  // (the batch-aware delivery gate — each constituent keeps its own
  // identity, timestamp, and delivery obligations).
  if (const auto* batch = net::PayloadCast<GroupBatch>(payload)) {
    if (batch->group() != core_->config.group_id) {
      return;
    }
    const GroupDataPtr& last = batch->entries().back();
    for (const GroupDataPtr& entry : batch->entries()) {
      for (const auto& predecessor : entry->piggyback()) {
        Ingest(predecessor);
      }
      if (entry->wire_vt() != nullptr) {
        DecodeDeltaFrame(*entry);
      }
      // One ack observation per frame, not per constituent: acks are
      // monotone along the sender's stream, so the last vector subsumes the
      // 31 merges the per-constituent path would have done.
      Ingest(entry, /*observe_acks=*/entry == last);
    }
    return;
  }
  const auto* data = net::PayloadCast<GroupData>(payload);
  assert(data != nullptr);
  if (data->group() != core_->config.group_id) {
    return;
  }
  auto shared = std::static_pointer_cast<const GroupData>(payload);
  // Piggybacked predecessors are ingested first so this message's causal
  // condition can be met immediately.
  for (const auto& predecessor : shared->piggyback()) {
    Ingest(predecessor);
  }
  if (shared->wire_vt() != nullptr) {
    DecodeDeltaFrame(*shared);
  }
  Ingest(shared, /*observe_acks=*/true, src);
}

void CausalLayer::DecodeDeltaFrame(const GroupData& data) {
  const WireVt& wire = *data.wire_vt();
  const MemberId sender = data.id().sender;
  auto it = std::lower_bound(delta_refs_.begin(), delta_refs_.end(), sender,
                             [](const auto& entry, MemberId m) { return entry.first < m; });
  const bool present = it != delta_refs_.end() && it->first == sender;
  if (wire.keyframe) {
    // A keyframe (re)establishes the reference unconditionally — including
    // a sender we have never heard from, e.g. one that rejoined under a
    // fresh id after a crash.
    DeltaRef ref{DecodeVtDelta(VectorClock{}, wire), data.id().seq};
    if (ref.clock != data.vt()) {
      ++core_->stats.delta_decode_mismatches;
    }
    if (present) {
      it->second = std::move(ref);
    } else {
      delta_refs_.emplace(it, sender, std::move(ref));
    }
    return;
  }
  // Delta frames advance the reference strictly frame-by-frame. The
  // transport's per-peer FIFO channel delivers them in encode order; a
  // frame reaching us out of band (flush redistribution) is simply not
  // decoded — its full clock travels with it regardless.
  if (!present || it->second.seq + 1 != data.id().seq) {
    return;
  }
  ApplyVtDelta(it->second.clock, wire);
  it->second.seq = data.id().seq;
  if (it->second.clock != data.vt()) {
    ++core_->stats.delta_decode_mismatches;
  }
}

void CausalLayer::OnViewChange(const View& view) {
  if (core_->config.delta_timestamps) {
    // Resynchronize the codec across the membership change: our next frame
    // is a keyframe, and stale references must not decode post-view deltas.
    encoder_valid_ = false;
    delta_refs_.clear();
  }
  if (!pre_view_.empty()) {
    // The stashed frames' view just installed here (the membership layer
    // already ingested the redistribution, so any causal gap between the
    // views is closed). Re-ingest in arrival order with their original
    // arrival links, so delivery re-forwards them down the *new* tree.
    std::deque<PendingMessage> stash = std::move(pre_view_);
    pre_view_.clear();
    for (PendingMessage& held : stash) {
      if (held.data->overlay_view() > view.id) {
        pre_view_.push_back(std::move(held));  // still ahead; keep waiting
      } else {
        Ingest(held.data, /*observe_acks=*/false, held.from);
      }
    }
  }
}

void CausalLayer::Ingest(const GroupDataPtr& data, bool observe_acks, MemberId from) {
  // Stability info rides on every data message.
  if (observe_acks && !data->acks().empty()) {
    core_->stability->ObserveAckVector(data->id().sender, data->acks());
  }

  if (data->mode() == OrderingMode::kUnordered) {
    core_->fifo->DeliverDirect(data);
    return;
  }

  // Overlay view gating (buffering-during-churn, DESIGN.md §11). Applied to
  // frames off a link (from != 0), never to the view-install redistribution.
  if (data->is_overlay() && from != 0 && data->overlay_view() != core_->view.id) {
    if (data->overlay_view() > core_->view.id) {
      // Sent under a view we have not installed yet: hold it until the
      // install (and its redistribution) arrives, then re-ingest.
      ++core_->stats.overlay_prebuffered;
      pre_view_.push_back(PendingMessage{data, core_->simulator->now(), from});
    } else {
      // Sent under a view we have already left. View synchrony makes this a
      // provable duplicate-or-loss: if any survivor of that view delivered
      // it, it reached us in the flush cut's redistribution (and dedups
      // below); if none did, its sender failed and the message is gone
      // beyond the cut — the same non-durability the direct path admits in
      // DropFailedSenderBacklog.
      ++core_->stats.overlay_stale_dropped;
    }
    return;
  }

  // Duplicate suppression: already causally delivered, or already pending.
  if (data->id().seq <= vd_.Get(data->id().sender)) {
    return;
  }

  // Fast path: nothing queued and the causal condition already holds — the
  // overwhelmingly common case under sustained in-order traffic (every
  // batch constituent after the first lands here too). Skips the pending
  // round trip entirely: no dedup-set insert/erase, no deque churn, no
  // post-delivery rescan (the queue is empty, so nothing can unblock).
  if (pending_.empty() && CausallyDeliverable(*data)) {
    core_->tap.Enter(HoldReason::kCausalGap, data->id(), /*blocked=*/false);
    CausalDeliver(data, core_->simulator->now(), from);
    return;
  }

  if (!pending_ids_.insert(data->id()).second) {
    return;
  }
  // Whether the gate is shut is asked of the uncounted full-clock check, so
  // instrumentation never adds to delta_fast_path_hits.
  core_->tap.Enter(HoldReason::kCausalGap, data->id(),
                   core_->tap.on() &&
                       !catocs::CausallyDeliverable(data->vt(), data->id().sender, vd_));
  pending_.push_back(PendingMessage{data, core_->simulator->now(), from});
  TryDeliverPending();
}

bool CausalLayer::CausallyDeliverable(const GroupData& data) const {
  // Delta-stamped frames answer the gate in O(changed entries) rather than
  // O(N) — see CausallyDeliverableDelta for why skipping unchanged entries
  // is exact.
  const WireVt* wire = data.wire_vt();
  if (wire != nullptr && !wire->keyframe) {
    ++core_->stats.delta_fast_path_hits;
    return CausallyDeliverableDelta(*wire, data.id().sender, data.id().seq, vd_);
  }
  return catocs::CausallyDeliverable(data.vt(), data.id().sender, vd_);
}

void CausalLayer::TryDeliverPending() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (CausallyDeliverable(*it->data)) {
        PendingMessage pending = std::move(*it);
        pending_.erase(it);
        pending_ids_.erase(pending.data->id());
        CausalDeliver(pending.data, pending.arrived_at, pending.from);
        progress = true;
        break;  // iterators invalidated; rescan
      }
    }
  }
}

void CausalLayer::CausalDeliver(const GroupDataPtr& data, sim::TimePoint arrived_at,
                                MemberId from) {
  const MemberId sender = data->id().sender;
  assert(vd_.Get(sender) + 1 == data->id().seq);
  vd_.Set(sender, data->id().seq);
  ++core_->stats.causal_delivered;

  // Overlay dissemination happens here, not at OnSend: forwarding *in causal
  // delivery order* over per-link FIFO channels is what lets receivers order
  // frames without any clock on the wire. from == 0 (redistribution) frames
  // are not re-forwarded — the coordinator served every survivor directly.
  if (data->is_overlay() && from != 0 && core_->overlay_mode()) {
    ForwardOnOverlay(data, from);
  }

  const sim::Duration causal_delay = core_->simulator->now() - arrived_at;
  if (causal_delay > sim::Duration::Zero()) {
    ++core_->stats.delayed_deliveries;
    core_->stats.total_causal_delay += causal_delay;
  }
  core_->tap.Release(HoldReason::kCausalGap, data->id(), arrived_at);

  // Protocol order, preserved from the monolith: retain for atomic delivery,
  // note our own progress, give the total-order layer its sequencing shot,
  // then hand the message to the app-side FIFO gate.
  core_->stability->OnCausalDeliver(data);
  core_->total->OnCausalDeliver(*data);
  core_->fifo->Enqueue(data, causal_delay);
}

void CausalLayer::ForwardOnOverlay(const GroupDataPtr& data, MemberId from) {
  const uint32_t port = GroupPorts::Data(core_->config.group_id);
  size_t links = 0;
  for (MemberId neighbor : core_->overlay.neighbors()) {
    if (neighbor == from) {
      continue;  // never echo a frame back up its arrival link
    }
    core_->transport->SendReliable(neighbor, port, data);
    ++links;
  }
  if (links > 0) {
    // Header accounting lives at the transmission site: a tree crosses each
    // edge once, so summing links across members matches the direct path's
    // per-send (N−1) charge — same totals, constant per-transmission cost.
    core_->stats.overlay_forwards += links;
    core_->stats.data_transmissions += links;
    core_->stats.ordering_header_bytes += data->HeaderBytes() * links;
  }
}

void CausalLayer::DropFailedSenderBacklog(const ViewInstall& install) {
  for (const auto& [sender, cut] : install.final_cut().entries()) {
    if (std::find(install.members().begin(), install.members().end(), sender) !=
        install.members().end()) {
      continue;  // live senders have reliable FIFO channels; no gaps
    }
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->data->id().sender == sender && it->data->id().seq > cut) {
        ++core_->stats.messages_dropped_at_view_change;
        core_->tap.Drop(HoldReason::kCausalGap, it->data->id(), it->arrived_at,
                        "failed-sender-backlog");
        pending_ids_.erase(it->data->id());
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

}  // namespace catocs
