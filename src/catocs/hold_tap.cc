#include "src/catocs/hold_tap.h"

#include <utility>

#include "src/obs/provenance.h"
#include "src/sim/simulator.h"

namespace catocs {
namespace {

// How each hold ends in a message's span timeline: a delivery-gating wait in
// a delivery, an order assignment by stamping the sequence number, a
// retained copy by becoming stable.
sim::SpanEvent ReleaseEvent(HoldReason reason) {
  return reason == HoldReason::kOrderAssign ? sim::SpanEvent::kStamp
         : reason == HoldReason::kStability ? sim::SpanEvent::kStable
                                            : sim::SpanEvent::kDeliver;
}

}  // namespace

void HoldTap::Entered(HoldReason reason, const MessageId& id, bool blocked) {
  const bool timed = reason == HoldReason::kStability || reason == HoldReason::kOrderAssign;
  if (timed && !entered_[static_cast<size_t>(reason)].emplace(id, simulator_->now()).second) {
    return;
  }
  stats_->RecordEnter(reason);
  if (reason != HoldReason::kFlushBlocked) {
    Span(id, sim::SpanEvent::kEnter, LayerOf(reason), blocked ? ToString(reason) : "");
  }
}

void HoldTap::Drop(HoldReason reason, const MessageId& id, sim::TimePoint entered,
                   const char* why) {
  if (on()) {
    stats_->RecordRelease(reason, simulator_->now() - entered);
    Span(id, sim::SpanEvent::kDrop, LayerOf(reason), why);
  }
}

void HoldTap::FinishTimed(HoldReason reason, const MessageId& id, std::string note) {
  auto& timed = entered_[static_cast<size_t>(reason)];
  auto it = timed.find(id);
  // Not entered here, e.g. a copy retained from another member's flush
  // contribution without being causally delivered: released silently.
  if (it != timed.end()) {
    const sim::TimePoint entered = it->second;
    timed.erase(it);
    Finish(reason, id, entered, std::move(note));
  }
}

void HoldTap::Finish(HoldReason reason, const MessageId& id, sim::TimePoint entered,
                     std::string note) {
  const sim::TimePoint now = simulator_->now();
  stats_->RecordRelease(reason, now - entered);
  if (reason != HoldReason::kFlushBlocked) {
    Span(id, ReleaseEvent(reason), LayerOf(reason), std::move(note));
  }
  // A blocked send that was dropped or queued again has no id (seq 0).
  if (provenance_ == nullptr || id.seq == 0) {
    return;
  }
  if (reason == HoldReason::kCausalGap) {
    // Stage-1 arrival first, then the hold: a later message's causal wait
    // that this delivery unblocks classifies against this arrival time.
    provenance_->RecordCausalDelivery(SpanKey(id), self_, now);
  }
  // A stability hold costs buffer memory, not delivery latency: tallied,
  // never classified as false causality.
  provenance_->RecordHold(SpanKey(id), self_, LayerOf(reason), entered, now,
                          /*gates_delivery=*/reason != HoldReason::kStability);
}

void HoldTap::RecordFrontier(const GroupData& data) {
  // Unordered messages carry no timestamp, hence no frontier to classify.
  if (data.mode() == OrderingMode::kUnordered) {
    return;
  }
  // The newest predecessor per clock entry, plus the sender's own previous
  // message (the FIFO edge).
  std::vector<obs::MsgKey> frontier;
  frontier.reserve(data.vt().entry_count());
  for (const auto& [member, value] : data.vt().entries()) {
    if (member != data.id().sender) {
      frontier.push_back(SpanKey(MessageId{member, value}));
    } else if (data.id().seq > 1) {
      frontier.push_back(SpanKey(MessageId{member, data.id().seq - 1}));
    }
  }
  provenance_->RecordDelivery(SpanKey(data.id()), self_, simulator_->now(), frontier);
}

void HoldTap::Depends(const MessageId& msg, const MessageId& dep) {
  if (provenance_ != nullptr) {
    provenance_->DeclareSemanticDep(SpanKey(msg), SpanKey(dep));
  }
}

void HoldTap::Unbatched(const std::vector<GroupDataPtr>& entries, bool sent) {
  if (!on()) {
    return;
  }
  // Each constituent closes its own batch-hold span.
  const std::string note =
      sent ? "flush n=" + std::to_string(entries.size()) : std::string("sender-stopped");
  for (const GroupDataPtr& entry : entries) {
    Span(entry->id(), sent ? sim::SpanEvent::kDeliver : sim::SpanEvent::kDrop, "batch", note);
  }
}

void HoldTap::Span(const MessageId& id, sim::SpanEvent event, const char* layer,
                   std::string note) {
  simulator_->spans().Record(SpanKey(id), self_, simulator_->now(), event, layer,
                             std::move(note));
}

}  // namespace catocs
