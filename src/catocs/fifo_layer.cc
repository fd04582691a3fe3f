#include "src/catocs/fifo_layer.h"

#include <set>
#include <utility>

#include "src/catocs/total_order_layer.h"

namespace catocs {

void FifoLayer::Enqueue(const GroupDataPtr& data, sim::Duration causal_delay) {
  // Fast path: nothing waiting and the app gate is already clear — skip the
  // queue round trip (entry construction, deque churn, rescans). When the
  // gate holds, the hold-reason attribution below would pick kFifoGap (the
  // kTotalTurn arm requires IsNextToDeliver to be false, which AppDeliverable
  // just ruled out), so the observability record is identical.
  if (app_pending_.empty() && AppDeliverable(*data)) {
    core_->tap.Enter(HoldReason::kFifoGap, data->id());
    core_->tap.Release(HoldReason::kFifoGap, data->id(), core_->simulator->now());
    ad_.RaiseTo(data->id().sender, data->id().seq);
    uint64_t total_seq = 0;
    if (data->mode() == OrderingMode::kTotal) {
      total_seq = core_->total->ConsumeDeliverySlot();
    }
    DeliverToApp(data, total_seq, causal_delay);
    return;
  }
  AppPending entry{data, causal_delay, core_->simulator->now(), HoldReason::kFifoGap};
  // Attribute the coming wait to whichever condition blocks *now*: the
  // app-level causal gate, or (for kTotal, once that gate clears) the
  // message's global sequence turn.
  if (core_->tap.on() && DominatesIgnoring(ad_, data->vt(), data->id().sender) &&
      data->mode() == OrderingMode::kTotal && !core_->total->IsNextToDeliver(data->id())) {
    entry.gate = HoldReason::kTotalTurn;
  }
  core_->tap.Enter(entry.gate, data->id());
  app_pending_.push_back(std::move(entry));
  TryDeliverApp();
}

bool FifoLayer::AppDeliverable(const GroupData& data) const {
  if (!DominatesIgnoring(ad_, data.vt(), data.id().sender)) {
    return false;
  }
  if (data.mode() == OrderingMode::kTotal) {
    return core_->total->IsNextToDeliver(data.id());
  }
  return true;
}

void FifoLayer::TryDeliverApp() {
  bool progress = true;
  while (progress) {
    progress = false;
    std::set<MemberId> blocked_senders;
    for (auto it = app_pending_.begin(); it != app_pending_.end(); ++it) {
      const MemberId sender = it->data->id().sender;
      if (blocked_senders.count(sender)) {
        continue;  // an earlier message from this sender is still gated
      }
      if (!AppDeliverable(*it->data)) {
        blocked_senders.insert(sender);
        continue;
      }
      AppPending entry = std::move(*it);
      app_pending_.erase(it);
      core_->tap.Release(entry.gate, entry.data->id(), entry.entered_at);
      ad_.RaiseTo(sender, entry.data->id().seq);
      uint64_t total_seq = 0;
      if (entry.data->mode() == OrderingMode::kTotal) {
        total_seq = core_->total->ConsumeDeliverySlot();
      }
      DeliverToApp(entry.data, total_seq, entry.causal_delay);
      progress = true;
      break;  // iterators invalidated; rescan
    }
  }
}

void FifoLayer::DeliverDirect(const GroupDataPtr& data) {
  DeliverToApp(data, 0, sim::Duration::Zero());
}

void FifoLayer::DeliverToApp(const GroupDataPtr& data, uint64_t total_seq,
                             sim::Duration causal_delay) {
  ++core_->stats.app_delivered;
  // App-level delivery is the provenance observation point: it is where the
  // fault rig's delivery records sit, so the hidden-channel oracle can
  // cross-check the recorder against an independent recount.
  core_->tap.Delivered(*data);
  if (!core_->delivery_handler) {
    return;
  }
  // Shares the one immutable GroupData; nothing per-recipient is copied.
  Delivery delivery;
  delivery.data = data;
  delivery.total_seq = total_seq;
  delivery.delivered_at = core_->simulator->now();
  delivery.causal_delay = causal_delay;
  core_->delivery_handler(delivery);
}

}  // namespace catocs
