#include "src/catocs/sender_batch.h"

#include <utility>

#include "src/mem/pool.h"

namespace catocs {

SenderBatcher::~SenderBatcher() {
  if (flush_timer_.valid()) {
    core_->simulator->Cancel(flush_timer_);
  }
}

void SenderBatcher::Append(const GroupDataPtr& data) {
  // Each constituent opens its own batch-hold span at entry: the time it
  // spends parked here (waiting for the batch to fill or the timer) is part
  // of *its* lifecycle, not the frame's.
  core_->tap.Batched(data->id());
  pending_.push_back(data);
  pending_bytes_ += data->SizeBytes() + data->HeaderBytes();
  ChargeBudget();
  if (pending_.size() >= core_->config.batching) {
    FlushNow();
    return;
  }
  if (!flush_timer_.valid()) {
    ArmTimer();
  }
}

void SenderBatcher::ArmTimer() {
  flush_timer_ = core_->simulator->ScheduleAfter(kBatchFlushDelay, [this] {
    flush_timer_ = sim::EventId{};
    FlushNow();
  });
}

void SenderBatcher::FlushNow() {
  if (flush_timer_.valid()) {
    core_->simulator->Cancel(flush_timer_);
    flush_timer_ = sim::EventId{};
  }
  if (pending_.empty()) {
    return;
  }
  auto batch = mem::MakePooled<GroupBatch>(core_->config.group_id, std::move(pending_));
  pending_.clear();  // moved-from: restore to a known-empty state
  pending_bytes_ = 0;
  ChargeBudget();

  ++core_->stats.batches_sent;
  core_->stats.batched_data_msgs += batch->entries().size();
  core_->stats.ordering_header_bytes +=
      batch->HeaderBytes() * (core_->view.members.size() - 1);
  core_->stats.data_transmissions += core_->view.members.size() - 1;
  core_->tap.Unbatched(batch->entries(), /*sent=*/true);
  core_->BroadcastReliable(GroupPorts::Data(core_->config.group_id), batch);
  core_->SyncTransportBudget();
}

void SenderBatcher::DropPending() {
  if (flush_timer_.valid()) {
    core_->simulator->Cancel(flush_timer_);
    flush_timer_ = sim::EventId{};
  }
  core_->tap.Unbatched(pending_, /*sent=*/false);
  pending_.clear();
  pending_bytes_ = 0;
  ChargeBudget();
}

}  // namespace catocs
