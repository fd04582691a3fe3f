#include "src/catocs/total_order_layer.h"

#include <algorithm>
#include <cassert>

#include "src/catocs/fifo_layer.h"
#include "src/mem/pool.h"

namespace catocs {

namespace {

// Delay before the token is passed on (models token processing).
constexpr sim::Duration kTokenPassDelay = sim::Duration::Micros(200);

}  // namespace

void TotalOrderLayer::Start() {
  if (core_->config.total_order_mode == TotalOrderMode::kToken &&
      core_->self == core_->view.members.front()) {
    // Seed the token at the lowest member.
    holding_token_ = true;
    core_->simulator->ScheduleAfter(kTokenPassDelay, [this] {
      if (holding_token_) {
        PassToken(next_total_assign_);
      }
    });
  }
}

void TotalOrderLayer::SyncBudget() {
  if (!core_->budget.bounded()) {
    return;
  }
  // Pending set = assignments not yet consumed by delivery plus causally
  // delivered totals awaiting a sequence. The byte estimate is the map-node
  // footprint (seq + MessageId + tree overhead), not payload bytes — those
  // are charged by the retention component.
  static constexpr size_t kPendingEntryBytes = 64;
  const size_t entries = order_by_seq_.size() + unassigned_total_.size();
  core_->budget.Set(ResourceBudget::kTotalPending, entries * kPendingEntryBytes, entries);
}

void TotalOrderLayer::OnCausalDeliver(const GroupData& data) {
  if (data.mode() != OrderingMode::kTotal) {
    return;
  }
  if (core_->tap.on() && !seq_by_id_.count(data.id())) {
    core_->tap.Enter(HoldReason::kOrderAssign, data.id());
  }
  if (core_->config.total_order_mode == TotalOrderMode::kSequencer) {
    if (core_->IsSequencer() && !seq_by_id_.count(data.id())) {
      SequencerAssign(data.id());
    }
  } else if (!seq_by_id_.count(data.id())) {
    unassigned_total_.push_back(data.id());
  }
  SyncBudget();
}

bool TotalOrderLayer::IsNextToDeliver(const MessageId& id) const {
  auto it = seq_by_id_.find(id);
  return it != seq_by_id_.end() && it->second == next_total_deliver_;
}

uint64_t TotalOrderLayer::ConsumeDeliverySlot() {
  const uint64_t total_seq = next_total_deliver_++;
  order_by_seq_.erase(total_seq);
  SyncBudget();
  return total_seq;
}

std::vector<std::pair<MessageId, uint64_t>> TotalOrderLayer::KnownAssignments() const {
  return std::vector<std::pair<MessageId, uint64_t>>(seq_by_id_.begin(), seq_by_id_.end());
}

void TotalOrderLayer::AdoptJoinerFloor(uint64_t next_deliver) {
  next_total_deliver_ = std::max(next_total_deliver_, next_deliver);
}

void TotalOrderLayer::AdoptConsolidatedOrder(const ViewInstall& install) {
  seq_by_id_.clear();
  order_by_seq_.clear();
  recent_assignments_.clear();
  ApplyAssignments(install.assignments());
  next_total_assign_ = std::max(next_total_assign_, install.next_total_seq());
  SyncBudget();
}

void TotalOrderLayer::SequencerAssign(const MessageId& id) {
  const uint64_t seq = next_total_assign_++;
  std::vector<std::pair<MessageId, uint64_t>> batch{{id, seq}};
  auto order = mem::MakePooled<OrderAssignment>(core_->config.group_id, batch);
  ++core_->stats.order_msgs_sent;
  core_->BroadcastReliable(GroupPorts::Order(core_->config.group_id), order);
  ApplyAssignments(batch);
}

std::vector<std::pair<MessageId, uint64_t>> TotalOrderLayer::AssignPendingUnorderedTotals() {
  std::vector<std::pair<MessageId, uint64_t>> batch;
  for (const auto& entry : core_->fifo->pending()) {
    if (entry.data->mode() == OrderingMode::kTotal && !seq_by_id_.count(entry.data->id())) {
      batch.emplace_back(entry.data->id(), next_total_assign_++);
    }
  }
  return batch;
}

void TotalOrderLayer::OnOrder(const net::PayloadPtr& payload) {
  const auto* order = net::PayloadCast<OrderAssignment>(payload);
  assert(order != nullptr);
  if (order->group() != core_->config.group_id) {
    return;
  }
  ApplyAssignments(order->assignments());
}

void TotalOrderLayer::ApplyAssignments(
    const std::vector<std::pair<MessageId, uint64_t>>& assignments) {
  const bool token_mode = core_->config.total_order_mode == TotalOrderMode::kToken;
  // Newly accepted assignments are staged, then merged into the sorted window
  // in one pass — both finished before TryDeliverApp, whose deliveries may
  // re-enter this function.
  fresh_.clear();
  for (const auto& [id, seq] : assignments) {
    if (seq_by_id_.emplace(id, seq).second) {
      core_->tap.Assigned(id, seq);
      order_by_seq_[seq] = id;
      if (token_mode) {
        fresh_.emplace_back(seq, id);
      }
    }
  }
  if (!fresh_.empty()) {
    MergeRecentAssignments();
  }
  SyncBudget();
  core_->fifo->TryDeliverApp();
}

void TotalOrderLayer::MergeRecentAssignments() {
  // Incoming batches are usually already seq-ascending (a holder assigns
  // consecutively); consolidated-order adoption is not, so sort — cheap for
  // the tiny runs this sees.
  std::sort(fresh_.begin(), fresh_.end());
  const std::vector<SeqAssignment>& old = recent_assignments_;
  merged_.clear();
  // Two-pointer merge of the two seq-sorted runs; on a seq collision the
  // incoming entry wins (the overwrite semantics the old map had).
  size_t i = 0;
  size_t j = 0;
  while (i < old.size() && j < fresh_.size()) {
    if (old[i].first < fresh_[j].first) {
      merged_.push_back(old[i++]);
    } else {
      if (!(fresh_[j].first < old[i].first)) {
        ++i;
      }
      merged_.push_back(fresh_[j++]);
    }
  }
  merged_.insert(merged_.end(), old.begin() + i, old.end());
  merged_.insert(merged_.end(), fresh_.begin() + j, fresh_.end());
  // Trim the oldest seqs beyond the window, exactly as the map's
  // erase-from-begin loop did.
  const size_t keep = std::min<size_t>(merged_.size(), kTokenAssignmentWindow);
  recent_assignments_.assign(merged_.end() - keep, merged_.end());
}

void TotalOrderLayer::OnToken(const net::PayloadPtr& payload) {
  const auto* token = net::PayloadCast<OrderToken>(payload);
  assert(token != nullptr);
  if (token->group() != core_->config.group_id ||
      core_->config.total_order_mode != TotalOrderMode::kToken) {
    return;
  }
  if (!core_->started) {
    return;  // stopped member drops the token; membership would regenerate it
  }
  holding_token_ = true;
  next_total_assign_ = std::max(next_total_assign_, token->next_total_seq());
  // The token's assignment log is authoritative for everything sequenced so
  // far, including assignments whose broadcasts are still in flight to us.
  ApplyAssignments(token->assignments());

  // Sequence every message we have causally delivered but that is not yet
  // ordered, in our causal delivery order. Because causal delivery of m2
  // implies prior causal delivery of any m1 that happens-before it, this
  // keeps the total order consistent with causality.
  std::vector<std::pair<MessageId, uint64_t>> batch;
  while (!unassigned_total_.empty()) {
    const MessageId id = unassigned_total_.front();
    unassigned_total_.pop_front();
    if (!seq_by_id_.count(id)) {
      batch.emplace_back(id, next_total_assign_++);
    }
  }
  if (!batch.empty()) {
    auto order = mem::MakePooled<OrderAssignment>(core_->config.group_id, batch);
    ++core_->stats.order_msgs_sent;
    core_->BroadcastReliable(GroupPorts::Order(core_->config.group_id), order);
    ApplyAssignments(batch);
  }
  SyncBudget();  // the drain alone shrinks unassigned_total_ even with an empty batch
  core_->simulator->ScheduleAfter(kTokenPassDelay, [this] {
    if (holding_token_ && core_->started) {
      PassToken(next_total_assign_);
    }
  });
}

void TotalOrderLayer::PassToken(uint64_t next_total_seq) {
  holding_token_ = false;
  ++core_->stats.token_passes;
  // Next member in id order, wrapping.
  auto it = std::upper_bound(core_->view.members.begin(), core_->view.members.end(), core_->self);
  const MemberId next = it == core_->view.members.end() ? core_->view.members.front() : *it;
  if (next == core_->self) {
    holding_token_ = true;  // sole member keeps the token
    return;
  }
  // Re-key the seq-sorted window by MessageId for the token's flat,
  // id-sorted assignment log. Ids are unique in the window (seq_by_id_
  // guards acceptance), so a plain sort suffices.
  std::vector<std::pair<MessageId, uint64_t>> carried;
  carried.reserve(recent_assignments_.size());
  for (const auto& [seq, id] : recent_assignments_) {
    carried.emplace_back(id, seq);
  }
  std::sort(carried.begin(), carried.end());
  core_->transport->SendReliable(next, GroupPorts::Token(core_->config.group_id),
                                 mem::MakePooled<OrderToken>(core_->config.group_id,
                                                             next_total_seq, std::move(carried)));
}

void TotalOrderLayer::OnViewChange() {
  // The new sequencer orders any held messages that lost their assignment
  // with the old sequencer, in its local causal delivery order.
  if (core_->config.total_order_mode == TotalOrderMode::kSequencer && core_->IsSequencer()) {
    std::vector<std::pair<MessageId, uint64_t>> batch = AssignPendingUnorderedTotals();
    if (!batch.empty()) {
      auto order = mem::MakePooled<OrderAssignment>(core_->config.group_id, batch);
      ++core_->stats.order_msgs_sent;
      core_->BroadcastReliable(GroupPorts::Order(core_->config.group_id), order);
      ApplyAssignments(batch);
    }
  }
  // Token regeneration: the lowest survivor re-seeds the token.
  if (core_->config.total_order_mode == TotalOrderMode::kToken && core_->IsSequencer() &&
      core_->started) {
    holding_token_ = true;
    core_->simulator->ScheduleAfter(kTokenPassDelay, [this] {
      if (holding_token_ && core_->started) {
        PassToken(next_total_assign_);
      }
    });
  }
}

}  // namespace catocs
