#include "src/catocs/message.h"

#include <cassert>
#include <sstream>

#include "src/catocs/wire_codec.h"
#include "src/mem/pool.h"

namespace catocs {

const char* ToString(OrderingMode mode) {
  switch (mode) {
    case OrderingMode::kUnordered:
      return "unordered";
    case OrderingMode::kCausal:
      return "causal";
    case OrderingMode::kTotal:
      return "total";
  }
  return "?";
}

std::string MessageId::ToString() const {
  std::ostringstream out;
  out << sender << "#" << seq;
  return out.str();
}

GroupDataPtr StripPiggyback(const GroupDataPtr& data) {
  if (data->piggyback().empty()) {
    return data;
  }
  auto stripped = mem::MakePooled<GroupData>(data->group(), data->id(), data->mode(), data->vt(),
                                             data->app_payload(), data->sent_at());
  stripped->set_acks(data->acks());
  if (data->is_overlay()) {
    stripped->set_overlay_view(data->overlay_view());
  }
  return stripped;
}

void GroupData::set_piggyback(std::vector<std::shared_ptr<const GroupData>> msgs) {
  piggyback_ = std::move(msgs);
  size_bytes_ = AppBytes();
  for (const auto& msg : piggyback_) {
    size_bytes_ += msg->SizeBytes() + msg->HeaderBytes();
  }
}

std::vector<net::HeaderSection> GroupData::HeaderSections() const {
  // Base frame: group(4) + sender(4) + seq(8) + mode(1). The causal section
  // is whichever wire form the frame travels under: the constant overlay
  // header, the delta/keyframe encoding, or the full clock.
  return {{"frame", 17}, {"causal", CausalHeaderBytes()}, {"stability", acks_.SizeBytes()}};
}

size_t GroupData::CausalHeaderBytes() const {
  if (overlay_view_ != 0) {
    return kOverlayHeaderBytes;
  }
  return wire_vt_.has_value() ? wire_vt_->SizeBytes() : vt_.SizeBytes();
}

size_t GroupData::HeaderBytes() const {
  // Same arithmetic as HeaderSections(), computed directly: this runs once
  // per send per destination, and materializing the section vector was
  // measurable on the fan-out path.
  return 17 + CausalHeaderBytes() + acks_.SizeBytes();
}

GroupBatch::GroupBatch(GroupId group, std::vector<GroupDataPtr> entries)
    : group_(group), entries_(std::move(entries)) {
  assert(!entries_.empty());
#ifndef NDEBUG
  for (size_t i = 0; i < entries_.size(); ++i) {
    assert(entries_[i]->id().sender == entries_.front()->id().sender &&
           "batch constituents share one sender");
    assert(entries_[i]->id().seq == entries_.front()->id().seq + i &&
           "batch constituents are contiguous");
  }
#endif
  header_bytes_ = kBaseFrameBytes;
  const VectorClock* prev_vt = nullptr;
  const VectorClock* prev_acks = nullptr;
  for (const GroupDataPtr& entry : entries_) {
    // mode(1) + payload_len(4), then each clock as a delta against the
    // previous constituent (a flag byte plus the changed entries; the first
    // constituent's "delta" is its full clock).
    header_bytes_ += 5;
    header_bytes_ += 1 + DeltaEntryCount(prev_vt, entry->vt()) * VectorClock::kEntryBytes;
    header_bytes_ += 1 + DeltaEntryCount(prev_acks, entry->acks()) * VectorClock::kEntryBytes;
    prev_vt = &entry->vt();
    prev_acks = &entry->acks();
  }
}

size_t GroupBatch::SizeBytes() const {
  size_t total = 0;
  for (const GroupDataPtr& entry : entries_) {
    total += entry->SizeBytes();
  }
  return total;
}

std::vector<net::HeaderSection> GroupBatch::HeaderSections() const {
  return {{"frame", kBaseFrameBytes}, {"batch-meta", header_bytes_ - kBaseFrameBytes}};
}

std::string GroupBatch::Describe() const {
  std::ostringstream out;
  out << "batch " << entries_.front()->id().ToString() << "+" << (entries_.size() - 1);
  return out.str();
}

std::string GroupData::Describe() const {
  std::ostringstream out;
  out << ToString(mode_) << " " << id_.ToString() << " vt=" << vt_.ToString() << " ["
      << app_payload_->Describe() << "]";
  return out.str();
}

size_t FlushState::SizeBytes() const {
  size_t total = delivered_.SizeBytes() + known_assignments_.size() * 20 + 8;
  for (const auto& msg : unstable_) {
    total += msg->SizeBytes() + msg->HeaderBytes();
  }
  return total;
}

size_t ViewInstall::SizeBytes() const {
  size_t total = 20 + members_.size() * 4 + assignments_.size() * 20;
  for (const auto& msg : missing_) {
    total += msg->SizeBytes() + msg->HeaderBytes();
  }
  if (app_state_ != nullptr) {
    total += app_state_->SizeBytes();
  }
  return total;
}

}  // namespace catocs
