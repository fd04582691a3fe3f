#include "src/catocs/causal_buffer.h"

#include <algorithm>

#include "src/catocs/hybrid_buffer.h"
#include "src/catocs/overlay_buffer.h"
#include "src/catocs/stability.h"

namespace catocs {

const char* ToString(CausalBufferKind kind) {
  switch (kind) {
    case CausalBufferKind::kFullVector:
      return "full-vector";
    case CausalBufferKind::kHybrid:
      return "hybrid";
    case CausalBufferKind::kOverlay:
      return "overlay";
  }
  return "?";
}

void CausalBufferStrategy::Retain(const GroupDataPtr& msg) {
  if (!buffer_.Add(msg)) {
    return;
  }
  buffered_bytes_ += msg->SizeBytes() + msg->HeaderBytes();
  peak_count_ = std::max(peak_count_, buffer_.count());
  peak_bytes_ = std::max(peak_bytes_, buffered_bytes_);
  ChargeBudget();
}

void CausalBufferStrategy::ReleaseUpTo(const VectorClock& floor, const char* cause) {
  buffer_.ReleaseStable(floor, [this, cause](const GroupDataPtr& msg) { Released(msg, cause); });
  ChargeBudget();
}

void CausalBufferStrategy::ReleaseUpTo(MemberId sender, uint64_t seq, const char* cause) {
  buffer_.Release(sender, seq, [this, cause](const GroupDataPtr& msg) { Released(msg, cause); });
  ChargeBudget();
}

void CausalBufferStrategy::PurgeEvicted(const std::vector<MemberId>& members) {
  buffer_.PurgeOverflowNotIn(
      members, [this](const GroupDataPtr& msg) { Released(msg, "evicted-sender"); });
  ChargeBudget();
}

void CausalBufferStrategy::Released(const GroupDataPtr& msg, const char* cause) {
  buffered_bytes_ -= msg->SizeBytes() + msg->HeaderBytes();
  if (tap_ != nullptr) {
    tap_->Stable(msg->id(), cause);
  }
}

void CausalBufferStrategy::ChargeBudget() {
  if (budget_ != nullptr) {
    budget_->Set(ResourceBudget::kRetention, buffered_bytes_, buffer_.count());
  }
}

std::unique_ptr<CausalBufferStrategy> MakeCausalBuffer(CausalBufferKind kind) {
  switch (kind) {
    case CausalBufferKind::kFullVector:
      return std::make_unique<StabilityTracker>();
    case CausalBufferKind::kHybrid:
      return std::make_unique<HybridBuffer>();
    case CausalBufferKind::kOverlay:
      return std::make_unique<OverlayCausalStrategy>();
  }
  return std::make_unique<StabilityTracker>();
}

}  // namespace catocs
