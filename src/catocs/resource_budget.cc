#include "src/catocs/resource_budget.h"

namespace catocs {

const char* ToString(MemoryPressure level) {
  switch (level) {
    case MemoryPressure::kNone:
      return "none";
    case MemoryPressure::kHigh:
      return "high";
    case MemoryPressure::kCritical:
      return "critical";
  }
  return "?";
}

void ResourceBudget::Set(Component component, size_t bytes, size_t messages) {
  total_bytes_ += bytes - bytes_[component];
  total_msgs_ += messages - msgs_[component];
  bytes_[component] = bytes;
  msgs_[component] = messages;
  peak_bytes_ = std::max(peak_bytes_, total_bytes_);
  peak_msgs_ = std::max(peak_msgs_, total_msgs_);
  if (sink_ != nullptr) {
    sink_->peak_bytes = std::max<uint64_t>(sink_->peak_bytes, total_bytes_);
    sink_->peak_messages = std::max<uint64_t>(sink_->peak_messages, total_msgs_);
  }
  Reassess();
}

double ResourceBudget::utilization() const {
  if (config_.max_bytes == 0) {
    return 0.0;
  }
  return static_cast<double>(total_bytes_) / static_cast<double>(config_.max_bytes);
}

void ResourceBudget::Reassess() {
  if (!config_.bounded()) {
    return;
  }
  const double util = utilization();
  // Escalation is immediate and sticky: within an epoch the level only goes
  // up. The epoch ends (and the level resets) only once utilization drains
  // below the low watermark — that hysteresis is what makes "pressure is
  // monotone within an epoch" a checkable oracle invariant.
  if (util >= kCriticalWatermark) {
    if (level_ != MemoryPressure::kCritical) {
      level_ = MemoryPressure::kCritical;
      if (sink_ != nullptr) {
        ++sink_->pressure_critical;
      }
    }
  } else if (util >= kHighWatermark) {
    if (level_ == MemoryPressure::kNone) {
      level_ = MemoryPressure::kHigh;
      if (sink_ != nullptr) {
        ++sink_->pressure_high;
      }
    }
  } else if (util < kLowWatermark && level_ != MemoryPressure::kNone) {
    level_ = MemoryPressure::kNone;
    ++epoch_;
    if (sink_ != nullptr) {
      ++sink_->pressure_epochs;
    }
  }
}

}  // namespace catocs
