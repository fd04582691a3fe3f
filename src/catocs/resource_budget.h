// Per-group bounded-resource accounting (DESIGN.md §10).
//
// The paper's §2.3/§5 resource critique is that CATOCS buffering grows
// without bound whenever a receiver lags or a partition lingers. The
// ResourceBudget makes that growth a first-class, *bounded* quantity: every
// place the stack retains message memory — the causal-buffer retention ring,
// the sender batcher, the total-order layer's pending set, and the
// transport's unacked send queues — reports its occupancy into one per-group
// ledger, and a deterministic MemoryPressure signal (watermarks with
// hysteresis) drives the flow-control and overload policies in
// flow_control.h.
//
// The byte cap defaults to zero (unbounded): an unconfigured budget is never
// charged, so the default pipeline stays byte-identical. Charging uses
// absolute occupancy reports (Set) rather than paired charge/release deltas,
// so a component can never leak the ledger out of sync with its own books.

#ifndef REPRO_SRC_CATOCS_RESOURCE_BUDGET_H_
#define REPRO_SRC_CATOCS_RESOURCE_BUDGET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "src/catocs/pipeline_stats.h"

namespace catocs {

// Deterministic memory-pressure signal derived from budget utilization.
// Escalation is immediate; de-escalation only happens when utilization falls
// below the low watermark (hysteresis), at which point the *pressure epoch*
// ends. Within one epoch the level is therefore monotone non-decreasing —
// an invariant the chaos oracle checks.
enum class MemoryPressure : uint8_t {
  kNone = 0,      // below the high watermark (or budget unbounded)
  kHigh = 1,      // utilization crossed the high watermark
  kCritical = 2,  // utilization crossed the critical watermark
};

const char* ToString(MemoryPressure level);

struct BudgetConfig {
  // Hard cap on total retained bytes across all charged components. 0 =
  // unbounded (the default), in which case nothing is ever charged.
  size_t max_bytes = 0;

  bool bounded() const { return max_bytes != 0; }
};

// Watermarks as fractions of the byte cap. Pressure escalates at high /
// critical and resets (ending the epoch) only below low.
inline constexpr double kHighWatermark = 0.70;
inline constexpr double kCriticalWatermark = 0.90;
inline constexpr double kLowWatermark = 0.50;

class ResourceBudget {
 public:
  // The charging points. Each component reports its own occupancy
  // absolutely; the budget keeps per-component books and the totals.
  enum Component : uint8_t {
    kRetention = 0,   // causal-buffer strategy (retention ring)
    kBatcher,         // sender batcher's pending constituents
    kTotalPending,    // total-order layer's assignment/pending set
    kTransportQueue,  // transport unacked send queues
    kNumComponents,
  };

  void Configure(const BudgetConfig& config) { config_ = config; }
  // Transition counters and peaks surfaced through PipelineStats; optional.
  void BindStats(PipelineStats::BudgetStats* sink) { sink_ = sink; }

  bool bounded() const { return config_.bounded(); }
  const BudgetConfig& config() const { return config_; }

  // Absolute occupancy report from one component; recomputes totals,
  // peaks, and the pressure level. Callers gate on bounded() so the
  // unconfigured default path never reaches here.
  void Set(Component component, size_t bytes, size_t messages);

  size_t used_bytes() const { return total_bytes_; }
  size_t used_messages() const { return total_msgs_; }
  size_t component_bytes(Component c) const { return bytes_[c]; }
  size_t peak_bytes() const { return peak_bytes_; }
  size_t peak_messages() const { return peak_msgs_; }

  // Retained bytes over the cap, in [0, +inf); 0 when unbounded.
  double utilization() const;

  MemoryPressure pressure() const { return level_; }
  // Current pressure-epoch index: bumped each time pressure returns to
  // kNone. Samples of (epoch, level) are monotone per epoch by construction.
  uint64_t pressure_epoch() const { return epoch_; }

 private:
  void Reassess();

  BudgetConfig config_;
  PipelineStats::BudgetStats* sink_ = nullptr;
  size_t bytes_[kNumComponents] = {};
  size_t msgs_[kNumComponents] = {};
  size_t total_bytes_ = 0;
  size_t total_msgs_ = 0;
  size_t peak_bytes_ = 0;
  size_t peak_msgs_ = 0;
  MemoryPressure level_ = MemoryPressure::kNone;
  uint64_t epoch_ = 0;
};

}  // namespace catocs

#endif  // REPRO_SRC_CATOCS_RESOURCE_BUDGET_H_
