// Per-layer hold-time attribution for the ordering pipeline.
//
// The paper's §5 claims are claims about *where messages wait*: the causal
// delay queue (potential/false causality), the app-side FIFO/total-order
// gate, the retention buffer (stability lag), and the membership layer's
// flush blocking. PipelineStats turns each wait point into an attributed
// breakdown — how many messages entered it, how many waited at all, and the
// total/max time spent — keyed by a HoldReason that names both the owning
// layer and why the message could not proceed. One instance hangs off each
// GroupCore, fed through its HoldTap (hold_tap.h) only when
// GroupConfig::observability is set, so the default path records nothing.

#ifndef REPRO_SRC_CATOCS_PIPELINE_STATS_H_
#define REPRO_SRC_CATOCS_PIPELINE_STATS_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/catocs/message.h"
#include "src/sim/metrics.h"
#include "src/sim/time.h"

namespace catocs {

// Why a message was held at a pipeline wait point. Each reason belongs to
// exactly one layer (LayerOf), so a per-reason breakdown is also a per-layer
// one.
enum class HoldReason : uint8_t {
  kCausalGap = 0,  // causal layer: a happens-before predecessor is missing
  kFifoGap,        // fifo gate: earlier deliveries not yet visible to the app
  kTotalTurn,      // fifo gate: kTotal message waiting for its sequence turn
  kOrderAssign,    // total-order layer: awaiting sequencer/token assignment
  kStability,      // retention buffer: delivered but not yet known stable
  kFlushBlocked,   // membership: send queued while a flush blocks the group
};

inline constexpr size_t kNumHoldReasons = 6;

const char* ToString(HoldReason reason);
// The pipeline layer a reason is attributed to ("causal", "fifo", ...).
const char* LayerOf(HoldReason reason);

struct PipelineStats {
  struct HoldStat {
    uint64_t entered = 0;   // messages that reached this wait point
    uint64_t released = 0;  // ... that have left it again
    uint64_t held = 0;      // ... that left after a strictly positive wait
    sim::Duration total_hold = sim::Duration::Zero();
    sim::Duration max_hold = sim::Duration::Zero();

    double mean_hold_ms() const {
      return released ? static_cast<double>(total_hold.nanos()) / 1e6 /
                            static_cast<double>(released)
                      : 0.0;
    }
  };

  // Bounded-resource counters (DESIGN.md §10), fed by the group's
  // ResourceBudget when one is configured; all-zero (and omitted from
  // export/summary) otherwise.
  struct BudgetStats {
    uint64_t pressure_high = 0;      // transitions into high pressure
    uint64_t pressure_critical = 0;  // transitions into critical pressure
    uint64_t pressure_epochs = 0;    // completed pressure epochs
    uint64_t peak_bytes = 0;         // peak charged bytes across components
    uint64_t peak_messages = 0;      // peak charged messages

    bool any() const {
      return pressure_high != 0 || pressure_critical != 0 || pressure_epochs != 0 ||
             peak_bytes != 0 || peak_messages != 0;
    }
  };

  std::array<HoldStat, kNumHoldReasons> by_reason;
  BudgetStats budget;

  HoldStat& reason(HoldReason r) { return by_reason[static_cast<size_t>(r)]; }
  const HoldStat& reason(HoldReason r) const { return by_reason[static_cast<size_t>(r)]; }

  void RecordEnter(HoldReason r) { ++reason(r).entered; }
  void RecordRelease(HoldReason r, sim::Duration hold);

  // Accumulate another member's stats (fabric/rig aggregation).
  void Merge(const PipelineStats& other);

  uint64_t TotalEntered() const;
  uint64_t TotalReleased() const;
  sim::Duration TotalHold() const;

  // Export as labeled metrics (counter pipeline_entered{...}, histogram-free:
  // holds are already aggregated, so totals land in counters and the
  // mean/max in gauges scaled to microseconds).
  void ExportTo(sim::MetricsRegistry& registry, const std::string& node) const;

  // One line per reason with a nonzero entry count.
  std::string Summary() const;
};

// Span key for a message: the sender in the high bits over the per-sender
// sequence. Sequence numbers beyond 2^40 would alias, far past any run here.
inline uint64_t SpanKey(const MessageId& id) {
  return (static_cast<uint64_t>(id.sender) << 40) ^ id.seq;
}

}  // namespace catocs

#endif  // REPRO_SRC_CATOCS_PIPELINE_STATS_H_
