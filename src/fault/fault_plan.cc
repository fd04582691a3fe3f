#include "src/fault/fault_plan.h"

#include <algorithm>
#include <sstream>

namespace fault {

const char* ToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kRecover:
      return "recover";
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kHeal:
      return "heal";
    case FaultKind::kDropBurst:
      return "drop-burst";
    case FaultKind::kDuplicateBurst:
      return "dup-burst";
    case FaultKind::kLatencySpike:
      return "latency-spike";
    case FaultKind::kSlowReceiver:
      return "slow-receiver";
    case FaultKind::kOverloadBurst:
      return "overload-burst";
    case FaultKind::kLongPartition:
      return "long-partition";
  }
  return "?";
}

std::string FaultEvent::Describe() const {
  std::ostringstream out;
  out << at.nanos() / 1000000 << "ms " << ToString(kind);
  switch (kind) {
    case FaultKind::kCrash:
    case FaultKind::kRecover:
      out << " slot=" << slot;
      break;
    case FaultKind::kPartition:
    case FaultKind::kLongPartition:
      out << " {";
      for (size_t c = 0; c < components.size(); ++c) {
        out << (c ? "|" : "");
        for (size_t i = 0; i < components[c].size(); ++i) {
          out << (i ? "," : "") << components[c][i];
        }
      }
      out << "}";
      if (kind == FaultKind::kLongPartition) {
        out << " for=" << duration.nanos() / 1000000 << "ms";
      }
      break;
    case FaultKind::kHeal:
      break;
    case FaultKind::kDropBurst:
    case FaultKind::kDuplicateBurst:
      out << " p=" << value << " for=" << duration.nanos() / 1000000 << "ms";
      break;
    case FaultKind::kLatencySpike:
    case FaultKind::kOverloadBurst:
      out << " x" << value << " for=" << duration.nanos() / 1000000 << "ms";
      break;
    case FaultKind::kSlowReceiver:
      out << " slot=" << slot << " x" << value << " for=" << duration.nanos() / 1000000 << "ms";
      break;
  }
  return out.str();
}

std::string FaultPlan::Describe() const {
  std::ostringstream out;
  out << "plan horizon=" << horizon.nanos() / 1000000 << "ms events=" << events.size();
  for (const auto& event : events) {
    out << "\n  " << event.Describe();
  }
  return out.str();
}

namespace {

// Sort key making the plan order fully deterministic even for events sampled
// at the same instant.
bool EventBefore(const FaultEvent& a, const FaultEvent& b) {
  if (a.at != b.at) {
    return a.at < b.at;
  }
  if (a.kind != b.kind) {
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  }
  return a.slot < b.slot;
}

}  // namespace

FaultPlan FaultScheduleGenerator::Generate(sim::Rng& rng) const {
  FaultPlan plan;
  plan.horizon = config_.horizon;
  const int64_t horizon_ns = config_.horizon.nanos();
  // Faults land in the middle 10%..60% of the run, leaving the head for the
  // group to form and the tail for recovery, redelivery, and quiescence.
  const int64_t fault_lo = horizon_ns / 10;
  const int64_t fault_hi = (horizon_ns * 6) / 10;

  // --- crash / recover cycles ------------------------------------------------
  // Slot 0 never crashes. Crash windows are serialized (a window that
  // overlaps an earlier one is redrawn): the victim stays down long enough to
  // be detected and evicted, then rejoins.
  std::vector<std::pair<int64_t, int64_t>> crash_windows;
  for (size_t slot = 1; slot < config_.num_slots; ++slot) {
    if (!rng.NextBool(kCrashProbability)) {
      continue;
    }
    const int64_t down_for =
        config_.failure_timeout.nanos() * 3 +
        rng.NextInRange(0, config_.failure_timeout.nanos() * 4);
    bool placed = false;
    for (int attempt = 0; attempt < 8 && !placed; ++attempt) {
      const int64_t start = rng.NextInRange(fault_lo, fault_hi);
      const int64_t end = start + down_for;
      const bool overlaps = std::any_of(
          crash_windows.begin(), crash_windows.end(),
          [&](const std::pair<int64_t, int64_t>& w) { return start < w.second && w.first < end; });
      if (overlaps) {
        continue;
      }
      crash_windows.emplace_back(start, end);
      FaultEvent crash;
      crash.at = sim::TimePoint::Zero() + sim::Duration::Nanos(start);
      crash.kind = FaultKind::kCrash;
      crash.slot = slot;
      plan.events.push_back(crash);
      FaultEvent recover = crash;
      recover.at = sim::TimePoint::Zero() + sim::Duration::Nanos(end);
      recover.kind = FaultKind::kRecover;
      plan.events.push_back(recover);
      placed = true;
    }
  }

  // --- transient partitions --------------------------------------------------
  // Strictly shorter than the failure timeout: they strand heartbeats and
  // in-flight data (retransmission recovers) but never trigger eviction, so
  // the brain cannot split. Longer partitions are expressible by scripting a
  // plan by hand — bench_e15_chaos does, to show the oracle catching the
  // resulting divergence.
  int64_t last_partition_end = 0;
  for (size_t i = 0; i < kMaxPartitions; ++i) {
    if (!rng.NextBool(kPartitionProbability)) {
      continue;
    }
    const int64_t cap = config_.failure_timeout.nanos() / 2;
    const int64_t duration = rng.NextInRange(cap / 10 + 1, cap);
    const int64_t start =
        std::max(rng.NextInRange(fault_lo, fault_hi), last_partition_end + cap);
    if (start + duration > fault_hi + cap) {
      continue;
    }
    last_partition_end = start + duration;
    // Random two-way split with both sides non-empty.
    std::vector<size_t> slots(config_.num_slots);
    for (size_t s = 0; s < config_.num_slots; ++s) {
      slots[s] = s;
    }
    rng.Shuffle(slots);
    const size_t left = 1 + static_cast<size_t>(
                                rng.NextBelow(static_cast<uint64_t>(config_.num_slots - 1)));
    FaultEvent part;
    part.at = sim::TimePoint::Zero() + sim::Duration::Nanos(start);
    part.kind = FaultKind::kPartition;
    part.components.assign(2, {});
    part.components[0].assign(slots.begin(), slots.begin() + left);
    part.components[1].assign(slots.begin() + left, slots.end());
    std::sort(part.components[0].begin(), part.components[0].end());
    std::sort(part.components[1].begin(), part.components[1].end());
    plan.events.push_back(part);
    FaultEvent heal;
    heal.at = sim::TimePoint::Zero() + sim::Duration::Nanos(start + duration);
    heal.kind = FaultKind::kHeal;
    plan.events.push_back(heal);
  }

  // --- drop / duplicate bursts and latency spikes ----------------------------
  // Windows of one kind never overlap (the revert restores the pre-burst
  // baseline, so overlap would make the restore order-dependent).
  auto sample_bursts = [&](size_t max_count, FaultKind kind) {
    int64_t last_end = 0;
    for (size_t i = 0; i < max_count; ++i) {
      if (!rng.NextBool(0.5)) {
        continue;
      }
      const int64_t duration = rng.NextInRange(50000000, 300000000);  // 50..300ms
      const int64_t start = std::max(rng.NextInRange(fault_lo, fault_hi),
                                     last_end + 10000000);
      last_end = start + duration;
      FaultEvent burst;
      burst.at = sim::TimePoint::Zero() + sim::Duration::Nanos(start);
      burst.kind = kind;
      burst.duration = sim::Duration::Nanos(duration);
      if (kind == FaultKind::kLatencySpike) {
        burst.value = 2.0 + rng.NextDouble() * (kMaxLatencyScale - 2.0);
      } else {
        burst.value = 0.05 + rng.NextDouble() * (kMaxBurstProbability - 0.05);
      }
      plan.events.push_back(burst);
    }
  };
  sample_bursts(kMaxBurstsPerKind, FaultKind::kDropBurst);
  sample_bursts(kMaxBurstsPerKind, FaultKind::kDuplicateBurst);
  sample_bursts(kMaxBurstsPerKind, FaultKind::kLatencySpike);

  // --- overload adversity (DESIGN.md §10) ------------------------------------
  // Every draw below is new; the counts default to zero, so plans for
  // pre-existing configs replay byte-identically.

  // Slow receivers: one slot's inbound latency scales up for a window, making
  // it the stability laggard everyone else retains for. Slot 0 is exempt
  // (reference observer and rejoin contact).
  {
    int64_t last_end = 0;
    for (size_t i = 0; i < config_.max_slow_receivers; ++i) {
      if (!rng.NextBool(0.5)) {
        continue;
      }
      const size_t slot =
          1 + static_cast<size_t>(rng.NextBelow(static_cast<uint64_t>(config_.num_slots - 1)));
      const int64_t duration = rng.NextInRange(100000000, 500000000);  // 100..500ms
      const int64_t start =
          std::max(rng.NextInRange(fault_lo, fault_hi), last_end + 10000000);
      last_end = start + duration;
      FaultEvent slow;
      slow.at = sim::TimePoint::Zero() + sim::Duration::Nanos(start);
      slow.kind = FaultKind::kSlowReceiver;
      slow.slot = slot;
      slow.value = 2.0 + rng.NextDouble() * (kMaxSlowReceiverScale - 2.0);
      slow.duration = sim::Duration::Nanos(duration);
      plan.events.push_back(slow);
    }
  }

  // Overload bursts: the rig multiplies its workload burst size for a
  // window, driving offered load past what the group absorbs smoothly.
  {
    int64_t last_end = 0;
    for (size_t i = 0; i < config_.max_overload_bursts; ++i) {
      if (!rng.NextBool(0.5)) {
        continue;
      }
      const int64_t duration = rng.NextInRange(100000000, 400000000);  // 100..400ms
      const int64_t start =
          std::max(rng.NextInRange(fault_lo, fault_hi), last_end + 10000000);
      last_end = start + duration;
      FaultEvent burst;
      burst.at = sim::TimePoint::Zero() + sim::Duration::Nanos(start);
      burst.kind = FaultKind::kOverloadBurst;
      burst.value = 2.0 + rng.NextDouble() * (kMaxOverloadFactor - 2.0);
      burst.duration = sim::Duration::Nanos(duration);
      plan.events.push_back(burst);
    }
  }

  // Long partitions: strictly over the failure timeout, so the primary side
  // (slot 0's, always a strict majority) detects and evicts the minority.
  // The injector schedules the heal itself; the generator then crash-cycles
  // each minority slot after the heal so it rejoins under a fresh id instead
  // of staying wedged under the primary-partition rule for the rest of the
  // run.
  for (size_t i = 0; i < config_.max_long_partitions; ++i) {
    if (!rng.NextBool(0.5)) {
      continue;
    }
    const int64_t timeout_ns = config_.failure_timeout.nanos();
    const int64_t duration = timeout_ns * 2 + rng.NextInRange(0, timeout_ns * 2);
    const int64_t start = rng.NextInRange(fault_lo, (fault_lo + fault_hi) / 2);
    // Minority = one non-zero slot (keeps the primary side a strict majority
    // for any num_slots >= 3; with 2 slots there is no safe minority).
    if (config_.num_slots < 3) {
      break;
    }
    const size_t minority_slot =
        1 + static_cast<size_t>(rng.NextBelow(static_cast<uint64_t>(config_.num_slots - 1)));
    FaultEvent part;
    part.at = sim::TimePoint::Zero() + sim::Duration::Nanos(start);
    part.kind = FaultKind::kLongPartition;
    part.components.assign(2, {});
    for (size_t s = 0; s < config_.num_slots; ++s) {
      part.components[s == minority_slot ? 1 : 0].push_back(s);
    }
    part.duration = sim::Duration::Nanos(duration);
    plan.events.push_back(part);
    // Crash the stranded minority shortly after the heal, then recover it so
    // the slot rejoins fresh through the primary side.
    FaultEvent crash;
    crash.at = sim::TimePoint::Zero() + sim::Duration::Nanos(start + duration + timeout_ns / 2);
    crash.kind = FaultKind::kCrash;
    crash.slot = minority_slot;
    plan.events.push_back(crash);
    FaultEvent recover = crash;
    recover.at = crash.at + sim::Duration::Nanos(timeout_ns * 3);
    recover.kind = FaultKind::kRecover;
    plan.events.push_back(recover);
    break;  // at most one long partition per plan: the recovery tail is long
  }

  std::sort(plan.events.begin(), plan.events.end(), EventBefore);
  return plan;
}

}  // namespace fault
