// Scripted fault schedules for deterministic chaos runs.
//
// A FaultPlan is a timeline of adversity — crash/recover, partition/heal,
// drop/duplicate bursts, latency spikes — expressed against *slots* (logical
// replicas) rather than node ids, because a recovered replica rejoins under a
// fresh member id. FaultScheduleGenerator samples random plans from a
// dedicated deterministic RNG, so a single seed names an entire chaos run:
// the same seed always yields the same plan, applied at the same simulated
// instants, over the same workload — a FoundationDB-style simulation fuzzer
// where every anomaly is reproducible from its seed.

#ifndef REPRO_SRC_FAULT_FAULT_PLAN_H_
#define REPRO_SRC_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace fault {

enum class FaultKind {
  kCrash,           // crash-stop a slot's current incarnation
  kRecover,         // bring the slot back: fresh member id, rejoin, state transfer
  kPartition,       // split slots into disconnected components
  kHeal,            // remove any partition
  kDropBurst,       // raise the network drop probability for a window
  kDuplicateBurst,  // raise the duplicate probability for a window
  kLatencySpike,    // scale sampled latencies for a window
  kSlowReceiver,    // scale one slot's *inbound* latency for a window (laggard)
  kOverloadBurst,   // multiply the rig's workload burst size for a window
  kLongPartition,   // over-timeout partition: the majority side evicts the rest
};

const char* ToString(FaultKind kind);

struct FaultEvent {
  sim::TimePoint at;
  FaultKind kind = FaultKind::kCrash;
  size_t slot = 0;  // kCrash / kRecover
  // kPartition: slot-index components; slots are resolved to the live node
  // ids at application time (a slot down at that instant is simply absent).
  std::vector<std::vector<size_t>> components;
  double value = 0.0;       // burst probability / latency scale factor
  sim::Duration duration;   // burst window; the injector schedules the revert

  std::string Describe() const;
};

struct FaultPlan {
  sim::Duration horizon;            // the run length the plan was sized for
  std::vector<FaultEvent> events;   // sorted by `at`

  std::string Describe() const;
};

// Knobs for random plan sampling. The sampled schedule is eventful but
// survivable: the group always keeps a live majority anchored at slot 0,
// crash windows are long enough for the failure detector to evict the
// victim, and partitions stay shorter than the failure timeout so they stress
// retransmission without triggering eviction — over-timeout partitions force
// a membership decision (the flush quorum rule wedges every non-primary
// side; see bench_e15_chaos for scripted versions of exactly that).
struct GeneratorConfig {
  size_t num_slots = 4;
  sim::Duration horizon = sim::Duration::Seconds(4);
  // Membership failure timeout of the group under test; recover delays and
  // partition caps are derived from it.
  sim::Duration failure_timeout = sim::Duration::Millis(100);

  // Overload adversity (DESIGN.md §10). All default to zero so existing
  // seeds keep producing byte-identical plans; the extra draws happen after
  // every pre-existing draw for the same reason.
  size_t max_slow_receivers = 0;   // windows where one slot's inbound slows
  size_t max_overload_bursts = 0;  // windows of workload-burst multiplication
  // Over-timeout partitions: the primary side (always containing slot 0)
  // evicts the minority; after the heal the generator crash/recovers the
  // minority slots so they rejoin fresh instead of wedging forever.
  size_t max_long_partitions = 0;
};

// The fixed shape of every sampled plan. Each slot but 0 gets one
// crash/recover cycle with kCrashProbability (slot 0 never crashes: it is
// the rejoin contact and the oracle's reference observer); crash windows
// never overlap, so at most one slot is down at a time.
inline constexpr double kCrashProbability = 0.7;
// Up to kMaxPartitions transient partitions, each drawn with this chance.
inline constexpr double kPartitionProbability = 0.6;
inline constexpr size_t kMaxPartitions = 2;
// Up to this many windows each of drop bursts, duplicate bursts and latency
// spikes.
inline constexpr size_t kMaxBurstsPerKind = 2;
// Upper bounds of the values drawn per window: a drop/duplicate burst's
// probability, and the latency-spike, slow-receiver and overload factors.
inline constexpr double kMaxBurstProbability = 0.25;
inline constexpr double kMaxLatencyScale = 8.0;
inline constexpr double kMaxSlowReceiverScale = 6.0;
inline constexpr double kMaxOverloadFactor = 4.0;

class FaultScheduleGenerator {
 public:
  explicit FaultScheduleGenerator(GeneratorConfig config) : config_(config) {}

  // Samples a plan using only `rng` — feed it a generator-private RNG (e.g.
  // sim::Rng(seed ^ kPlanStream)) so planning draws never perturb the
  // simulation's own stream.
  FaultPlan Generate(sim::Rng& rng) const;

  const GeneratorConfig& config() const { return config_; }

 private:
  GeneratorConfig config_;
};

}  // namespace fault

#endif  // REPRO_SRC_FAULT_FAULT_PLAN_H_
