// ChaosRig: a CATOCS group built for adversity.
//
// Where GroupFabric stands up a static group, the rig manages *slots* —
// logical replicas whose current incarnation can crash and later rejoin
// under a fresh member id through the membership layer, receiving an
// application-state snapshot from a live member (state transfer). Each
// incarnation runs a tiny replicated key-value application over the group's
// causal/total multicast, and the rig records every delivery, view install,
// and stability sample so an InvariantOracle can audit the run afterwards.
// All activity is driven off the owning Simulator: one seed reproduces the
// whole chaotic run bit-for-bit, summarized by TraceHash().

#ifndef REPRO_SRC_FAULT_CHAOS_RIG_H_
#define REPRO_SRC_FAULT_CHAOS_RIG_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/catocs/group_member.h"
#include "src/catocs/pipeline_stats.h"
#include "src/net/network.h"
#include "src/net/transport.h"
#include "src/sim/simulator.h"

namespace fault {

struct ChaosRigConfig {
  size_t num_slots = 4;
  catocs::GroupConfig group;  // membership is force-enabled by the rig
  net::NetworkConfig network;
  net::TransportConfig transport;
  sim::Duration latency_lo = sim::Duration::Millis(1);
  sim::Duration latency_hi = sim::Duration::Millis(5);

  // Workload: every live slot multicasts a unique-key update each
  // kWorkloadInterval; every third send per slot is totally ordered, the
  // rest causal. With workload_burst > 1 each tick issues that many
  // back-to-back sends — the traffic shape that actually exercises
  // sender-side batching.
  size_t payload_bytes = 64;
  size_t workload_burst = 1;
  // Keep every send causal (no total-order thirds). Forced on for the
  // overlay buffer, whose dissemination path orders causally only.
  bool causal_only = false;
};

inline constexpr sim::Duration kWorkloadInterval = sim::Duration::Millis(15);

class ChaosRig {
 public:
  ChaosRig(sim::Simulator* simulator, ChaosRigConfig config);
  ~ChaosRig();

  ChaosRig(const ChaosRig&) = delete;
  ChaosRig& operator=(const ChaosRig&) = delete;

  // Starts members and the per-slot workload timers.
  void Start();
  // Stops new sends; protocol machinery keeps running so in-flight traffic
  // drains and redelivery completes.
  void StopWorkload();

  // --- fault surface (driven by FaultInjector) ------------------------------
  void CrashSlot(size_t slot);
  // Fresh member id, JoinGroup through slot 0's member, state transfer.
  void RecoverSlot(size_t slot);
  bool SlotAlive(size_t slot) const { return slots_[slot].alive; }
  // Current node id of the slot's incarnation (valid even while down).
  net::NodeId NodeOf(size_t slot) const;
  // Workload multiplier driven by FaultKind::kOverloadBurst: each tick issues
  // round(workload_burst * factor) sends while the burst window is open.
  void SetOverloadFactor(double factor) { overload_factor_ = factor; }
  double overload_factor() const { return overload_factor_; }
  net::Network& network() { return *network_; }
  sim::Simulator& simulator() { return *simulator_; }
  size_t num_slots() const { return config_.num_slots; }

  // --- hidden-channel probe surface (see hidden_probe.h) --------------------
  // Issues one ordered workload-style send from `slot`'s current incarnation
  // in the probe key space (top bit set, so probe updates never collide with
  // workload keys and replica stores still converge). Returns the id the
  // message was sent under — {0, 0} if it was dropped or queued behind a
  // flush. No-op ({0, 0}) on a dead slot.
  catocs::MessageId ProbeSend(size_t slot, catocs::OrderingMode mode);
  // Hook invoked for every incarnation wired *after* installation — i.e.
  // recovery rejoins — so a probe can re-register its out-of-band token
  // receiver on the fresh transport. One consumer at a time.
  using IncarnationHook = std::function<void(size_t, net::Transport&, catocs::GroupMember&)>;
  void SetIncarnationHook(IncarnationHook hook) { incarnation_hook_ = std::move(hook); }
  net::Transport& TransportOfSlot(size_t slot) { return *current(slot).transport; }

  // --- observations (consumed by InvariantOracle) ---------------------------
  struct DeliveryRecord {
    catocs::MemberId at;
    size_t slot;
    catocs::Delivery delivery;
  };
  struct ViewRecord {
    catocs::MemberId at;
    sim::TimePoint when;
    catocs::View view;
  };
  // Stability floor observed at `at` right after a delivery there; the
  // baseline resets per view (a joiner that has not reported yet legitimately
  // empties the floor).
  struct StabilitySample {
    catocs::MemberId at;
    uint64_t view_id;
    catocs::VectorClock stable;
  };
  struct RecoveryStat {
    size_t slot = 0;
    catocs::MemberId old_id = 0;
    catocs::MemberId new_id = 0;
    sim::TimePoint crashed_at;
    sim::TimePoint recover_started;
    sim::TimePoint rejoined_at;  // first view install containing the new id
    bool rejoined = false;
  };
  // Budget ledger observed at `at` right after a delivery there (recorded
  // only when the group runs with a bounded budget). The oracle checks that
  // usage never exceeds the configured cap and that the pressure level is
  // monotone within a pressure epoch.
  struct BudgetSample {
    catocs::MemberId at = 0;
    sim::TimePoint when;
    uint64_t epoch = 0;
    catocs::MemoryPressure level = catocs::MemoryPressure::kNone;
    size_t used_bytes = 0;
    size_t max_bytes = 0;
  };

  const std::vector<DeliveryRecord>& deliveries() const { return deliveries_; }
  const std::vector<ViewRecord>& views() const { return views_; }
  const std::vector<StabilitySample>& stability_samples() const { return stability_samples_; }
  const std::vector<RecoveryStat>& recoveries() const { return recoveries_; }
  const std::vector<BudgetSample>& budget_samples() const { return budget_samples_; }
  // Flow-control refusals seen by the workload (zero without flow control).
  uint64_t sends_backpressured() const { return sends_backpressured_; }
  uint64_t sends_shed() const { return sends_shed_; }

  // Member ids of founding slots that never crashed: the observers for which
  // delivery atomicity must hold unconditionally.
  std::vector<catocs::MemberId> AlwaysLiveMembers() const;
  // member id -> application store, for every currently live incarnation.
  std::map<catocs::MemberId, std::map<uint64_t, uint64_t>> LiveStores() const;
  const catocs::GroupMember& MemberOfSlot(size_t slot) const;

  // FNV-1a fingerprint over every delivery, view install, and recovery, in
  // observation order — byte-identical across replays of the same seed.
  uint64_t TraceHash() const;

  // Per-layer hold attribution merged across every incarnation that ever ran
  // (crashed members keep their stats). All-zero unless the rig was built
  // with config.group.observability set.
  catocs::PipelineStats AggregatePipelineStats() const;

 private:
  struct Incarnation {
    catocs::MemberId id = 0;
    std::unique_ptr<net::Transport> transport;
    std::unique_ptr<catocs::GroupMember> member;
    std::map<uint64_t, uint64_t> store;  // the replicated application state
    uint64_t send_counter = 0;
    bool rejoiner = false;
  };
  struct Slot {
    std::vector<std::unique_ptr<Incarnation>> incarnations;  // last = current
    bool alive = true;
    bool ever_crashed = false;
    std::unique_ptr<sim::PeriodicTimer> workload;
  };

  Incarnation& current(size_t slot) { return *slots_[slot].incarnations.back(); }
  const Incarnation& current(size_t slot) const { return *slots_[slot].incarnations.back(); }
  void WireIncarnation(size_t slot, Incarnation& inc);
  void WorkloadTick(size_t slot);

  sim::Simulator* simulator_;
  ChaosRigConfig config_;
  std::unique_ptr<net::Network> network_;
  std::vector<Slot> slots_;
  catocs::MemberId next_id_;
  bool workload_running_ = false;
  IncarnationHook incarnation_hook_;
  uint64_t probe_counter_ = 0;

  std::vector<DeliveryRecord> deliveries_;
  std::vector<ViewRecord> views_;
  std::vector<StabilitySample> stability_samples_;
  std::vector<RecoveryStat> recoveries_;
  std::vector<BudgetSample> budget_samples_;
  uint64_t sends_backpressured_ = 0;
  uint64_t sends_shed_ = 0;
  double overload_factor_ = 1.0;
};

// The workload's update payload: a unique key per (member, per-slot counter)
// mapping to the counter value, so replica stores are order-insensitive and
// comparable with plain equality.
class ChaosUpdate : public net::Payload {
 public:
  ChaosUpdate(uint64_t key, uint64_t value, size_t size_bytes)
      : key_(key), value_(value), size_(size_bytes) {}
  size_t SizeBytes() const override { return size_; }
  std::string Describe() const override { return "chaos-update"; }
  uint64_t key() const { return key_; }
  uint64_t value() const { return value_; }

 private:
  uint64_t key_;
  uint64_t value_;
  size_t size_;
};

// Application snapshot carried on a joiner's ViewInstall during state
// transfer.
class ChaosSnapshot : public net::Payload {
 public:
  explicit ChaosSnapshot(std::map<uint64_t, uint64_t> store) : store_(std::move(store)) {}
  size_t SizeBytes() const override { return 16 * store_.size(); }
  std::string Describe() const override { return "chaos-snapshot"; }
  const std::map<uint64_t, uint64_t>& store() const { return store_; }

 private:
  std::map<uint64_t, uint64_t> store_;
};

}  // namespace fault

#endif  // REPRO_SRC_FAULT_CHAOS_RIG_H_
