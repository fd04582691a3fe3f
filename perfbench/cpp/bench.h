// Shared vocabulary of the repository benchmark: what one repetition of a
// workload returns, the context it runs under, and the helpers every
// workload uses to time set-up, drive the simulator and fold counters.
//
// A repetition builds the system from scratch under the run's seed, drives
// it to a fixed simulated horizon and checks its outputs. Everything under
// `sim` is a function of the seed alone — the determinism gate in main.cc
// requires it to be bit-identical across repetitions and between the
// untraced and the traced run. Host readings (set-up and run seconds) are
// kept apart.

#ifndef PERFBENCH_CPP_BENCH_H_
#define PERFBENCH_CPP_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/catocs/group_member.h"
#include "src/net/network.h"
#include "src/net/transport.h"
#include "src/sim/simulator.h"
#include "src/txn/replicated_store.h"
#include "cpp/tracer.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct RunContext {
  uint64_t seed = 1;
  // Non-null in the traced run: spans around every call into the system.
  Tracer* tracer = nullptr;
  // Shortens the simulated horizon (self-test smoke); 1.0 in measured runs.
  double horizon_scale = 1.0;
  // Return right after set-up: the extra set-up samples behind setup_s.
  bool setup_only = false;
};

struct RepResult {
  double setup_s = 0;  // host: build the system and StartAll
  double run_s = 0;    // host: drive the simulation to its horizon
  uint64_t ops = 0;
  uint64_t attempted = 0;  // ops plus every failure below
  uint64_t failed = 0;
  std::vector<std::string> violations;  // oracle findings, human-readable
  // Simulated metrics and per-layer counts, deterministic under the seed.
  std::map<std::string, double> sim;
  // Deterministic too, but recorded only with GroupConfig::observability on
  // (the traced run): the PipelineStats hold breakdown.
  std::map<std::string, double> observed;
};

using WorkloadFn = RepResult (*)(const RunContext&);

RepResult RunCausalBurst(const RunContext& ctx);
RepResult RunCausalAllToAll(const RunContext& ctx);
RepResult RunTotalChurn(const RunContext& ctx);
RepResult RunTxnContention(const RunContext& ctx);

// A duration times the context's horizon scale.
inline sim::Duration Scaled(sim::Duration d, double scale) {
  return sim::Duration(static_cast<int64_t>(static_cast<double>(d.nanos()) * scale));
}

// Steps the simulator until `stop` is set (by a sentinel event or the last
// completion) or the queue empties. Untraced runs use RunUntil, the
// program's own loop; the traced run steps one event at a time inside a
// span. Both stop after the same event, so both replay identically.
void Drive(sim::Simulator& s, const bool& stop, sim::TimePoint limit, Tracer* tracer);

// Ratio with a zero-denominator convention of 0 (layer metrics of layers a
// workload never reaches).
inline double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Sampled every 10 ms of simulated time once started (the first sample
// after warm-up): the simulator's pending-event count, and the mean
// per-node retention occupancy when the workload supplies it. The sampler
// is an event of its own, present in every run, so it never splits replay.
class Sampler {
 public:
  static constexpr sim::Duration kPeriod = sim::Duration::Millis(10);

  Sampler(sim::Simulator* s, std::function<double()> per_node_buffered = {})
      : simulator_(s),
        per_node_buffered_(std::move(per_node_buffered)),
        timer_(s, kPeriod, [this] { Sample(); }) {}
  void Start(sim::Duration first) { timer_.Start(first); }

  uint64_t pending_peak() const { return pending_peak_; }
  double buffered_mean() const { return Ratio(buffered_sum_, static_cast<double>(samples_)); }
  uint64_t samples() const { return samples_; }

 private:
  void Sample() {
    pending_peak_ = std::max<uint64_t>(pending_peak_, simulator_->pending_events());
    if (per_node_buffered_) {
      buffered_sum_ += per_node_buffered_();
    }
    ++samples_;
  }

  sim::Simulator* simulator_;
  std::function<double()> per_node_buffered_;
  sim::PeriodicTimer timer_;
  uint64_t pending_peak_ = 0;
  double buffered_sum_ = 0;
  uint64_t samples_ = 0;
};

// Nearest-rank quantile of an unsorted sample (reorders it).
double Quantile(std::vector<double>& values, double q);

// Fills the network/transport/simulator/memory-pool counters shared by every
// workload into r.sim. `pool_base` is the pool's reading before the
// repetition started.
struct PoolMark {
  uint64_t allocations = 0;
  uint64_t hits = 0;
};
PoolMark MarkPool();
void FoldSubstrate(RepResult& r, const sim::Simulator& s, const net::Network& network,
                   const std::vector<const net::Transport*>& transports, uint64_t pending_peak,
                   const PoolMark& pool_base);

// Folds the CATOCS layers' counters of every member incarnation (crashed
// ones included) into r.sim, and their PipelineStats holds into r.observed
// (zeros when the workload runs no group).
void FoldGroup(RepResult& r, const std::vector<const catocs::GroupMember*>& members);

// Folds the transactional rival's coordinator and lock-manager counters
// into r.sim (zeros when the workload runs none).
void FoldTxn(RepResult& r, const std::vector<const txn::TxnCoordinator*>& coordinators,
             const std::vector<txn::TxnReplica*>& replicas);

// Fills the end-to-end metrics from per-op latencies (simulated ms) and the
// op/failure tallies: sim_ops_per_s, op_ms_p50/p99 with sample count,
// failed_ratio, wire_bytes_per_op.
void FoldEndToEnd(RepResult& r, std::vector<double>& latencies_ms, double sim_seconds,
                  uint64_t wire_bytes);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_BENCH_H_
