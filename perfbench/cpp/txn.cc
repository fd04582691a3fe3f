// txn-contention: E22's hottest cell, the state-level rival the paper
// argues for. 3 two-phase-commit replicas under the starvation-free
// (wound-wait) lock policy, 16 closed-loop coordinators, Zipf theta=1.2
// hot keys, the long mix (30% of transactions touch 8 keys), unsorted key
// order, LAN links of 100-500 us. It runs sim, net and txn but no CATOCS
// ordering code, so a CATOCS-only change must leave it unchanged.
//
// The seed drives the simulator and every client's transaction stream.

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cpp/bench.h"
#include "cpp/oracles.h"
#include "src/net/latency.h"
#include "src/txn/replicated_store.h"
#include "src/txn/workload.h"

namespace perfbench {

namespace {

constexpr int kReplicas = 3;
constexpr int kClients = 16;
constexpr int kTxnsPerClient = 2500;
constexpr sim::Duration kLimit = sim::Duration::Seconds(600);
// After the last completion, long enough for every commit decision to reach
// every replica (LAN links, 500 us WAL flush) before the stores are checked.
constexpr sim::Duration kDrain = sim::Duration::Millis(50);

}  // namespace

RepResult RunTxnContention(const RunContext& ctx) {
  RepResult r;
  const PoolMark pool = MarkPool();
  sim::Simulator s(ctx.seed);
  const int txns_per_client =
      std::max(1, static_cast<int>(kTxnsPerClient * ctx.horizon_scale));

  std::unique_ptr<net::Network> network;
  std::vector<std::unique_ptr<net::Transport>> transports;
  std::vector<std::unique_ptr<txn::TxnReplica>> replicas;
  std::vector<std::unique_ptr<txn::TxnCoordinator>> coordinators;
  const Clock::time_point setup_start = Clock::now();
  {
    Tracer::Scope span(ctx.tracer, Tracer::kSetup);
    network = std::make_unique<net::Network>(
        &s, std::make_unique<net::UniformLatency>(sim::Duration::Micros(100),
                                                  sim::Duration::Micros(500)));
    std::vector<net::NodeId> ids;
    for (int i = 0; i < kReplicas; ++i) {
      ids.push_back(static_cast<net::NodeId>(i + 1));
      transports.push_back(std::make_unique<net::Transport>(&s, network.get(), ids.back()));
      replicas.push_back(std::make_unique<txn::TxnReplica>(
          &s, transports.back().get(), txn::TxnReplicaConfig{txn::DeadlockPolicy::kStarvationFree}));
    }
    for (int c = 0; c < kClients; ++c) {
      transports.push_back(
          std::make_unique<net::Transport>(&s, network.get(), static_cast<net::NodeId>(101 + c)));
      txn::CoordinatorConfig config;
      config.id_namespace = static_cast<uint64_t>(c + 1);
      config.prepare_timeout = sim::Duration::Seconds(2);
      config.drop_slow_on_timeout = false;  // a slow vote is a lock wait, not a crash
      config.max_attempts = 200;
      config.retry_backoff = sim::Duration::Micros(250);
      coordinators.push_back(
          std::make_unique<txn::TxnCoordinator>(&s, transports.back().get(), ids, config));
    }
  }
  r.setup_s = SecondsSince(setup_start);
  if (ctx.setup_only) {
    return r;
  }

  txn::WorkloadConfig wl;
  wl.zipf_theta = 1.2;
  wl.long_txn_fraction = 0.3;
  wl.short_ops = 2;
  wl.long_ops = 8;
  std::vector<std::unique_ptr<txn::WorkloadGenerator>> generators;
  for (int c = 0; c < kClients; ++c) {
    generators.push_back(std::make_unique<txn::WorkloadGenerator>(
        wl, ctx.seed * 1000 + static_cast<uint64_t>(c), /*sort_keys=*/false));
  }

  std::vector<WriteSet> commit_log;
  for (auto& coordinator : coordinators) {
    coordinator->SetCommitObserver(
        [&commit_log](uint64_t, const std::map<std::string, double>& writes,
                      const std::vector<net::NodeId>&) { commit_log.push_back(writes); });
  }

  std::vector<double> latencies_ms;
  uint64_t commits = 0;
  int finished = 0;
  const int total = kClients * txns_per_client;
  bool stop = false;
  sim::TimePoint last_done;
  // Closed loop: each client issues its next transaction from the previous
  // one's completion. The loops are owned here, not self-captured.
  std::vector<std::function<void(int)>> issue(kClients);
  for (int c = 0; c < kClients; ++c) {
    issue[static_cast<size_t>(c)] = [&, c](int i) {
      if (i >= txns_per_client) {
        return;
      }
      const uint64_t key = (static_cast<uint64_t>(c + 1) << 32) | static_cast<uint64_t>(i);
      txn::TxnSpec spec = generators[static_cast<size_t>(c)]->NextTxn();
      std::map<std::string, double> writes;
      const double value = static_cast<double>((c + 1) * 100000 + i);
      for (const std::string& k : spec.WriteKeys()) {
        writes[k] = value;
      }
      const sim::TimePoint started = s.now();
      Tracer::Scope span(ctx.tracer, Tracer::kSubmit, key);
      coordinators[static_cast<size_t>(c)]->WriteMany(
          std::move(writes), [&, c, i, key, started](bool ok) {
            Tracer::Scope done(ctx.tracer, Tracer::kCommit, key);
            if (ok) {
              ++commits;
              latencies_ms.push_back(static_cast<double>((s.now() - started).nanos()) / 1e6);
            }
            if (++finished == total) {
              last_done = s.now();
              s.ScheduleAfter(kDrain, [&stop, &s] {
                stop = true;
                s.RequestStop();
              });
            }
            issue[static_cast<size_t>(c)](i + 1);
          });
    };
    s.ScheduleAfter(sim::Duration::Micros(100 * static_cast<int64_t>(c + 1)),
                    [&issue, c] { issue[static_cast<size_t>(c)](0); });
  }
  Sampler sampler(&s);
  sampler.Start(Sampler::kPeriod);

  const Clock::time_point run_start = Clock::now();
  Drive(s, stop, s.now() + kLimit, ctx.tracer);
  r.run_s = SecondsSince(run_start);

  Findings findings;
  if (finished != total) {
    findings.Add("txn: " + std::to_string(total - finished) + " transactions never decided",
                 static_cast<uint64_t>(total - finished));
  }
  std::vector<const txn::TxnCoordinator*> coordinator_ptrs;
  for (auto& c : coordinators) {
    coordinator_ptrs.push_back(c.get());
  }
  std::vector<txn::TxnReplica*> replica_ptrs;
  std::vector<const std::map<std::string, double>*> stores;
  for (auto& replica : replicas) {
    replica_ptrs.push_back(replica.get());
    stores.push_back(&replica->store());
  }
  FoldTxn(r, coordinator_ptrs, replica_ptrs);
  const uint64_t gave_up = static_cast<uint64_t>(r.sim["txn.failed"]);
  if (gave_up > 0) {
    findings.Add("txn: " + std::to_string(gave_up) + " transactions gave up", gave_up);
  }
  CheckCommitLog(commit_log, stores, findings);

  r.ops = commits;
  r.failed = findings.count;
  r.attempted = r.ops + r.failed;
  r.violations = findings.first;
  std::vector<const net::Transport*> transport_ptrs;
  for (auto& t : transports) {
    transport_ptrs.push_back(t.get());
  }
  FoldSubstrate(r, s, *network, transport_ptrs, sampler.pending_peak(), pool);
  r.sim["txn.issued"] = total;
  FoldGroup(r, {});
  r.sim["catocs.send_calls"] = 0;
  r.sim["buffered_msgs_mean"] = 0;
  FoldEndToEnd(r, latencies_ms, last_done.seconds(), network->bytes_sent());
  return r;
}

}  // namespace perfbench
