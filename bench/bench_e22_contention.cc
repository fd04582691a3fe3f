// E22 — concurrency-control policies under contention (DESIGN §12). The
// transactional competitor of §4.4 runs the same DBx1000-style workload
// (Zipfian hot keys, long/short transaction mix) under each deadlock policy:
//   detect          FIFO queues + wait-for monitor breaking cycles after the
//                   fact (the seed's design, Appendix 9.2),
//   wait-die        timestamp-ordered prevention (younger requester dies,
//                   retries with its original timestamp),
//   starvation-free wound-wait prevention (older requester wounds younger
//                   holders; 2PLSF-style restarts inherit priority).
// Reports commit throughput, abort rate, p99 commit latency (retries
// included), and each policy's overhead channel (reporter messages and
// detections vs. prevention aborts). A second leg reruns E8's no-contention
// replication comparison under each policy — without conflicts the three
// are indistinguishable, so modernizing the competitor costs nothing there.
//
// --chaos       replica-crash oracle runs instead of the sweep: a replica
//               dies mid-2PC under high contention; every seed must finish
//               with zero stalls, converged survivors, and no value that
//               does not trace back to a committed transaction. Each seed
//               runs twice and must produce an identical summary.
// --policy P    restrict --chaos to one policy (chaos.sh legs).
// --seeds N / --start K   chaos seed range (default 10 from 1).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/metrics.h"
#include "src/txn/deadlock_detector.h"
#include "src/txn/replicated_store.h"
#include "src/txn/workload.h"

namespace {

using txn::DeadlockPolicy;

constexpr int kReplicas = 3;
constexpr int kClients = 16;
constexpr int kTxnsPerClient = 20;

struct Mix {
  const char* name;
  txn::WorkloadConfig workload;
};

std::vector<Mix> Mixes() {
  txn::WorkloadConfig short_mix;
  short_mix.long_txn_fraction = 0.0;
  short_mix.short_ops = 2;
  txn::WorkloadConfig long_mix;
  long_mix.long_txn_fraction = 0.3;
  long_mix.short_ops = 2;
  long_mix.long_ops = 8;
  return {{"short", short_mix}, {"long-mix", long_mix}};
}

struct CellResult {
  int commits = 0;
  int failed = 0;  // logical txns that exhausted max_attempts (still decided)
  int stalls = 0;  // txns with NO final outcome by the horizon — must be 0
  double commits_per_s = 0;
  double abort_rate = 0;  // aborted attempts / all decided attempts
  double p99_commit_us = 0;
  uint64_t detections = 0;
  uint64_t reports = 0;    // wait-for reports multicast to the monitor
  uint64_t deaths = 0;     // wait-die refusals
  uint64_t wounds = 0;     // wound-wait kills
};

// One contention cell: kClients closed-loop coordinators drive the workload
// against kReplicas 2PC replicas, all sharing one key universe. Keys inside
// a transaction are deliberately NOT sorted — reversed acquisition orders
// plus cross-replica prepare races are the deadlock fodder the policies are
// being compared on.
CellResult RunCell(DeadlockPolicy policy, const txn::WorkloadConfig& mix, double theta,
                   uint64_t seed) {
  sim::Simulator s(seed);
  // LAN-class latencies: the 2PC round is then sub-millisecond, so the cost
  // of holding a hot key while DOOMED — a deadlocked transaction waits out
  // the 50ms reporting period before the monitor can kill it — shows up as
  // the many rounds of hot-key service it displaces, exactly the ratio the
  // policies differ on. (E8's rerun below keeps E8's own WAN latencies.)
  net::Network network(&s, std::make_unique<net::UniformLatency>(sim::Duration::Micros(100),
                                                                 sim::Duration::Micros(500)));
  std::vector<std::unique_ptr<net::Transport>> transports;
  std::vector<std::unique_ptr<txn::TxnReplica>> replicas;
  std::vector<net::NodeId> ids;
  for (int i = 0; i < kReplicas; ++i) {
    ids.push_back(static_cast<net::NodeId>(i + 1));
    transports.push_back(std::make_unique<net::Transport>(&s, &network, ids.back()));
    replicas.push_back(std::make_unique<txn::TxnReplica>(&s, transports.back().get(),
                                                         txn::TxnReplicaConfig{policy}));
  }
  std::vector<std::unique_ptr<net::Transport>> client_transports;
  std::vector<std::unique_ptr<txn::TxnCoordinator>> coordinators;
  for (int c = 0; c < kClients; ++c) {
    client_transports.push_back(
        std::make_unique<net::Transport>(&s, &network, static_cast<net::NodeId>(101 + c)));
    txn::CoordinatorConfig config;
    config.id_namespace = static_cast<uint64_t>(c + 1);
    config.prepare_timeout = sim::Duration::Seconds(2);
    config.drop_slow_on_timeout = false;  // a slow vote is a lock wait, not a crash
    config.max_attempts = 200;
    config.retry_backoff = sim::Duration::Micros(250);
    coordinators.push_back(
        std::make_unique<txn::TxnCoordinator>(&s, client_transports.back().get(), ids, config));
  }

  // Detect policy: per-replica wait-for reporters feed a monitor that kills
  // the youngest cycle member at its owning coordinator. The prevention
  // policies need none of this plumbing — that asymmetry IS the overhead
  // comparison.
  net::Transport monitor_transport(&s, &network, 50);
  txn::DeadlockMonitor monitor(&s, &monitor_transport);
  std::vector<std::unique_ptr<txn::WaitForReporter>> reporters;
  if (policy == DeadlockPolicy::kDetect) {
    for (int i = 0; i < kReplicas; ++i) {
      txn::TxnReplica* replica = replicas[static_cast<size_t>(i)].get();
      reporters.push_back(std::make_unique<txn::WaitForReporter>(
          &s, transports[static_cast<size_t>(i)].get(), std::vector<net::NodeId>{50},
          sim::Duration::Millis(50),  // the repo-wide report period (rpc_deadlock.h)
          [replica] { return replica->lock_manager().WaitForEdges(); }));
      reporters.back()->Start();
    }
    monitor.SetDeadlockHandler([&coordinators](const std::vector<uint64_t>& cycle) {
      std::vector<uint64_t> by_age(cycle);
      std::sort(by_age.begin(), by_age.end(), std::greater<uint64_t>());
      for (uint64_t uid : by_age) {
        const size_t owner = static_cast<size_t>(uid >> 40);
        if (owner >= 1 && owner <= coordinators.size() &&
            coordinators[owner - 1]->AbortInFlight(uid)) {
          break;
        }
      }
    });
  }

  txn::WorkloadConfig wl = mix;
  wl.zipf_theta = theta;
  sim::Histogram latency;
  int commits = 0;
  int finished = 0;
  sim::TimePoint first_issue = sim::TimePoint::Max();
  sim::TimePoint last_done;
  std::vector<std::unique_ptr<txn::WorkloadGenerator>> generators;
  for (int c = 0; c < kClients; ++c) {
    generators.push_back(std::make_unique<txn::WorkloadGenerator>(
        wl, seed * 1000 + static_cast<uint64_t>(c), /*sort_keys=*/false));
  }
  // The recursive issue closures are owned here, not by themselves — a
  // lambda capturing its own shared_ptr is a reference cycle (leak).
  std::vector<std::shared_ptr<std::function<void(int)>>> issue_loops;
  for (int c = 0; c < kClients; ++c) {
    issue_loops.push_back(std::make_shared<std::function<void(int)>>());
    std::function<void(int)>* issue = issue_loops.back().get();
    *issue = [&, c, issue](int i) {
      if (i >= kTxnsPerClient) {
        return;
      }
      txn::TxnSpec spec = generators[static_cast<size_t>(c)]->NextTxn();
      std::map<std::string, double> writes;
      const double value = static_cast<double>((c + 1) * 100000 + i);
      for (const std::string& key : spec.WriteKeys()) {
        writes[key] = value;
      }
      const sim::TimePoint started = s.now();
      if (started < first_issue) {
        first_issue = started;
      }
      coordinators[static_cast<size_t>(c)]->WriteMany(
          std::move(writes), [&, issue, i, started](bool ok) {
            if (ok) {
              ++commits;
              latency.Record(static_cast<double>((s.now() - started).nanos()) / 1000.0);
            }
            ++finished;
            last_done = s.now();
            (*issue)(i + 1);
          });
    };
    s.ScheduleAfter(sim::Duration::Micros(100 * static_cast<uint64_t>(c + 1)),
                    [issue] { (*issue)(0); });
  }
  s.RunFor(sim::Duration::Seconds(300));
  for (auto& reporter : reporters) {
    reporter->Stop();
  }

  CellResult out;
  out.commits = commits;
  out.stalls = kClients * kTxnsPerClient - finished;
  uint64_t aborted = 0;
  uint64_t committed = 0;
  for (auto& c : coordinators) {
    aborted += c->stats().aborted;
    committed += c->stats().committed;
    out.failed += static_cast<int>(c->stats().failed);
  }
  out.abort_rate = (aborted + committed) > 0
                       ? static_cast<double>(aborted) / static_cast<double>(aborted + committed)
                       : 0.0;
  const double elapsed_s = (last_done - first_issue).seconds();
  out.commits_per_s = elapsed_s > 0 ? commits / elapsed_s : 0;
  out.p99_commit_us = latency.Quantile(0.99);
  out.detections = monitor.detections();
  for (auto& reporter : reporters) {
    out.reports += reporter->reports_sent();
  }
  for (auto& r : replicas) {
    out.deaths += r->lock_manager().stats().wait_die_aborts;
    out.wounds += r->lock_manager().stats().wounds;
  }
  return out;
}

// E8's no-contention leg (single closed-loop coordinator, round-robin keys,
// seed 77) rerun with the replica lock policy swapped: the policies only
// act under conflict, so these rows should be identical.
struct E8Perf {
  double mean_latency_us = 0;
  double p99_latency_us = 0;
  double throughput_per_s = 0;
};

E8Perf RunE8Style(DeadlockPolicy policy) {
  constexpr int kWrites = 300;
  sim::Simulator s(77);
  net::Network network(&s, std::make_unique<net::UniformLatency>(sim::Duration::Millis(1),
                                                                 sim::Duration::Millis(5)));
  std::vector<std::unique_ptr<net::Transport>> transports;
  std::vector<std::unique_ptr<txn::TxnReplica>> nodes;
  std::vector<net::NodeId> ids;
  for (int i = 0; i < kReplicas; ++i) {
    ids.push_back(static_cast<net::NodeId>(i + 1));
    transports.push_back(std::make_unique<net::Transport>(&s, &network, ids.back()));
    nodes.push_back(std::make_unique<txn::TxnReplica>(&s, transports.back().get(),
                                                      txn::TxnReplicaConfig{policy}));
  }
  txn::TxnCoordinator coordinator(&s, transports[0].get(), ids);
  sim::Histogram latency;
  int done = 0;
  sim::TimePoint first_issue;
  sim::TimePoint last_done;
  std::function<void(int)> issue = [&](int k) {
    if (k >= kWrites) {
      return;
    }
    const sim::TimePoint started = s.now();
    if (k == 0) {
      first_issue = started;
    }
    coordinator.Write("key" + std::to_string(k % 32), k, [&, started, k](bool ok) {
      if (ok) {
        latency.Record(static_cast<double>((s.now() - started).nanos()) / 1000.0);
      }
      ++done;
      last_done = s.now();
      issue(k + 1);
    });
  };
  s.ScheduleAfter(sim::Duration::Millis(1), [&] { issue(0); });
  s.RunFor(sim::Duration::Seconds(120));
  E8Perf perf;
  perf.mean_latency_us = latency.mean();
  perf.p99_latency_us = latency.Quantile(0.99);
  const double elapsed_s = (last_done - first_issue).seconds();
  perf.throughput_per_s = elapsed_s > 0 ? done / elapsed_s : 0;
  return perf;
}

// --- chaos oracle ------------------------------------------------------------

// One chaos seed: high-contention load with a replica crashing mid-2PC.
// drop_slow_on_timeout is ON (the seed's write-all-available rule) with a
// timeout far above any lock wait, so only the genuinely dead replica gets
// dropped. Returns a deterministic summary string; `ok` reports the oracle.
struct ChaosOutcome {
  bool ok = true;
  std::string why;
  std::string summary;
};

ChaosOutcome RunChaosSeed(DeadlockPolicy policy, uint64_t seed) {
  constexpr int kChaosClients = 4;
  constexpr int kChaosTxns = 25;
  sim::Simulator s(seed);
  net::Network network(&s, std::make_unique<net::UniformLatency>(sim::Duration::Millis(1),
                                                                 sim::Duration::Millis(5)));
  std::vector<std::unique_ptr<net::Transport>> transports;
  std::vector<std::unique_ptr<txn::TxnReplica>> replicas;
  std::vector<net::NodeId> ids;
  for (int i = 0; i < kReplicas; ++i) {
    ids.push_back(static_cast<net::NodeId>(i + 1));
    transports.push_back(std::make_unique<net::Transport>(&s, &network, ids.back()));
    replicas.push_back(std::make_unique<txn::TxnReplica>(&s, transports.back().get(),
                                                         txn::TxnReplicaConfig{policy}));
  }
  std::vector<std::unique_ptr<net::Transport>> client_transports;
  std::vector<std::unique_ptr<txn::TxnCoordinator>> coordinators;
  for (int c = 0; c < kChaosClients; ++c) {
    client_transports.push_back(
        std::make_unique<net::Transport>(&s, &network, static_cast<net::NodeId>(101 + c)));
    txn::CoordinatorConfig config;
    config.id_namespace = static_cast<uint64_t>(c + 1);
    config.prepare_timeout = sim::Duration::Seconds(2);
    config.drop_slow_on_timeout = true;  // crashed replicas must be droppable
    config.max_attempts = 200;
    config.retry_backoff = sim::Duration::Millis(1);
    coordinators.push_back(
        std::make_unique<txn::TxnCoordinator>(&s, client_transports.back().get(), ids, config));
  }
  net::Transport monitor_transport(&s, &network, 50);
  txn::DeadlockMonitor monitor(&s, &monitor_transport);
  std::vector<std::unique_ptr<txn::WaitForReporter>> reporters;
  if (policy == DeadlockPolicy::kDetect) {
    for (int i = 0; i < kReplicas; ++i) {
      txn::TxnReplica* replica = replicas[static_cast<size_t>(i)].get();
      reporters.push_back(std::make_unique<txn::WaitForReporter>(
          &s, transports[static_cast<size_t>(i)].get(), std::vector<net::NodeId>{50},
          sim::Duration::Millis(50),  // the repo-wide report period (rpc_deadlock.h)
          [replica] { return replica->lock_manager().WaitForEdges(); }));
      reporters.back()->Start();
    }
    monitor.SetDeadlockHandler([&coordinators](const std::vector<uint64_t>& cycle) {
      std::vector<uint64_t> by_age(cycle);
      std::sort(by_age.begin(), by_age.end(), std::greater<uint64_t>());
      for (uint64_t uid : by_age) {
        const size_t owner = static_cast<size_t>(uid >> 40);
        if (owner >= 1 && owner <= coordinators.size() &&
            coordinators[owner - 1]->AbortInFlight(uid)) {
          break;
        }
      }
    });
  }

  txn::WorkloadConfig wl;
  wl.zipf_theta = 1.2;
  wl.long_txn_fraction = 0.3;
  wl.long_ops = 8;
  // Commit log in decision order. 2PL serializes same-key commit decisions
  // (a later writer's prepare is not granted anywhere until the earlier
  // decision arrived there), so replaying this log per replica — applying
  // only the commits whose participant set contains it — yields the EXACT
  // store every live replica must end with. Lost, phantom, and duplicated
  // commits all surface as a mismatch.
  struct CommitRecord {
    std::map<std::string, double> writes;
    std::vector<net::NodeId> participants;
  };
  std::vector<CommitRecord> commit_log;
  int commits = 0;
  int finished = 0;
  std::vector<std::unique_ptr<txn::WorkloadGenerator>> generators;
  for (int c = 0; c < kChaosClients; ++c) {
    generators.push_back(std::make_unique<txn::WorkloadGenerator>(
        wl, seed * 1000 + static_cast<uint64_t>(c), /*sort_keys=*/false));
  }
  // Owned here, not self-captured (see RunCell).
  std::vector<std::shared_ptr<std::function<void(int)>>> issue_loops;
  for (int c = 0; c < kChaosClients; ++c) {
    issue_loops.push_back(std::make_shared<std::function<void(int)>>());
    std::function<void(int)>* issue = issue_loops.back().get();
    *issue = [&, c, issue](int i) {
      if (i >= kChaosTxns) {
        return;
      }
      txn::TxnSpec spec = generators[static_cast<size_t>(c)]->NextTxn();
      std::map<std::string, double> writes;
      const double value = static_cast<double>((c + 1) * 100000 + i);
      for (const std::string& key : spec.WriteKeys()) {
        writes[key] = value;
      }
      coordinators[static_cast<size_t>(c)]->WriteMany(std::move(writes),
                                                      [&, issue, i](bool ok) {
                                                        if (ok) {
                                                          ++commits;
                                                        }
                                                        ++finished;
                                                        (*issue)(i + 1);
                                                      });
    };
    s.ScheduleAfter(sim::Duration::Micros(100 * static_cast<uint64_t>(c + 1)),
                    [issue] { (*issue)(0); });
  }
  for (auto& c : coordinators) {
    c->SetCommitObserver([&commit_log](uint64_t txn, const std::map<std::string, double>& writes,
                                       const std::vector<net::NodeId>& participants) {
      (void)txn;
      commit_log.push_back({writes, participants});
    });
  }

  // The crash: one replica drops off the network mid-run, prepared-but-
  // undecided transactions and all. Crash time and victim vary by seed.
  const net::NodeId victim = static_cast<net::NodeId>(1 + seed % kReplicas);
  const sim::Duration crash_at = sim::Duration::Millis(500 + (seed * 137) % 1500);
  s.ScheduleAfter(crash_at, [&network, victim] { network.SetNodeUp(victim, false); });
  s.RunFor(sim::Duration::Seconds(600));
  for (auto& reporter : reporters) {
    reporter->Stop();
  }

  ChaosOutcome out;
  int failed = 0;
  for (auto& c : coordinators) {
    failed += static_cast<int>(c->stats().failed);
  }
  const int expected = kChaosClients * kChaosTxns;
  if (finished != expected) {
    out.ok = false;
    out.why = "stall: " + std::to_string(expected - finished) + " txns never decided";
  }
  // Exact-store oracle: every live replica must equal the replay of the
  // commit log restricted to the commits it participated in.
  double store_sum = 0;
  size_t store_keys = 0;
  for (size_t i = 0; out.ok && i < replicas.size(); ++i) {
    const net::NodeId id = ids[i];
    if (id == victim) {
      continue;  // crashed: its store may lawfully be behind
    }
    std::map<std::string, double> want;
    for (const CommitRecord& commit : commit_log) {
      if (std::find(commit.participants.begin(), commit.participants.end(), id) !=
          commit.participants.end()) {
        for (const auto& [key, value] : commit.writes) {
          want[key] = value;
        }
      }
    }
    if (replicas[i]->store() != want) {
      out.ok = false;
      out.why = "replica " + std::to_string(id) +
                " store mismatch vs commit-log replay (lost or phantom commit)";
      break;
    }
    if (store_keys == 0) {
      for (const auto& [key, value] : want) {
        (void)key;
        store_sum += value;
        ++store_keys;
      }
    }
  }
  char digest[160];
  std::snprintf(digest, sizeof(digest), "commits=%d failed=%d keys=%zu sum=%.0f", commits,
                failed, store_keys, store_sum);
  out.summary = digest;
  return out;
}

int RunChaos(const std::vector<DeadlockPolicy>& policies, uint64_t seeds, uint64_t start) {
  int failures = 0;
  for (DeadlockPolicy policy : policies) {
    for (uint64_t seed = start; seed < start + seeds; ++seed) {
      ChaosOutcome a = RunChaosSeed(policy, seed);
      ChaosOutcome b = RunChaosSeed(policy, seed);
      const bool deterministic = a.summary == b.summary;
      const bool ok = a.ok && deterministic;
      std::printf("chaos policy=%-15s seed=%-4llu %s  [%s]%s%s\n",
                  txn::DeadlockPolicyName(policy), static_cast<unsigned long long>(seed),
                  ok ? "PASS" : "FAIL", a.summary.c_str(),
                  a.ok ? "" : ("  " + a.why).c_str(),
                  deterministic ? "" : "  NONDETERMINISTIC RERUN");
      if (!ok) {
        ++failures;
      }
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "bench_e22_contention --chaos: %d seed(s) failed\n", failures);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool chaos = false;
  uint64_t seeds = 10;
  uint64_t start = 1;
  std::vector<DeadlockPolicy> policies = {DeadlockPolicy::kDetect, DeadlockPolicy::kWaitDie,
                                          DeadlockPolicy::kStarvationFree};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
    } else if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      seeds = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--start") == 0 && i + 1 < argc) {
      start = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--policy") == 0 && i + 1 < argc) {
      DeadlockPolicy parsed;
      if (!txn::ParseDeadlockPolicy(argv[++i], &parsed)) {
        std::fprintf(stderr, "unknown policy %s (detect|wait-die|starvation-free)\n", argv[i]);
        return 1;
      }
      policies = {parsed};
    } else {
      std::fprintf(stderr,
                   "usage: bench_e22_contention [--chaos [--policy P] [--seeds N] [--start K]]\n");
      return 1;
    }
  }

  if (chaos) {
    return RunChaos(policies, seeds, start);
  }

  benchutil::Header(
      "E22 — concurrency control under contention: detect vs wait-die vs wound-wait (§9.2)",
      "prevention policies resolve conflicts at acquire time; the detect policy pays a "
      "monitor round-trip per deadlock, which serializes the hot keys");
  benchutil::Row("%-16s %-6s %-9s %-9s %-11s %-8s %-11s %-12s %-7s %s", "policy", "theta",
                 "mix", "commits", "commits/s", "abort%", "p99_ms", "detect(ovh)", "deaths",
                 "wounds  [failed/stalls]");
  CellResult hot_detect;
  CellResult hot_wait_die;
  CellResult hot_starvation_free;
  const std::vector<Mix> mixes = Mixes();
  for (DeadlockPolicy policy : policies) {
    for (double theta : {0.0, 0.8, 1.2}) {
      for (const Mix& mix : mixes) {
        const uint64_t seed = 900 + static_cast<uint64_t>(theta * 10);
        CellResult r = RunCell(policy, mix.workload, theta, seed);
        char detect_col[48];
        std::snprintf(detect_col, sizeof(detect_col), "%llu/%llu",
                      static_cast<unsigned long long>(r.detections),
                      static_cast<unsigned long long>(r.reports));
        benchutil::Row("%-16s %-6.1f %-9s %-9d %-11.1f %-8.1f %-11.2f %-12s %-7llu %-7llu [%d/%d]",
                       txn::DeadlockPolicyName(policy), theta, mix.name, r.commits,
                       r.commits_per_s, 100.0 * r.abort_rate, r.p99_commit_us / 1000.0,
                       detect_col, static_cast<unsigned long long>(r.deaths),
                       static_cast<unsigned long long>(r.wounds), r.failed, r.stalls);
        if (theta == 1.2 && std::strcmp(mix.name, "long-mix") == 0) {
          if (policy == DeadlockPolicy::kDetect) {
            hot_detect = r;
          } else if (policy == DeadlockPolicy::kWaitDie) {
            hot_wait_die = r;
          } else {
            hot_starvation_free = r;
          }
        }
      }
    }
    benchutil::Row("");
  }
  if (hot_detect.commits_per_s > 0 && policies.size() == 3) {
    benchutil::Row("hottest cell (theta=1.2, long-mix) speedup over detect: wait-die %.2fx, "
                   "wound-wait %.2fx",
                   hot_wait_die.commits_per_s / hot_detect.commits_per_s,
                   hot_starvation_free.commits_per_s / hot_detect.commits_per_s);
  }

  benchutil::Row("");
  benchutil::Row("E8 rerun (no contention, single coordinator, %d replicas): policy is free "
                 "without conflicts",
                 kReplicas);
  benchutil::Row("%-16s %-14s %-14s %s", "policy", "mean_lat_us", "p99_lat_us", "writes/s");
  for (DeadlockPolicy policy : policies) {
    E8Perf perf = RunE8Style(policy);
    benchutil::Row("%-16s %-14.1f %-14.1f %.1f", txn::DeadlockPolicyName(policy),
                   perf.mean_latency_us, perf.p99_latency_us, perf.throughput_per_s);
  }
  return 0;
}
