// Tests for the two replicated stores of §4.4: transactional (HARP-like,
// 2PC + WAL + write-all-available) and CATOCS-based (Deceit-like, primary
// updater with write-safety levels).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/catocs/group.h"
#include "src/sim/simulator.h"
#include "src/txn/deadlock_detector.h"
#include "src/txn/replicated_store.h"

namespace txn {
namespace {

// Rig for the transactional store: N replica nodes plus the coordinator
// co-located with replica node 1.
struct TxnRig {
  sim::Simulator s;
  std::unique_ptr<net::Network> network;
  std::vector<std::unique_ptr<net::Transport>> transports;
  std::vector<std::unique_ptr<TxnReplica>> replicas;
  std::unique_ptr<TxnCoordinator> coordinator;

  explicit TxnRig(size_t n, uint64_t seed = 1) : s(seed) {
    network = std::make_unique<net::Network>(
        &s, std::make_unique<net::UniformLatency>(sim::Duration::Millis(1),
                                                  sim::Duration::Millis(5)));
    std::vector<net::NodeId> ids;
    for (size_t i = 0; i < n; ++i) {
      ids.push_back(static_cast<net::NodeId>(i + 1));
      transports.push_back(std::make_unique<net::Transport>(&s, network.get(), ids.back()));
      replicas.push_back(std::make_unique<TxnReplica>(&s, transports.back().get()));
    }
    coordinator = std::make_unique<TxnCoordinator>(&s, transports[0].get(), ids);
  }
};

TEST(TxnStoreTest, WriteReachesAllReplicas) {
  TxnRig rig(3);
  bool committed = false;
  rig.coordinator->Write("x", 42.0, [&](bool ok) { committed = ok; });
  rig.s.RunFor(sim::Duration::Seconds(2));
  EXPECT_TRUE(committed);
  for (auto& replica : rig.replicas) {
    EXPECT_EQ(replica->Read("x"), 42.0);
  }
  EXPECT_EQ(rig.coordinator->stats().committed, 1u);
}

TEST(TxnStoreTest, GroupedWritesAreAtomic) {
  TxnRig rig(3);
  bool committed = false;
  rig.coordinator->WriteMany({{"a", 1.0}, {"b", 2.0}, {"c", 3.0}},
                             [&](bool ok) { committed = ok; });
  rig.s.RunFor(sim::Duration::Seconds(2));
  EXPECT_TRUE(committed);
  for (auto& replica : rig.replicas) {
    EXPECT_EQ(replica->Read("a"), 1.0);
    EXPECT_EQ(replica->Read("b"), 2.0);
    EXPECT_EQ(replica->Read("c"), 3.0);
  }
}

TEST(TxnStoreTest, ReplicaVetoAbortsEverywhere) {
  // Limitation 2 ("can't say together"): a replica rejecting for state-level
  // reasons aborts the whole group atomically — something CATOCS delivery
  // order cannot express.
  TxnRig rig(3);
  rig.replicas[2]->SetVoteHook([](const std::string& key) { return key != "forbidden"; });
  bool result = true;
  rig.coordinator->WriteMany({{"ok", 1.0}, {"forbidden", 2.0}}, [&](bool ok) { result = ok; });
  rig.s.RunFor(sim::Duration::Seconds(2));
  EXPECT_FALSE(result);
  for (auto& replica : rig.replicas) {
    EXPECT_FALSE(replica->Read("ok").has_value()) << "no partial application";
    EXPECT_FALSE(replica->Read("forbidden").has_value());
  }
  EXPECT_EQ(rig.coordinator->stats().aborted, 1u);
}

TEST(TxnStoreTest, FailedReplicaDroppedFromAvailabilityList) {
  TxnRig rig(3);
  rig.network->SetNodeUp(3, false);
  bool committed = false;
  rig.coordinator->Write("x", 7.0, [&](bool ok) { committed = ok; });
  rig.s.RunFor(sim::Duration::Seconds(2));
  EXPECT_TRUE(committed) << "write-all-available commits with the survivors";
  EXPECT_EQ(rig.coordinator->stats().replicas_dropped, 1u);
  EXPECT_EQ(rig.coordinator->availability_list(), (std::vector<net::NodeId>{1, 2}));
  EXPECT_EQ(rig.replicas[0]->Read("x"), 7.0);
  EXPECT_EQ(rig.replicas[1]->Read("x"), 7.0);
  // Subsequent writes skip the dead replica entirely (no timeout stall).
  bool second = false;
  rig.coordinator->Write("y", 8.0, [&](bool ok) { second = ok; });
  rig.s.RunFor(sim::Duration::Seconds(1));
  EXPECT_TRUE(second);
}

TEST(TxnStoreTest, CommittedWritesAreDurableInWal) {
  TxnRig rig(2);
  bool committed = false;
  rig.coordinator->Write("x", 1.0, [&](bool ok) { committed = ok; });
  rig.s.RunFor(sim::Duration::Seconds(1));
  ASSERT_TRUE(committed);
  // Every replica forced a prepare record before voting.
  for (auto& replica : rig.replicas) {
    EXPECT_GE(replica->wal().appended(), 1u);
  }
}

TEST(TxnStoreTest, SequentialWritesLastValueWins) {
  TxnRig rig(3);
  int done = 0;
  for (int i = 1; i <= 5; ++i) {
    rig.s.ScheduleAfter(sim::Duration::Millis(50 * i), [&rig, &done, i] {
      rig.coordinator->Write("x", static_cast<double>(i), [&done](bool) { ++done; });
    });
  }
  rig.s.RunFor(sim::Duration::Seconds(3));
  EXPECT_EQ(done, 5);
  for (auto& replica : rig.replicas) {
    EXPECT_EQ(replica->Read("x"), 5.0);
  }
}

// --- contention: policies, abort/restart, distributed deadlocks (DESIGN §12) -------

// Rig with several coordinators on distinct client nodes, all writing through
// the same replica group — the cross-coordinator conflicts the single-client
// TxnRig can never produce.
struct ContentionRig {
  sim::Simulator s;
  std::unique_ptr<net::Network> network;
  std::vector<std::unique_ptr<net::Transport>> transports;
  std::vector<std::unique_ptr<TxnReplica>> replicas;
  std::vector<std::unique_ptr<net::Transport>> client_transports;
  std::vector<std::unique_ptr<TxnCoordinator>> coordinators;
  std::vector<std::shared_ptr<std::function<void(int)>>> issue_loops;

  ContentionRig(size_t n_replicas, size_t n_coordinators, DeadlockPolicy policy,
                uint64_t seed = 1)
      : s(seed) {
    network = std::make_unique<net::Network>(
        &s, std::make_unique<net::UniformLatency>(sim::Duration::Millis(1),
                                                  sim::Duration::Millis(5)));
    std::vector<net::NodeId> ids;
    for (size_t i = 0; i < n_replicas; ++i) {
      ids.push_back(static_cast<net::NodeId>(i + 1));
      transports.push_back(std::make_unique<net::Transport>(&s, network.get(), ids.back()));
      replicas.push_back(std::make_unique<TxnReplica>(&s, transports.back().get(),
                                                      TxnReplicaConfig{policy}));
    }
    for (size_t i = 0; i < n_coordinators; ++i) {
      client_transports.push_back(std::make_unique<net::Transport>(
          &s, network.get(), static_cast<net::NodeId>(100 + i)));
      CoordinatorConfig config;
      config.id_namespace = i + 1;  // uid = namespace<<40 | seq: no collisions
      config.prepare_timeout = sim::Duration::Seconds(2);
      config.drop_slow_on_timeout = false;  // slow vote == lock wait, not crash
      config.max_attempts = 20;
      config.retry_backoff = sim::Duration::Millis(3);
      coordinators.push_back(
          std::make_unique<TxnCoordinator>(&s, client_transports.back().get(), ids, config));
    }
  }

  // Closed loop: each coordinator writes the SAME two keys `count` times,
  // each write waiting for the previous one's final outcome. The recursive
  // issue closures are owned by the rig (capturing the shared_ptr in the
  // lambda itself would be a reference cycle and leak).
  void RunConflictingLoad(int count, std::vector<int>* completed) {
    completed->assign(coordinators.size(), 0);
    for (size_t c = 0; c < coordinators.size(); ++c) {
      issue_loops.push_back(std::make_shared<std::function<void(int)>>());
      std::function<void(int)>* issue = issue_loops.back().get();
      *issue = [this, c, count, completed, issue](int i) {
        if (i > count) {
          return;
        }
        coordinators[c]->WriteMany(
            {{"a", static_cast<double>(100 * (c + 1) + i)},
             {"b", static_cast<double>(100 * (c + 1) + i)}},
            [this, c, count, completed, issue, i](bool ok) {
              if (ok) {
                ++(*completed)[c];
              }
              (*issue)(i + 1);
            });
      };
      (*issue)(1);
    }
  }

  bool Converged() const {
    for (size_t i = 1; i < replicas.size(); ++i) {
      if (!DivergentKeys(replicas[0]->store(), replicas[i]->store()).empty()) {
        return false;
      }
    }
    return true;
  }
};

TEST(ContentionTest, WaitDieRetriesUntilEveryTxnCommits) {
  ContentionRig rig(2, 2, DeadlockPolicy::kWaitDie, 3);
  std::vector<int> completed;
  rig.RunConflictingLoad(10, &completed);
  rig.s.RunFor(sim::Duration::Seconds(20));
  EXPECT_EQ(completed, (std::vector<int>{10, 10}))
      << "every logical txn must commit (no starvation, retained timestamps)";
  EXPECT_TRUE(rig.Converged());
  uint64_t failed = 0, aborted = 0;
  for (auto& c : rig.coordinators) {
    failed += c->stats().failed;
    aborted += c->stats().aborted;
  }
  EXPECT_EQ(failed, 0u);
  EXPECT_GT(aborted, 0u) << "conflicting closed loops should produce wait-die deaths";
  uint64_t deaths = 0;
  for (auto& r : rig.replicas) {
    deaths += r->lock_manager().stats().wait_die_aborts;
  }
  EXPECT_GT(deaths, 0u);
}

TEST(ContentionTest, StarvationFreeWoundsAndEveryTxnCommits) {
  ContentionRig rig(2, 2, DeadlockPolicy::kStarvationFree, 3);
  std::vector<int> completed;
  rig.RunConflictingLoad(10, &completed);
  rig.s.RunFor(sim::Duration::Seconds(20));
  EXPECT_EQ(completed, (std::vector<int>{10, 10}));
  EXPECT_TRUE(rig.Converged());
  uint64_t failed = 0;
  for (auto& c : rig.coordinators) {
    failed += c->stats().failed;
  }
  EXPECT_EQ(failed, 0u);
  uint64_t wounds = 0, deaths = 0, local_aborts = 0;
  for (auto& r : rig.replicas) {
    wounds += r->lock_manager().stats().wounds;
    deaths += r->lock_manager().stats().wait_die_aborts;
    local_aborts += r->local_aborts();
  }
  EXPECT_GT(wounds, 0u) << "older txns should wound younger holders under conflict";
  EXPECT_EQ(wounds + deaths, local_aborts)
      << "every wound and every pinned-holder refusal must surface as a NO vote";
}

// Detect policy end to end: cross-replica deadlocks (A holds both keys at
// replica 1 and queues at replica 2; B vice versa) are invisible to either
// replica alone, found by the monitor over the union of reported edges, and
// broken by AbortInFlight at the victim's coordinator; the victim retries
// with its retained timestamp.
TEST(ContentionTest, DetectPolicyMonitorBreaksCrossReplicaDeadlock) {
  ContentionRig rig(2, 2, DeadlockPolicy::kDetect, 4);
  net::Transport monitor_transport(&rig.s, rig.network.get(), 50);
  DeadlockMonitor monitor(&rig.s, &monitor_transport);
  std::vector<std::unique_ptr<WaitForReporter>> reporters;
  for (size_t i = 0; i < rig.replicas.size(); ++i) {
    TxnReplica* replica = rig.replicas[i].get();
    reporters.push_back(std::make_unique<WaitForReporter>(
        &rig.s, rig.transports[i].get(), std::vector<net::NodeId>{50},
        sim::Duration::Millis(15),
        [replica] { return replica->lock_manager().WaitForEdges(); }));
    reporters.back()->Start();
  }
  monitor.SetDeadlockHandler([&](const std::vector<uint64_t>& cycle) {
    // Victim = youngest (max uid within the cycle); its namespace bits say
    // which coordinator owns it.
    std::vector<uint64_t> by_age(cycle);
    std::sort(by_age.begin(), by_age.end(), std::greater<uint64_t>());
    for (uint64_t uid : by_age) {
      const size_t owner = static_cast<size_t>(uid >> 40);
      if (owner >= 1 && owner <= rig.coordinators.size() &&
          rig.coordinators[owner - 1]->AbortInFlight(uid)) {
        break;
      }
    }
  });
  std::vector<int> completed;
  rig.RunConflictingLoad(10, &completed);
  rig.s.RunFor(sim::Duration::Seconds(30));
  for (auto& reporter : reporters) {
    reporter->Stop();
  }
  EXPECT_EQ(completed, (std::vector<int>{10, 10}))
      << "victim kill + retry must drive every logical txn to commit";
  EXPECT_TRUE(rig.Converged());
  EXPECT_GT(monitor.detections(), 0u)
      << "conflicting closed loops across two replicas should deadlock";
}

TEST(ContentionTest, PoliciesAgreeOnFinalStateForSerialLoad) {
  // Uncontended serial writes must be policy-invariant (the E8 rerun claim).
  std::map<std::string, double> stores[3];
  int p = 0;
  for (DeadlockPolicy policy : {DeadlockPolicy::kDetect, DeadlockPolicy::kWaitDie,
                                DeadlockPolicy::kStarvationFree}) {
    ContentionRig rig(3, 1, policy, 9);
    int done = 0;
    for (int i = 1; i <= 6; ++i) {
      rig.s.ScheduleAfter(sim::Duration::Millis(40 * i), [&rig, &done, i] {
        rig.coordinators[0]->Write("k" + std::to_string(i % 3), static_cast<double>(i),
                                   [&done](bool ok) { done += ok ? 1 : 0; });
      });
    }
    rig.s.RunFor(sim::Duration::Seconds(3));
    EXPECT_EQ(done, 6);
    EXPECT_TRUE(rig.Converged());
    stores[p++] = rig.replicas[0]->store();
  }
  EXPECT_EQ(stores[0], stores[1]);
  EXPECT_EQ(stores[0], stores[2]);
}

// --- CATOCS store -----------------------------------------------------------------

struct CatocsRig {
  sim::Simulator s;
  std::unique_ptr<catocs::GroupFabric> fabric;
  std::vector<std::unique_ptr<CatocsReplica>> replicas;
  std::unique_ptr<CatocsPrimary> primary;

  CatocsRig(size_t n, int write_safety, uint64_t seed = 1) : s(seed) {
    catocs::FabricConfig cfg;
    cfg.num_members = static_cast<uint32_t>(n);
    fabric = std::make_unique<catocs::GroupFabric>(&s, cfg);
    for (size_t i = 0; i < n; ++i) {
      replicas.push_back(
          std::make_unique<CatocsReplica>(&s, &fabric->transport(i), &fabric->member(i)));
    }
    primary = std::make_unique<CatocsPrimary>(&s, &fabric->transport(0), &fabric->member(0),
                                              write_safety);
    fabric->StartAll();
  }
};

TEST(CatocsStoreTest, UpdatePropagatesToAllReplicas) {
  CatocsRig rig(3, /*write_safety=*/1);
  bool acked = false;
  rig.s.ScheduleAfter(sim::Duration::Millis(1), [&] {
    rig.primary->Write("x", 5.0, [&] { acked = true; });
  });
  rig.s.RunFor(sim::Duration::Seconds(2));
  EXPECT_TRUE(acked);
  for (auto& replica : rig.replicas) {
    EXPECT_EQ(replica->Read("x"), 5.0);
  }
}

TEST(CatocsStoreTest, WriteSafetyZeroAcksImmediately) {
  CatocsRig rig(3, /*write_safety=*/0);
  bool acked = false;
  rig.s.ScheduleAfter(sim::Duration::Millis(1), [&] {
    rig.primary->Write("x", 5.0, [&] { acked = true; });
    EXPECT_TRUE(acked) << "level 0 completes synchronously at the send";
  });
  rig.s.RunFor(sim::Duration::Millis(2));
}

TEST(CatocsStoreTest, HigherSafetyLevelWaitsLonger) {
  sim::Duration t1;
  {
    CatocsRig rig(4, 1, 7);
    rig.s.ScheduleAfter(sim::Duration::Millis(1), [&] {
      rig.primary->Write("x", 1.0, [&] { t1 = rig.s.now() - sim::TimePoint::Zero(); });
    });
    rig.s.RunFor(sim::Duration::Seconds(2));
  }
  sim::Duration t3;
  {
    CatocsRig rig(4, 3, 7);
    rig.s.ScheduleAfter(sim::Duration::Millis(1), [&] {
      rig.primary->Write("x", 1.0, [&] { t3 = rig.s.now() - sim::TimePoint::Zero(); });
    });
    rig.s.RunFor(sim::Duration::Seconds(2));
  }
  EXPECT_GT(t3, t1) << "waiting for 3 acks takes longer than for 1";
}

TEST(CatocsStoreTest, PrimaryCrashWithSafetyZeroLosesUpdate) {
  // The §2/§4.4 durability hole: ws=0 acknowledges the client, then the
  // primary dies before any replica received the update.
  CatocsRig rig(3, /*write_safety=*/0);
  bool acked = false;
  rig.s.ScheduleAfter(sim::Duration::Millis(5), [&] {
    rig.fabric->network().SetNodeUp(1, false);  // isolate the primary first
    rig.primary->Write("doomed", 9.0, [&] { acked = true; });
    rig.fabric->CrashMember(0);
  });
  rig.s.RunFor(sim::Duration::Seconds(2));
  EXPECT_TRUE(acked) << "the client was told the write succeeded";
  EXPECT_FALSE(rig.replicas[1]->Read("doomed").has_value()) << "but the data is gone";
  EXPECT_FALSE(rig.replicas[2]->Read("doomed").has_value());
}

TEST(CatocsStoreTest, CausalOrderKeepsReplicasConvergent) {
  CatocsRig rig(3, 1);
  int done = 0;
  for (int i = 1; i <= 20; ++i) {
    rig.s.ScheduleAfter(sim::Duration::Millis(5 * i), [&rig, &done, i] {
      rig.primary->Write("k" + std::to_string(i % 4), static_cast<double>(i),
                         [&done] { ++done; });
    });
  }
  rig.s.RunFor(sim::Duration::Seconds(3));
  EXPECT_EQ(done, 20);
  EXPECT_TRUE(DivergentKeys(rig.replicas[0]->store(), rig.replicas[1]->store()).empty());
  EXPECT_TRUE(DivergentKeys(rig.replicas[0]->store(), rig.replicas[2]->store()).empty());
}

TEST(CatocsStoreTest, WalReplayRebuildsStoreAfterCrash) {
  CatocsRig rig(3, 1);
  WriteAheadLog wal(&rig.s);
  rig.replicas[1]->AttachWal(&wal);
  int done = 0;
  for (int i = 1; i <= 12; ++i) {
    rig.s.ScheduleAfter(sim::Duration::Millis(5 * i), [&rig, &done, i] {
      rig.primary->Write("k" + std::to_string(i), 0.5 * i, [&done] { ++done; });
    });
  }
  rig.s.RunFor(sim::Duration::Seconds(2));
  ASSERT_EQ(done, 12);
  const auto before = rig.replicas[1]->store();
  ASSERT_EQ(before.size(), 12u);
  // Restart after a quiescent crash: every appended record is durable, so
  // replay reproduces the pre-crash store exactly.
  const uint64_t replayed = rig.replicas[1]->RecoverFromWal(wal, rig.s.now());
  EXPECT_EQ(replayed, 12u);
  EXPECT_EQ(rig.replicas[1]->store(), before);
}

TEST(CatocsStoreTest, WalReplayStopsAtCrashInstant) {
  CatocsRig rig(3, 1);
  WriteAheadLog wal(&rig.s);
  rig.replicas[1]->AttachWal(&wal);
  for (int i = 1; i <= 12; ++i) {
    rig.s.ScheduleAfter(sim::Duration::Millis(5 * i), [&rig, i] {
      rig.primary->Write("k" + std::to_string(i), 0.5 * i, nullptr);
    });
  }
  rig.s.RunFor(sim::Duration::Seconds(2));
  const auto final_store = rig.replicas[1]->store();
  ASSERT_EQ(final_store.size(), 12u);
  // A crash mid-run only keeps the records whose flush completed by then; the
  // tail is lost but everything recovered matches what was applied.
  const sim::TimePoint crash = sim::TimePoint::Zero() + sim::Duration::Millis(31);
  const uint64_t replayed = rig.replicas[1]->RecoverFromWal(wal, crash);
  EXPECT_GE(replayed, 1u);
  EXPECT_LT(replayed, 12u) << "flushes past the crash instant must not replay";
  for (const auto& [key, value] : rig.replicas[1]->store()) {
    auto it = final_store.find(key);
    ASSERT_NE(it, final_store.end());
    EXPECT_EQ(it->second, value);
  }
}

TEST(DivergentKeysTest, ReportsDifferencesAndMissing) {
  std::map<std::string, double> a{{"x", 1.0}, {"y", 2.0}, {"z", 3.0}};
  std::map<std::string, double> b{{"x", 1.0}, {"y", 9.0}, {"w", 4.0}};
  auto diff = DivergentKeys(a, b);
  EXPECT_EQ(diff, (std::vector<std::string>{"w", "y", "z"}));
}

}  // namespace
}  // namespace txn
