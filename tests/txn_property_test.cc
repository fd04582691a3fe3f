// Randomized property tests for the transaction substrate: lock-manager
// invariants under arbitrary acquire/release interleavings, OCC
// serializability (results must equal *some* serial execution), and the
// replicated store's safety under hostile networks.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/txn/lock_manager.h"
#include "src/txn/occ.h"
#include "src/txn/replicated_store.h"

namespace txn {
namespace {

// Invariant: at no point do incompatible lock holders coexist, and releasing
// everything always drains every queue.
TEST(LockManagerPropertyTest, RandomScheduleNeverViolatesCompatibility) {
  sim::Rng rng(424242);
  for (int trial = 0; trial < 200; ++trial) {
    LockManager lm;
    constexpr int kTxns = 6;
    constexpr int kResources = 3;
    std::set<TxnId> live;
    // Shadow state rebuilt from Holds() to validate compatibility.
    auto check = [&] {
      for (int r = 0; r < kResources; ++r) {
        const std::string name = "r" + std::to_string(r);
        int exclusive = 0;
        int shared = 0;
        for (TxnId t = 1; t <= kTxns; ++t) {
          if (lm.Holds(t, name, LockMode::kExclusive)) {
            ++exclusive;
          } else if (lm.Holds(t, name, LockMode::kShared)) {
            ++shared;
          }
        }
        EXPECT_LE(exclusive, 1) << name;
        if (exclusive == 1) {
          EXPECT_EQ(shared, 0) << name << ": shared+exclusive coexist";
        }
      }
    };
    for (int step = 0; step < 60; ++step) {
      const TxnId txn = 1 + rng.NextBelow(kTxns);
      if (rng.NextBool(0.3) && live.count(txn)) {
        lm.ReleaseAll(txn);
        live.erase(txn);
      } else {
        const std::string name = "r" + std::to_string(rng.NextBelow(kResources));
        const LockMode mode = rng.NextBool(0.5) ? LockMode::kShared : LockMode::kExclusive;
        lm.Acquire(txn, name, mode, nullptr);
        live.insert(txn);
      }
      check();
    }
    for (TxnId t = 1; t <= kTxns; ++t) {
      lm.ReleaseAll(t);
    }
    EXPECT_EQ(lm.locked_resources(), 0u);
  }
}

// Serializability oracle: run random transactions through OCC, then replay
// the *committed* ones serially in commit order against a reference store.
// Final states must match exactly.
TEST(OccPropertyTest, CommittedHistoryEqualsSerialReplay) {
  sim::Rng rng(515151);
  for (int trial = 0; trial < 200; ++trial) {
    OccManager occ;
    constexpr int kKeys = 4;
    struct Op {
      bool is_write;
      std::string key;
      double value;
    };
    struct TxnScript {
      std::vector<Op> ops;
      TxnId id = 0;
      bool committed = false;
      uint64_t commit_position = 0;
    };
    // Interleave 5 transactions' operations randomly.
    std::vector<TxnScript> scripts(5);
    for (size_t t = 0; t < scripts.size(); ++t) {
      const int op_count = 2 + static_cast<int>(rng.NextBelow(4));
      for (int o = 0; o < op_count; ++o) {
        Op op;
        op.is_write = rng.NextBool(0.5);
        op.key = "k" + std::to_string(rng.NextBelow(kKeys));
        op.value = static_cast<double>(trial * 1000 + t * 100 + o);
        scripts[t].ops.push_back(op);
      }
      scripts[t].id = occ.Begin();
    }
    // Random interleaving: pick a txn with remaining ops, run its next op;
    // when a txn finishes its ops, try to commit.
    std::vector<size_t> cursor(scripts.size(), 0);
    uint64_t commit_counter = 0;
    bool work_left = true;
    while (work_left) {
      work_left = false;
      // random order sweep
      std::vector<size_t> idx(scripts.size());
      for (size_t i = 0; i < idx.size(); ++i) {
        idx[i] = i;
      }
      rng.Shuffle(idx);
      for (size_t i : idx) {
        TxnScript& script = scripts[i];
        if (cursor[i] > script.ops.size()) {
          continue;  // finished (committed or aborted)
        }
        work_left = true;
        if (cursor[i] == script.ops.size()) {
          script.committed = occ.Commit(script.id);
          script.commit_position = ++commit_counter;
          cursor[i] = script.ops.size() + 1;
          continue;
        }
        const Op& op = script.ops[cursor[i]++];
        if (op.is_write) {
          occ.Write(script.id, op.key, op.value);
        } else {
          occ.Read(script.id, op.key);
        }
        break;  // one op per sweep round: a genuine interleaving
      }
    }
    // Serial replay of committed transactions in commit order.
    std::vector<const TxnScript*> committed;
    for (const auto& script : scripts) {
      if (script.committed) {
        committed.push_back(&script);
      }
    }
    std::sort(committed.begin(), committed.end(),
              [](const TxnScript* a, const TxnScript* b) {
                return a->commit_position < b->commit_position;
              });
    std::map<std::string, double> reference;
    for (const TxnScript* script : committed) {
      for (const Op& op : script->ops) {
        if (op.is_write) {
          reference[op.key] = op.value;
        }
      }
    }
    for (int k = 0; k < kKeys; ++k) {
      const std::string key = "k" + std::to_string(k);
      const auto occ_value = occ.CommittedValue(key);
      auto ref = reference.find(key);
      if (ref == reference.end()) {
        EXPECT_FALSE(occ_value.has_value()) << key;
      } else {
        ASSERT_TRUE(occ_value.has_value()) << key;
        EXPECT_EQ(*occ_value, ref->second) << key;
      }
    }
  }
}

// The transactional store under loss and duplication: every acknowledged
// commit must be present and identical at all (available) replicas.
class TxnStoreHostileTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TxnStoreHostileTest, AckedWritesPresentEverywhere) {
  sim::Simulator s(GetParam());
  net::NetworkConfig net_config;
  net_config.drop_probability = 0.10;
  net_config.duplicate_probability = 0.10;
  net::Network network(&s,
                       std::make_unique<net::UniformLatency>(sim::Duration::Millis(1),
                                                             sim::Duration::Millis(5)),
                       net_config);
  std::vector<std::unique_ptr<net::Transport>> transports;
  std::vector<std::unique_ptr<TxnReplica>> replicas;
  std::vector<net::NodeId> ids{1, 2, 3};
  net::TransportConfig tcfg;
  tcfg.max_retries = 500;
  for (net::NodeId id : ids) {
    transports.push_back(std::make_unique<net::Transport>(&s, &network, id, tcfg));
    replicas.push_back(std::make_unique<TxnReplica>(&s, transports.back().get()));
  }
  TxnCoordinator coordinator(&s, transports[0].get(), ids,
                             CoordinatorConfig{sim::Duration::Millis(500)});

  std::map<std::string, double> acked;
  int done = 0;
  std::function<void(int)> issue = [&](int k) {
    if (k >= 30) {
      return;
    }
    const std::string key = "k" + std::to_string(k % 7);
    const double value = 1000.0 + k;
    coordinator.Write(key, value, [&, key, value, k](bool ok) {
      if (ok) {
        acked[key] = value;
      }
      ++done;
      issue(k + 1);
    });
  };
  s.ScheduleAfter(sim::Duration::Millis(1), [&] { issue(0); });
  s.RunFor(sim::Duration::Seconds(120));
  EXPECT_EQ(done, 30);
  for (const auto& [key, value] : acked) {
    for (size_t r = 0; r < replicas.size(); ++r) {
      ASSERT_TRUE(replicas[r]->Read(key).has_value()) << key << " at replica " << r;
      EXPECT_EQ(*replicas[r]->Read(key), value) << key << " at replica " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TxnStoreHostileTest, ::testing::Values(10, 20, 30, 40));

}  // namespace
}  // namespace txn
