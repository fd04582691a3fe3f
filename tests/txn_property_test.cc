// Randomized property tests for the transaction substrate: lock-manager
// invariants under arbitrary acquire/release interleavings and the
// replicated store's safety under hostile networks.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/txn/lock_manager.h"
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
