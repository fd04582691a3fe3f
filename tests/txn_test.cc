// Tests for the transaction substrate: 2PL lock manager, wait-for graph,
// WAL, and the distributed wait-for-multicast deadlock detector.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/net/network.h"
#include "src/sim/simulator.h"
#include "src/txn/deadlock_detector.h"
#include "src/txn/lock_manager.h"
#include "src/txn/wait_for_graph.h"
#include "src/txn/wal.h"

namespace txn {
namespace {

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, "x", LockMode::kShared, nullptr));
  EXPECT_TRUE(lm.Acquire(2, "x", LockMode::kShared, nullptr));
  EXPECT_TRUE(lm.Holds(1, "x", LockMode::kShared));
  EXPECT_TRUE(lm.Holds(2, "x", LockMode::kShared));
}

TEST(LockManagerTest, ExclusiveExcludes) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, "x", LockMode::kExclusive, nullptr));
  bool granted = false;
  EXPECT_FALSE(lm.Acquire(2, "x", LockMode::kExclusive, [&] { granted = true; }));
  EXPECT_FALSE(granted);
  lm.ReleaseAll(1);
  EXPECT_TRUE(granted);
  EXPECT_TRUE(lm.Holds(2, "x", LockMode::kExclusive));
}

TEST(LockManagerTest, SharedBlocksExclusive) {
  LockManager lm;
  lm.Acquire(1, "x", LockMode::kShared, nullptr);
  bool granted = false;
  EXPECT_FALSE(lm.Acquire(2, "x", LockMode::kExclusive, [&] { granted = true; }));
  lm.ReleaseAll(1);
  EXPECT_TRUE(granted);
}

TEST(LockManagerTest, UpgradeWhenSoleHolder) {
  LockManager lm;
  lm.Acquire(1, "x", LockMode::kShared, nullptr);
  EXPECT_TRUE(lm.Acquire(1, "x", LockMode::kExclusive, nullptr));
  EXPECT_TRUE(lm.Holds(1, "x", LockMode::kExclusive));
  EXPECT_EQ(lm.stats().upgrades, 1u);
}

TEST(LockManagerTest, UpgradeWaitsForOtherSharers) {
  LockManager lm;
  lm.Acquire(1, "x", LockMode::kShared, nullptr);
  lm.Acquire(2, "x", LockMode::kShared, nullptr);
  bool upgraded = false;
  EXPECT_FALSE(lm.Acquire(1, "x", LockMode::kExclusive, [&] { upgraded = true; }));
  lm.ReleaseAll(2);
  EXPECT_TRUE(upgraded);
}

TEST(LockManagerTest, FifoNoStarvationOfExclusive) {
  LockManager lm;
  lm.Acquire(1, "x", LockMode::kShared, nullptr);
  bool x_granted = false;
  lm.Acquire(2, "x", LockMode::kExclusive, [&] { x_granted = true; });
  // A later shared request must not jump the queued exclusive.
  bool s_granted_immediately = lm.Acquire(3, "x", LockMode::kShared, nullptr);
  EXPECT_FALSE(s_granted_immediately);
  lm.ReleaseAll(1);
  EXPECT_TRUE(x_granted);
}

TEST(LockManagerTest, WaitForEdgesReflectQueue) {
  LockManager lm;
  lm.Acquire(1, "x", LockMode::kExclusive, nullptr);
  lm.Acquire(2, "x", LockMode::kExclusive, nullptr);
  auto edges = lm.WaitForEdges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0], (std::pair<TxnId, TxnId>{2, 1}));
}

TEST(LockManagerTest, ReleaseAllCleansUp) {
  LockManager lm;
  lm.Acquire(1, "x", LockMode::kExclusive, nullptr);
  lm.Acquire(1, "y", LockMode::kShared, nullptr);
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.locked_resources(), 0u);
}

TEST(LockManagerTest, ReacquireHeldIsIdempotent) {
  LockManager lm;
  lm.Acquire(1, "x", LockMode::kExclusive, nullptr);
  EXPECT_TRUE(lm.Acquire(1, "x", LockMode::kShared, nullptr));
  EXPECT_TRUE(lm.Acquire(1, "x", LockMode::kExclusive, nullptr));
}

// --- wait-for graph ------------------------------------------------------------

TEST(WaitForGraphTest, NoCycleInDag) {
  WaitForGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(1, 3);
  EXPECT_FALSE(g.FindCycle().has_value());
}

TEST(WaitForGraphTest, DetectsTwoCycle) {
  WaitForGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 1);
  auto cycle = g.FindCycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->size(), 2u);
}

TEST(WaitForGraphTest, DetectsLongCycle) {
  WaitForGraph g;
  for (uint64_t i = 1; i < 6; ++i) {
    g.AddEdge(i, i + 1);
  }
  g.AddEdge(6, 1);
  auto cycle = g.FindCycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->size(), 6u);
}

TEST(WaitForGraphTest, RemoveNodeBreaksCycle) {
  WaitForGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 1);
  ASSERT_TRUE(g.FindCycle().has_value());
  g.RemoveNode(2);
  EXPECT_FALSE(g.FindCycle().has_value());
}

TEST(WaitForGraphTest, ReplaceOutEdges) {
  WaitForGraph g;
  g.AddEdge(1, 2);
  g.ReplaceOutEdges(1, {3, 4});
  EXPECT_FALSE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(1, 3));
  EXPECT_TRUE(g.HasEdge(1, 4));
}

TEST(WaitForGraphTest, SelfEdgeIgnored) {
  WaitForGraph g;
  g.AddEdge(1, 1);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_FALSE(g.FindCycle().has_value());
}

// Property test: a graph built as a random DAG never reports a cycle; adding
// a back edge along a path always creates one.
TEST(WaitForGraphPropertyTest, RandomDagsAcyclic) {
  sim::Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    WaitForGraph g;
    const uint64_t n = 4 + rng.NextBelow(10);
    // Edges only from lower to higher ids: a DAG by construction.
    for (uint64_t a = 1; a <= n; ++a) {
      for (uint64_t b = a + 1; b <= n; ++b) {
        if (rng.NextBool(0.3)) {
          g.AddEdge(a, b);
        }
      }
    }
    EXPECT_FALSE(g.FindCycle().has_value());
    // Close a cycle along some existing edge, if any.
    if (g.edge_count() > 0 && g.HasEdge(1, 2)) {
      g.AddEdge(2, 1);
      EXPECT_TRUE(g.FindCycle().has_value());
    }
  }
}

// --- WAL ---------------------------------------------------------------------------

TEST(WalTest, DurabilityAfterFlushDelay) {
  sim::Simulator s(1);
  WriteAheadLog wal(&s);
  bool durable = false;
  wal.Append("r1", [&] { durable = true; });
  s.RunFor(WriteAheadLog::kFlushDelay - sim::Duration::Micros(1));
  EXPECT_FALSE(durable);
  s.RunFor(sim::Duration::Micros(2));
  EXPECT_TRUE(durable);
}

TEST(WalTest, DurableRecordsAtCrashPoint) {
  sim::Simulator s(2);
  WriteAheadLog wal(&s);
  wal.Append("early", nullptr);
  s.RunFor(sim::Duration::Millis(10));
  wal.Append("late", nullptr);
  // Crash "now": the late record's flush has not completed.
  auto durable = wal.DurableRecordsAt(s.now());
  ASSERT_EQ(durable.size(), 1u);
  EXPECT_EQ(durable[0].payload, "early");
}

// --- distributed deadlock detection -------------------------------------------------

TEST(DeadlockDetectorTest, DetectsCrossProcessCycle) {
  sim::Simulator s(3);
  net::Network network(&s, std::make_unique<net::UniformLatency>(sim::Duration::Millis(1),
                                                                 sim::Duration::Millis(5)));
  net::Transport ta(&s, &network, 1);
  net::Transport tb(&s, &network, 2);
  net::Transport tm(&s, &network, 9);

  // Process A's instance 15 waits for B's 37; B's 37 waits for A's 15.
  std::vector<WaitEdge> a_edges{{1015, 2037}};
  std::vector<WaitEdge> b_edges{{2037, 1015}};
  WaitForReporter ra(&s, &ta, {9}, sim::Duration::Millis(20), [&] { return a_edges; });
  WaitForReporter rb(&s, &tb, {9}, sim::Duration::Millis(20), [&] { return b_edges; });
  DeadlockMonitor monitor(&s, &tm);
  std::vector<uint64_t> detected;
  monitor.SetDeadlockHandler([&](const std::vector<uint64_t>& cycle) { detected = cycle; });
  ra.Start();
  rb.Start();
  s.RunFor(sim::Duration::Millis(100));
  ra.Stop();
  rb.Stop();
  ASSERT_FALSE(detected.empty());
  EXPECT_EQ(detected.size(), 2u);
  EXPECT_GT(monitor.detections(), 0u);
}

TEST(DeadlockDetectorTest, NoFalseDeadlockAfterEdgeClears) {
  sim::Simulator s(4);
  net::Network network(&s, std::make_unique<net::UniformLatency>(sim::Duration::Millis(1),
                                                                 sim::Duration::Millis(2)));
  net::Transport ta(&s, &network, 1);
  net::Transport tm(&s, &network, 9);
  std::vector<WaitEdge> edges{{101, 202}};
  WaitForReporter reporter(&s, &ta, {9}, sim::Duration::Millis(10), [&] { return edges; });
  DeadlockMonitor monitor(&s, &tm);
  reporter.Start();
  s.RunFor(sim::Duration::Millis(50));
  edges.clear();  // the wait resolved
  s.RunFor(sim::Duration::Millis(50));
  EXPECT_EQ(monitor.detections(), 0u);
  EXPECT_EQ(monitor.graph().edge_count(), 0u);
}

TEST(DeadlockDetectorTest, StaleOutOfOrderReportsIgnored) {
  sim::Simulator s(5);
  // Heavy jitter: unreliable reports may arrive out of order; sequence
  // numbers must keep the monitor's view at the freshest report.
  net::Network network(&s, std::make_unique<net::UniformLatency>(sim::Duration::Millis(1),
                                                                 sim::Duration::Millis(40)));
  net::Transport ta(&s, &network, 1);
  net::Transport tm(&s, &network, 9);
  std::vector<WaitEdge> edges{{101, 202}};
  WaitForReporter reporter(&s, &ta, {9}, sim::Duration::Millis(10), [&] { return edges; });
  DeadlockMonitor monitor(&s, &tm);
  reporter.Start();
  s.RunFor(sim::Duration::Millis(100));
  edges.clear();
  reporter.ReportNow();  // freshest state: no waits
  reporter.Stop();
  s.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(monitor.graph().edge_count(), 0u)
      << "a late stale report must not resurrect cleared edges";
}

// Integration: drive the lock manager into a real deadlock, feed its
// WaitForEdges through reporters, and confirm detection end to end (§4.2's
// 2PL claim: order of receipt cannot matter).
TEST(DeadlockDetectorTest, LockManagerCycleDetectedEndToEnd) {
  sim::Simulator s(6);
  net::Network network(&s, std::make_unique<net::UniformLatency>(sim::Duration::Millis(1),
                                                                 sim::Duration::Millis(5)));
  net::Transport ta(&s, &network, 1);
  net::Transport tm(&s, &network, 9);
  LockManager lm;
  // T1 holds x, T2 holds y; then each requests the other's resource.
  lm.Acquire(1, "x", LockMode::kExclusive, nullptr);
  lm.Acquire(2, "y", LockMode::kExclusive, nullptr);
  lm.Acquire(1, "y", LockMode::kExclusive, nullptr);
  lm.Acquire(2, "x", LockMode::kExclusive, nullptr);
  WaitForReporter reporter(&s, &ta, {9}, sim::Duration::Millis(10),
                           [&] { return lm.WaitForEdges(); });
  DeadlockMonitor monitor(&s, &tm);
  bool found = false;
  monitor.SetDeadlockHandler([&](const std::vector<uint64_t>&) { found = true; });
  reporter.Start();
  s.RunFor(sim::Duration::Millis(100));
  reporter.Stop();
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace txn
