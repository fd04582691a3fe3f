// Unit tests for the discrete-event simulation kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/metrics.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace sim {
namespace {

TEST(TimeTest, DurationArithmetic) {
  EXPECT_EQ(Duration::Millis(3).nanos(), 3'000'000);
  EXPECT_EQ(Duration::Seconds(2) + Duration::Millis(500), Duration::Millis(2500));
  EXPECT_EQ(Duration::Millis(10) - Duration::Millis(4), Duration::Millis(6));
  EXPECT_EQ(Duration::Millis(10) * 3, Duration::Millis(30));
  EXPECT_EQ(Duration::Millis(10) / 2, Duration::Millis(5));
  EXPECT_LT(Duration::Micros(999), Duration::Millis(1));
  EXPECT_DOUBLE_EQ(Duration::Millis(1500).seconds(), 1.5);
}

TEST(TimeTest, TimePointArithmetic) {
  TimePoint t = TimePoint::Zero() + Duration::Seconds(1);
  EXPECT_EQ(t.nanos(), 1'000'000'000);
  EXPECT_EQ(t - TimePoint::Zero(), Duration::Seconds(1));
  EXPECT_EQ((t + Duration::Millis(1)) - t, Duration::Millis(1));
}

TEST(TimeTest, Formatting) {
  EXPECT_EQ(Duration::Seconds(3).ToString(), "3s");
  EXPECT_EQ(Duration::Millis(42).ToString(), "42ms");
  EXPECT_EQ(Duration::Micros(7).ToString(), "7us");
  EXPECT_EQ(Duration::Nanos(5).ToString(), "5ns");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(10), 10u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BoolProbabilityExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, BoolProbabilityApprox) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0;
  double sum_sq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, ForkIndependence) {
  Rng parent(23);
  Rng child = parent.Fork();
  // Child stream differs from parent's subsequent stream.
  EXPECT_NE(child.NextU64(), parent.NextU64());
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(TimePoint(30), [&] { fired.push_back(3); });
  q.Schedule(TimePoint(10), [&] { fired.push_back(1); });
  q.Schedule(TimePoint(20), [&] { fired.push_back(2); });
  while (!q.Empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimeFifoBySchedulingOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(TimePoint(5), [&fired, i] { fired.push_back(i); });
  }
  while (!q.Empty()) {
    q.PopNext().fn();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fired[i], i);
  }
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventId id = q.Schedule(TimePoint(1), [&] { ran = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, DoubleCancelReturnsFalse) {
  EventQueue q;
  EventId id = q.Schedule(TimePoint(1), [] {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueueTest, CancelInvalidId) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(EventId{}));
  EXPECT_FALSE(q.Cancel(EventId{999}));
}

TEST(EventQueueTest, CompactionBoundsHeapUnderCancelChurn) {
  EventQueue q;
  // Retransmit-timer pattern: nearly every scheduled event is cancelled
  // before it fires. The physical heap must stay bounded by the live count,
  // not by the total ever scheduled.
  std::vector<EventId> pending;
  for (int i = 0; i < 100000; ++i) {
    pending.push_back(q.Schedule(TimePoint(i + 1), [] {}));
    if (i % 100 != 0) {
      q.Cancel(pending.back());
    }
  }
  EXPECT_EQ(q.size(), 1000u);
  EXPECT_LT(q.heap_size(), 10000u);
  // Surviving events still fire in time order despite the sweeps.
  TimePoint last = TimePoint::Zero();
  while (!q.Empty()) {
    auto fired = q.PopNext();
    EXPECT_GT(fired.when, last);
    last = fired.when;
  }
}

TEST(EventQueueTest, CancelOfFiredEventIsNoOp) {
  EventQueue q;
  EventId id = q.Schedule(TimePoint(1), [] {});
  q.Schedule(TimePoint(2), [] {});
  (void)q.PopNext();  // fires `id`
  // Cancelling the fired event must not eat the remaining live entry.
  EXPECT_FALSE(q.Cancel(id));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.Empty());
  EXPECT_EQ(q.PopNext().when, TimePoint(2));
}

TEST(SimulatorTest, SelfCancellingTimeoutDoesNotLoseLaterEvents) {
  // Regression: a timeout that fires and then cancels its own handle (the
  // 2PC coordinator's decide path) used to corrupt the live-event count,
  // making the queue report empty while events remained — and a later run
  // would then pop an event scheduled before the artificially advanced
  // clock.
  Simulator s;
  EventId timeout{};
  int fired = 0;
  timeout = s.ScheduleAfter(Duration::Millis(1), [&] { s.Cancel(timeout); });
  s.ScheduleAfter(Duration::Millis(5), [&] { ++fired; });
  s.RunFor(Duration::Millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.pending_events(), 0u);
  // A second run must start from a consistent clock/queue.
  s.ScheduleAfter(Duration::Millis(1), [&] { ++fired; });
  s.RunFor(Duration::Millis(10));
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, CancelAllLeavesEmptyQueue) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.Schedule(TimePoint(i + 1), [] {}));
  }
  for (EventId id : ids) {
    EXPECT_TRUE(q.Cancel(id));
  }
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.size(), 0u);
}

// Model check: the queue against a reference std::set of (when, seq) over a
// long seeded mix of Schedule, Cancel (of live, fired and cancelled ids
// alike) and PopNext. Timestamps advance in coarse steps, so long runs of
// events share one instant and only the seq tiebreak orders them; the
// churn phases push the dead keys past the live ones, so compaction runs
// several times mid-sequence.
TEST(EventQueueTest, MatchesReferenceOrderUnderRandomOps) {
  EventQueue q;
  Rng rng(0xE7E47);
  std::set<std::pair<TimePoint, uint64_t>> ref;  // (when, schedule index)
  std::vector<EventId> ids;
  std::vector<TimePoint> when_of;
  std::vector<uint64_t> maybe_pending;  // cancel candidates, pruned lazily
  uint64_t fired_index = 0;
  TimePoint now = TimePoint::Zero();
  size_t compactions = 0;
  for (int op = 0; op < 150000; ++op) {
    // Alternate fill phases (mostly schedules) with churn phases (mostly
    // cancels), so the dead keys periodically outnumber the live ones.
    const bool fill = (op / 5000) % 2 == 0;
    const uint64_t roll = rng.NextBelow(100);
    if (roll < (fill ? 60u : 25u) || ref.empty()) {
      // Half the schedules land on the current instant; a fifth are
      // far-future timeouts, which stay buried as dead keys once cancelled.
      const uint64_t kind = rng.NextBelow(10);
      const int64_t delta =
          kind < 5 ? 0 : kind < 8 ? rng.NextInRange(1, 4) : rng.NextInRange(1000, 5000);
      const TimePoint when(now.nanos() + delta);
      const uint64_t index = ids.size();
      ids.push_back(q.Schedule(when, [&fired_index, index] { fired_index = index; }));
      when_of.push_back(when);
      maybe_pending.push_back(index);
      ref.emplace(when, index);
    } else if (roll < (fill ? 80u : 90u)) {
      // Mostly an id that may still be pending, sometimes any id ever issued
      // (usually fired or cancelled already, possibly with its slot reused).
      uint64_t index = rng.NextBelow(ids.size());
      if (!maybe_pending.empty() && rng.NextBool(0.8)) {
        const size_t pos = rng.NextBelow(maybe_pending.size());
        index = maybe_pending[pos];
        maybe_pending[pos] = maybe_pending.back();
        maybe_pending.pop_back();
      }
      const bool pending = ref.erase({when_of[index], index}) == 1;
      const size_t heap_before = q.heap_size();
      ASSERT_EQ(q.Cancel(ids[index]), pending) << "op " << op;
      if (q.heap_size() < heap_before) {
        ++compactions;
      }
    } else {
      const auto expected = *ref.begin();
      ref.erase(ref.begin());
      ASSERT_EQ(q.NextTime(), expected.first) << "op " << op;
      auto fired = q.PopNext();
      ASSERT_EQ(fired.when, expected.first);
      fired.fn();
      ASSERT_EQ(fired_index, expected.second) << "op " << op;
      now = fired.when;
    }
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.Empty(), ref.empty());
  }
  EXPECT_GE(compactions, 5u) << "the mix must exercise the sweep repeatedly";
  // Drain: the survivors come out in exact (when, seq) order.
  for (const auto& [when, index] : ref) {
    auto fired = q.PopNext();
    fired.fn();
    ASSERT_EQ(fired.when, when);
    ASSERT_EQ(fired_index, index);
  }
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, StaleIdOfReusedSlotCancelsNothing) {
  EventQueue q;
  int fired = 0;
  // Freed by Cancel.
  const EventId cancelled = q.Schedule(TimePoint(1), [] {});
  ASSERT_TRUE(q.Cancel(cancelled));
  const EventId reuser = q.Schedule(TimePoint(2), [&] { ++fired; });
  ASSERT_EQ(reuser.slot, cancelled.slot) << "the freed slot is reused first";
  EXPECT_FALSE(q.Cancel(cancelled));
  // Freed by PopNext.
  (void)q.Schedule(TimePoint(1), [] {});
  const EventId popped = q.Schedule(TimePoint(0), [] {});
  q.PopNext().fn();
  const EventId reuser2 = q.Schedule(TimePoint(3), [&] { ++fired; });
  ASSERT_EQ(reuser2.slot, popped.slot);
  EXPECT_FALSE(q.Cancel(popped));
  // The new occupants are untouched and still fire.
  EXPECT_EQ(q.size(), 3u);
  while (!q.Empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, ClosureCancellingItselfIsNoOp) {
  EventQueue q;
  EventId self{};
  EventId scheduled_inside{};
  bool self_cancel_result = true;
  int later = 0;
  self = q.Schedule(TimePoint(1), [&] {
    // Schedule first, so the new event may take the slot this one vacated.
    scheduled_inside = q.Schedule(TimePoint(2), [&] { ++later; });
    self_cancel_result = q.Cancel(self);
  });
  q.Schedule(TimePoint(3), [&] { ++later; });
  q.PopNext().fn();
  EXPECT_FALSE(self_cancel_result);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(scheduled_inside.slot, self.slot);
  while (!q.Empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(later, 2);
}

TEST(EventQueueTest, CompactionPreservesPopOrder) {
  EventQueue q;
  std::vector<EventId> ids;
  std::vector<int> expected;
  std::vector<int> fired;
  // Ten instants, 100 events each, scheduled in interleaved time order.
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.Schedule(TimePoint(10 - i % 10), [&fired, i] { fired.push_back(i); }));
  }
  // Cancel all but every seventh event; the sweep must fire along the way.
  bool compacted = false;
  for (int i = 0; i < 1000; ++i) {
    if (i % 7 != 0) {
      const size_t before = q.heap_size();
      ASSERT_TRUE(q.Cancel(ids[i]));
      compacted = compacted || q.heap_size() < before;
    }
  }
  ASSERT_TRUE(compacted);
  for (int t = 1; t <= 10; ++t) {
    for (int i = 0; i < 1000; i += 7) {
      if (10 - i % 10 == t) {
        expected.push_back(i);
      }
    }
  }
  while (!q.Empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(fired, expected);
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator s;
  TimePoint seen = TimePoint::Zero();
  s.ScheduleAfter(Duration::Millis(5), [&] { seen = s.now(); });
  s.Run();
  EXPECT_EQ(seen, TimePoint::Zero() + Duration::Millis(5));
  EXPECT_EQ(s.events_executed(), 1u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.ScheduleAfter(Duration::Millis(i), [&] { ++count; });
  }
  s.RunUntil(TimePoint::Zero() + Duration::Millis(5));
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.now(), TimePoint::Zero() + Duration::Millis(5));
  s.Run();
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, RunForAdvancesClockEvenWhenIdle) {
  Simulator s;
  s.RunFor(Duration::Seconds(3));
  EXPECT_EQ(s.now(), TimePoint::Zero() + Duration::Seconds(3));
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator s;
  std::vector<int64_t> times;
  s.ScheduleAfter(Duration::Millis(1), [&] {
    times.push_back(s.now().nanos());
    s.ScheduleAfter(Duration::Millis(1), [&] { times.push_back(s.now().nanos()); });
  });
  s.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[1] - times[0], Duration::Millis(1).nanos());
}

TEST(SimulatorTest, RequestStopEndsRun) {
  Simulator s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.ScheduleAfter(Duration::Millis(i), [&] {
      if (++count == 3) {
        s.RequestStop();
      }
    });
  }
  s.Run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.pending_events(), 7u);
}

TEST(SimulatorTest, EventLimitGuards) {
  Simulator s;
  s.set_event_limit(100);
  // Self-perpetuating event chain.
  std::function<void()> loop = [&] { s.ScheduleAfter(Duration::Millis(1), loop); };
  s.ScheduleAfter(Duration::Millis(1), loop);
  s.Run();
  EXPECT_EQ(s.events_executed(), 100u);
}

TEST(PeriodicTimerTest, FiresRepeatedly) {
  Simulator s;
  int fires = 0;
  PeriodicTimer timer(&s, Duration::Millis(10), [&] { ++fires; });
  timer.Start(Duration::Millis(10));
  s.RunUntil(TimePoint::Zero() + Duration::Millis(55));
  EXPECT_EQ(fires, 5);
  timer.Stop();
  s.Run();
  EXPECT_EQ(fires, 5);
}

TEST(PeriodicTimerTest, StopFromCallback) {
  Simulator s;
  int fires = 0;
  PeriodicTimer timer(&s, Duration::Millis(10), [&] {
    if (++fires == 3) {
      timer.Stop();
    }
  });
  timer.Start(Duration::Zero());
  s.Run();
  EXPECT_EQ(fires, 3);
}

TEST(MetricsTest, CounterAccumulates) {
  MetricsRegistry registry;
  registry.GetCounter("x").Add(3);
  registry.GetCounter("x").Add(4);
  EXPECT_EQ(registry.GetCounter("x").value(), 7);
  EXPECT_NE(registry.FindCounter("x"), nullptr);
  EXPECT_EQ(registry.FindCounter("y"), nullptr);
}

TEST(MetricsTest, GaugeTracksPeak) {
  Gauge g;
  g.Set(5);
  g.Add(10);
  g.Add(-12);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.peak(), 15);
}

TEST(MetricsTest, HistogramStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Record(i);
  }
  EXPECT_EQ(h.count(), 100);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.min(), 1);
  EXPECT_DOUBLE_EQ(h.max(), 100);
  EXPECT_NEAR(h.Quantile(0.5), 50.5, 1.0);
  EXPECT_NEAR(h.Quantile(0.99), 99.0, 1.1);
  EXPECT_NEAR(h.stddev(), 29.0, 0.5);
}

TEST(MetricsTest, HistogramEmpty) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

}  // namespace
}  // namespace sim
