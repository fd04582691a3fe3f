// Tests for the chaos harness: schedule generation determinism, injector
// timing and burst reverts, the crash/recover/rejoin cycle on a live rig,
// and — crucially — that the InvariantOracle *detects* violations when fed
// hand-built bad traces. A clean fuzzer run means nothing if the oracle
// cannot fire.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/fault/chaos_rig.h"
#include "src/fault/fault_plan.h"
#include "src/fault/injector.h"
#include "src/fault/oracle.h"
#include "src/sim/simulator.h"

namespace fault {
namespace {

// --- schedule generation -----------------------------------------------------

TEST(FaultPlanTest, SameSeedSamePlan) {
  FaultScheduleGenerator gen(GeneratorConfig{});
  sim::Rng a(42);
  sim::Rng b(42);
  const FaultPlan plan_a = gen.Generate(a);
  const FaultPlan plan_b = gen.Generate(b);
  EXPECT_EQ(plan_a.Describe(), plan_b.Describe());
}

TEST(FaultPlanTest, SeedsProduceDifferentPlans) {
  FaultScheduleGenerator gen(GeneratorConfig{});
  std::set<std::string> distinct;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Rng rng(seed);
    distinct.insert(gen.Generate(rng).Describe());
  }
  EXPECT_GT(distinct.size(), 1u) << "eight seeds, one plan: the generator ignores its RNG";
}

TEST(FaultPlanTest, PlansAreWellFormed) {
  GeneratorConfig cfg;
  FaultScheduleGenerator gen(cfg);
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    sim::Rng rng(seed);
    const FaultPlan plan = gen.Generate(rng);
    sim::TimePoint prev = sim::TimePoint::Zero();
    int crash_depth = 0;
    for (const FaultEvent& event : plan.events) {
      EXPECT_GE(event.at, prev) << "seed " << seed << ": events must be time-sorted";
      prev = event.at;
      EXPECT_LT(event.at, sim::TimePoint::Zero() + plan.horizon) << "seed " << seed;
      switch (event.kind) {
        case FaultKind::kCrash:
          EXPECT_NE(event.slot, 0u) << "seed " << seed << ": slot 0 is the anchor";
          ++crash_depth;
          EXPECT_LE(crash_depth, 1) << "seed " << seed << ": crash windows must not overlap";
          break;
        case FaultKind::kRecover:
          --crash_depth;
          break;
        case FaultKind::kPartition: {
          ASSERT_EQ(event.components.size(), 2u) << "seed " << seed;
          EXPECT_FALSE(event.components[0].empty()) << "seed " << seed;
          EXPECT_FALSE(event.components[1].empty()) << "seed " << seed;
          break;
        }
        case FaultKind::kHeal:
          break;
        case FaultKind::kDropBurst:
        case FaultKind::kDuplicateBurst:
          EXPECT_GT(event.value, 0.0) << "seed " << seed;
          EXPECT_LE(event.value, kMaxBurstProbability) << "seed " << seed;
          break;
        case FaultKind::kLatencySpike:
          EXPECT_GE(event.value, 2.0) << "seed " << seed;
          EXPECT_LE(event.value, kMaxLatencyScale) << "seed " << seed;
          break;
        case FaultKind::kSlowReceiver:
        case FaultKind::kOverloadBurst:
          // Overload adversity is off by default (see GeneratorConfig); the
          // default-config plans this test sweeps never contain these.
          ADD_FAILURE() << "seed " << seed << ": overload event in a default plan";
          break;
        case FaultKind::kLongPartition:
          ADD_FAILURE() << "seed " << seed << ": long partition in a default plan";
          break;
      }
    }
    EXPECT_EQ(crash_depth, 0) << "seed " << seed << ": every crash needs its recover";
  }
}

// --- injector ----------------------------------------------------------------

TEST(FaultInjectorTest, BurstRaisesAndRevertsDropProbability) {
  sim::Simulator s(1);
  ChaosRig rig(&s, ChaosRigConfig{});
  FaultInjector injector(&s, &rig);
  FaultPlan plan;
  plan.horizon = sim::Duration::Seconds(1);
  FaultEvent burst;
  burst.at = sim::TimePoint::Zero() + sim::Duration::Millis(100);
  burst.kind = FaultKind::kDropBurst;
  burst.value = 0.5;
  burst.duration = sim::Duration::Millis(50);
  plan.events.push_back(burst);
  injector.Install(plan);

  double during = -1.0;
  double after = -1.0;
  s.ScheduleAfter(sim::Duration::Millis(120), [&] { during = rig.network().drop_probability(); });
  s.ScheduleAfter(sim::Duration::Millis(200), [&] { after = rig.network().drop_probability(); });
  s.RunFor(sim::Duration::Millis(300));
  EXPECT_EQ(injector.events_applied(), 1u);
  EXPECT_DOUBLE_EQ(during, 0.5);
  EXPECT_DOUBLE_EQ(after, 0.0) << "the revert must restore the pre-burst baseline";
}

TEST(FaultInjectorTest, LatencySpikeReverts) {
  sim::Simulator s(2);
  ChaosRig rig(&s, ChaosRigConfig{});
  FaultInjector injector(&s, &rig);
  FaultPlan plan;
  FaultEvent spike;
  spike.at = sim::TimePoint::Zero() + sim::Duration::Millis(10);
  spike.kind = FaultKind::kLatencySpike;
  spike.value = 4.0;
  spike.duration = sim::Duration::Millis(30);
  plan.events.push_back(spike);
  injector.Install(plan);
  double during = -1.0;
  s.ScheduleAfter(sim::Duration::Millis(20), [&] { during = rig.network().latency_scale(); });
  s.RunFor(sim::Duration::Millis(100));
  EXPECT_DOUBLE_EQ(during, 4.0);
  EXPECT_DOUBLE_EQ(rig.network().latency_scale(), 1.0);
}

TEST(FaultInjectorTest, PartitionResolvesSlotsAndSkipsDegenerate) {
  sim::Simulator s(3);
  ChaosRig rig(&s, ChaosRigConfig{});
  FaultInjector injector(&s, &rig);
  FaultPlan plan;
  FaultEvent part;
  part.at = sim::TimePoint::Zero() + sim::Duration::Millis(10);
  part.kind = FaultKind::kPartition;
  part.components = {{0, 1}, {2, 3}};
  plan.events.push_back(part);
  FaultEvent heal;
  heal.at = sim::TimePoint::Zero() + sim::Duration::Millis(40);
  heal.kind = FaultKind::kHeal;
  plan.events.push_back(heal);
  injector.Install(plan);
  bool split = false;
  s.ScheduleAfter(sim::Duration::Millis(20), [&] {
    // Founding ids are slot+1: slots {0,1}|{2,3} => nodes {1,2}|{3,4}.
    split = !rig.network().Reachable(1, 3) && rig.network().Reachable(1, 2) &&
            rig.network().Reachable(3, 4);
  });
  s.RunFor(sim::Duration::Millis(100));
  EXPECT_TRUE(split);
  EXPECT_TRUE(rig.network().Reachable(1, 3)) << "healed";
}

// --- the crash/recover/rejoin cycle on a live rig ----------------------------

TEST(ChaosRigTest, ScriptedCrashRecoverCycleRejoinsWithState) {
  sim::Simulator s(7);
  ChaosRigConfig cfg;
  cfg.group.heartbeat_interval = sim::Duration::Millis(20);
  cfg.group.failure_timeout = sim::Duration::Millis(100);
  ChaosRig rig(&s, cfg);
  FaultInjector injector(&s, &rig);
  FaultPlan plan;
  FaultEvent crash;
  crash.at = sim::TimePoint::Zero() + sim::Duration::Millis(400);
  crash.kind = FaultKind::kCrash;
  crash.slot = 2;
  plan.events.push_back(crash);
  FaultEvent recover = crash;
  recover.at = sim::TimePoint::Zero() + sim::Duration::Millis(900);
  recover.kind = FaultKind::kRecover;
  plan.events.push_back(recover);
  injector.Install(plan);

  rig.Start();
  s.ScheduleAfter(sim::Duration::Seconds(3), [&] { rig.StopWorkload(); });
  s.RunFor(sim::Duration::Seconds(5));

  ASSERT_EQ(rig.recoveries().size(), 1u);
  const auto& stat = rig.recoveries()[0];
  EXPECT_TRUE(stat.rejoined) << "the fresh incarnation never installed a view with itself";
  EXPECT_EQ(stat.slot, 2u);
  EXPECT_EQ(stat.old_id, 3u);
  EXPECT_EQ(stat.new_id, 5u) << "first fresh id after founding ids 1..4";
  EXPECT_GT(stat.rejoined_at, stat.recover_started);

  InvariantOracle oracle;
  const OracleReport report = oracle.Audit(rig);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.deliveries_audited, 0u);
  // State agreement is part of the audit, but assert it directly too.
  const auto stores = rig.LiveStores();
  ASSERT_EQ(stores.size(), 4u);
  for (const auto& [member, store] : stores) {
    EXPECT_EQ(store, stores.begin()->second) << "member " << member;
  }
}

// Primary-partition rule: a member isolated past the failure timeout gets
// evicted by the majority, suspects everyone itself — and then wedges in its
// own flush (1 of 4 is no quorum) instead of installing a rival solo view.
// Before the rule, this exact scenario was a split brain: the fuzzer's wider
// seed range caught the evicted-but-live member seceding and diverging.
TEST(ChaosRigTest, IsolatedMinorityWedgesInsteadOfSeceding) {
  sim::Simulator s(11);
  ChaosRigConfig cfg;
  cfg.group.heartbeat_interval = sim::Duration::Millis(20);
  cfg.group.failure_timeout = sim::Duration::Millis(100);
  ChaosRig rig(&s, cfg);
  FaultInjector injector(&s, &rig);
  FaultPlan plan;
  FaultEvent part;
  part.at = sim::TimePoint::Zero() + sim::Duration::Millis(500);
  part.kind = FaultKind::kPartition;
  part.components = {{0, 1, 2}, {3}};
  plan.events.push_back(part);
  FaultEvent heal;
  heal.at = sim::TimePoint::Zero() + sim::Duration::Millis(900);
  heal.kind = FaultKind::kHeal;
  plan.events.push_back(heal);
  injector.Install(plan);

  rig.Start();
  s.ScheduleAfter(sim::Duration::Seconds(2), [&] { rig.StopWorkload(); });
  s.RunFor(sim::Duration::Seconds(4));

  // The majority evicted member 4; the minority installed nothing.
  ASSERT_FALSE(rig.views().empty());
  std::vector<catocs::MemberId> majority{1, 2, 3};
  for (const auto& record : rig.views()) {
    EXPECT_EQ(record.view.members, majority);
    EXPECT_NE(record.at, 4u) << "the isolated member must not install any view";
  }
  EXPECT_GE(rig.MemberOfSlot(3).stats().flushes_blocked_no_quorum, 1u)
      << "the isolated member should have tried to flush and been refused quorum";
  // The full audit passes: member 4 is alive but outside the final view, so
  // completeness and state agreement are judged among {1,2,3} only.
  const OracleReport report = InvariantOracle().Audit(rig);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(ChaosRigTest, SameSeedSameTraceHash) {
  auto run = [](uint64_t seed) {
    sim::Simulator s(seed);
    ChaosRigConfig cfg;
    cfg.group.heartbeat_interval = sim::Duration::Millis(20);
    cfg.group.failure_timeout = sim::Duration::Millis(100);
    ChaosRig rig(&s, cfg);
    FaultInjector injector(&s, &rig);
    GeneratorConfig gen_cfg;
    gen_cfg.horizon = sim::Duration::Seconds(2);
    gen_cfg.failure_timeout = cfg.group.failure_timeout;
    sim::Rng plan_rng(seed ^ 0x9e3779b97f4a7c15ull);
    const FaultPlan plan = FaultScheduleGenerator(gen_cfg).Generate(plan_rng);
    injector.Install(plan);
    rig.Start();
    s.ScheduleAfter(sim::Duration::Seconds(2), [&] { rig.StopWorkload(); });
    s.RunFor(sim::Duration::Seconds(4));
    return rig.TraceHash();
  };
  EXPECT_EQ(run(11), run(11)) << "replaying a seed must be bit-identical";
  EXPECT_NE(run(11), run(12)) << "different seeds should not collide on this workload";
}

// --- oracle negative detection ----------------------------------------------

catocs::Delivery MakeDelivery(catocs::MemberId sender, uint64_t seq, catocs::OrderingMode mode,
                              uint64_t total_seq, int64_t at_ms,
                              catocs::VectorClock vt = catocs::VectorClock()) {
  catocs::Delivery d;
  d.data = std::make_shared<catocs::GroupData>(
      /*group=*/1, catocs::MessageId{sender, seq}, mode, std::move(vt), nullptr,
      sim::TimePoint::Zero() + sim::Duration::Millis(at_ms - 1));
  d.total_seq = total_seq;
  d.delivered_at = sim::TimePoint::Zero() + sim::Duration::Millis(at_ms);
  return d;
}

bool AnyViolationContains(const OracleReport& report, const std::string& needle) {
  for (const auto& violation : report.violations) {
    if (violation.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(OracleTest, CleanTraceIsClean) {
  TraceObservations trace;
  trace.always_live = {1, 2};
  for (catocs::MemberId at : {1u, 2u}) {
    trace.deliveries.push_back(
        {at, 0, MakeDelivery(1, 1, catocs::OrderingMode::kCausal, 0, 10 + at)});
  }
  trace.live_stores = {{1, {{7, 7}}}, {2, {{7, 7}}}};
  const OracleReport report = InvariantOracle().Audit(trace);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(OracleTest, DetectsDuplicateDelivery) {
  TraceObservations trace;
  trace.always_live = {1};
  trace.deliveries.push_back(
      {1, 0, MakeDelivery(1, 1, catocs::OrderingMode::kCausal, 0, 10)});
  trace.deliveries.push_back(
      {1, 0, MakeDelivery(1, 1, catocs::OrderingMode::kCausal, 0, 20)});
  const OracleReport report = InvariantOracle().Audit(trace);
  EXPECT_TRUE(AnyViolationContains(report, "duplicate-delivery")) << report.Summary();
}

TEST(OracleTest, DetectsLostDelivery) {
  TraceObservations trace;
  trace.always_live = {1, 2};
  trace.deliveries.push_back(
      {1, 0, MakeDelivery(1, 1, catocs::OrderingMode::kCausal, 0, 10)});
  // Member 2 never delivers (1,1).
  const OracleReport report = InvariantOracle().Audit(trace);
  EXPECT_TRUE(AnyViolationContains(report, "lost-delivery")) << report.Summary();
}

TEST(OracleTest, DetectsTotalOrderDisagreement) {
  TraceObservations trace;
  trace.always_live = {1, 2};
  // Same total_seq, different messages at the two observers.
  trace.deliveries.push_back(
      {1, 0, MakeDelivery(1, 1, catocs::OrderingMode::kTotal, 1, 10)});
  trace.deliveries.push_back(
      {1, 0, MakeDelivery(2, 1, catocs::OrderingMode::kTotal, 2, 20)});
  trace.deliveries.push_back(
      {2, 1, MakeDelivery(2, 1, catocs::OrderingMode::kTotal, 1, 10)});
  trace.deliveries.push_back(
      {2, 1, MakeDelivery(1, 1, catocs::OrderingMode::kTotal, 2, 20)});
  const OracleReport report = InvariantOracle().Audit(trace);
  EXPECT_TRUE(AnyViolationContains(report, "total-order")) << report.Summary();
}

TEST(OracleTest, DetectsCausalViolation) {
  catocs::VectorClock first;
  first.Increment(1);  // {1:1}
  catocs::VectorClock second = first;
  second.Increment(2);  // {1:1, 2:1} — causally after `first`
  TraceObservations trace;
  trace.always_live = {1, 2};
  for (catocs::MemberId at : {1u, 2u}) {
    if (at == 2) {
      // Member 2 delivers the successor before its cause.
      trace.deliveries.push_back(
          {at, 0, MakeDelivery(2, 1, catocs::OrderingMode::kCausal, 0, 10, second)});
      trace.deliveries.push_back(
          {at, 0, MakeDelivery(1, 1, catocs::OrderingMode::kCausal, 0, 20, first)});
    } else {
      trace.deliveries.push_back(
          {at, 0, MakeDelivery(1, 1, catocs::OrderingMode::kCausal, 0, 10, first)});
      trace.deliveries.push_back(
          {at, 0, MakeDelivery(2, 1, catocs::OrderingMode::kCausal, 0, 20, second)});
    }
  }
  const OracleReport report = InvariantOracle().Audit(trace);
  EXPECT_TRUE(AnyViolationContains(report, "causal-order")) << report.Summary();
}

TEST(OracleTest, DetectsViewDisagreement) {
  TraceObservations trace;
  trace.views.push_back({1, sim::TimePoint::Zero(), catocs::View{2, {1, 2, 3}}});
  trace.views.push_back({2, sim::TimePoint::Zero(), catocs::View{2, {1, 2}}});
  const OracleReport report = InvariantOracle().Audit(trace);
  EXPECT_TRUE(AnyViolationContains(report, "view-synchrony")) << report.Summary();
}

TEST(OracleTest, DetectsStateDivergence) {
  TraceObservations trace;
  trace.live_stores = {{1, {{7, 7}}}, {2, {{7, 8}}}};
  const OracleReport report = InvariantOracle().Audit(trace);
  EXPECT_TRUE(AnyViolationContains(report, "state-divergence")) << report.Summary();
}

TEST(OracleTest, DetectsWedgedRejoin) {
  TraceObservations trace;
  ChaosRig::RecoveryStat stat;
  stat.slot = 1;
  stat.old_id = 2;
  stat.new_id = 5;
  stat.rejoined = false;
  trace.recoveries.push_back(stat);
  const OracleReport report = InvariantOracle().Audit(trace);
  EXPECT_TRUE(AnyViolationContains(report, "wedged-rejoin")) << report.Summary();
}

TEST(OracleTest, DetectsBudgetExceededAndPressureRegression) {
  auto sample = [](uint64_t epoch, catocs::MemoryPressure level, size_t used_bytes) {
    ChaosRig::BudgetSample s;
    s.at = 1;
    s.when = sim::TimePoint::Zero() + sim::Duration::Millis(epoch * 10 + used_bytes / 100);
    s.epoch = epoch;
    s.level = level;
    s.used_bytes = used_bytes;
    s.max_bytes = 1000;
    return s;
  };

  // Occupancy above the configured cap is a violation on its own.
  {
    TraceObservations trace;
    trace.budget_samples.push_back(sample(0, catocs::MemoryPressure::kCritical, 1500));
    const OracleReport report = InvariantOracle().Audit(trace);
    EXPECT_TRUE(AnyViolationContains(report, "budget-exceeded")) << report.Summary();
  }
  // Within one epoch the pressure level must be monotone non-decreasing:
  // de-escalation without a new epoch breaks the hysteresis contract.
  {
    TraceObservations trace;
    trace.budget_samples.push_back(sample(0, catocs::MemoryPressure::kCritical, 950));
    trace.budget_samples.push_back(sample(0, catocs::MemoryPressure::kHigh, 750));
    const OracleReport report = InvariantOracle().Audit(trace);
    EXPECT_TRUE(AnyViolationContains(report, "pressure-regression")) << report.Summary();
  }
  // The epoch counter itself may never run backwards at a member.
  {
    TraceObservations trace;
    trace.budget_samples.push_back(sample(2, catocs::MemoryPressure::kNone, 100));
    trace.budget_samples.push_back(sample(1, catocs::MemoryPressure::kNone, 100));
    const OracleReport report = InvariantOracle().Audit(trace);
    EXPECT_TRUE(AnyViolationContains(report, "pressure-epoch-regression")) << report.Summary();
  }
  // The documented legal shape — escalate within an epoch, de-escalate only
  // by opening a new one — is clean.
  {
    TraceObservations trace;
    trace.budget_samples.push_back(sample(0, catocs::MemoryPressure::kNone, 100));
    trace.budget_samples.push_back(sample(0, catocs::MemoryPressure::kHigh, 750));
    trace.budget_samples.push_back(sample(0, catocs::MemoryPressure::kCritical, 950));
    trace.budget_samples.push_back(sample(1, catocs::MemoryPressure::kNone, 100));
    const OracleReport report = InvariantOracle().Audit(trace);
    EXPECT_TRUE(report.ok()) << report.Summary();
  }
}

TEST(OracleTest, DetectsStabilityRegression) {
  catocs::VectorClock high;
  high.Increment(1);
  high.Increment(1);  // {1:2}
  catocs::VectorClock low;
  low.Increment(1);  // {1:1}
  TraceObservations trace;
  trace.stability_samples.push_back({1, 3, high});
  trace.stability_samples.push_back({1, 3, low});  // same view, floor fell
  const OracleReport report = InvariantOracle().Audit(trace);
  EXPECT_TRUE(AnyViolationContains(report, "stability-regression")) << report.Summary();
}

}  // namespace
}  // namespace fault
