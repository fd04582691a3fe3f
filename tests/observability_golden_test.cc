// Observability goldens: the per-message record a fixed-seed run leaves in
// its three sinks — the Perfetto export of the span recorder with the
// provenance flow arrows, every member's PipelineStats summary, and the
// provenance recorder's totals and per-layer tallies — hashed and pinned.
// Run-vs-run checks (check.sh's `--trace` diff) accept any deterministic
// change in that record; these constants do not. A changed constant means
// what the recorders observe changed, not just how layers report to them.
//
// Also here: instrumentation must not perturb the protocol. A run with
// observability on and the same run with it off must end with identical
// protocol counters and an identical delivery transcript.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/catocs/causal_buffer.h"
#include "src/catocs/group.h"
#include "src/catocs/pipeline_stats.h"
#include "src/obs/provenance.h"

namespace catocs {
namespace {

uint64_t Fnv1a(uint64_t hash, const std::string& s) {
  for (unsigned char c : s) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

struct Scenario {
  CausalBufferKind buffer = CausalBufferKind::kFullVector;
  bool total_mix = true;  // every third send is a sequencer-total one
  bool observe = true;
  bool delta = false;
  uint64_t seed = 0;
};

struct Outcome {
  uint64_t hash = 0;
  std::array<uint64_t, kNumHoldReasons> entered{};  // summed over members
  std::array<uint64_t, 6> span_events{};            // by sim::SpanEvent
  std::vector<GroupStats> stats;                    // per member
  std::vector<std::string> transcript;              // every delivery, in order
};

// 8 members with membership on and batching 4. Bursts of 1–4 sends from
// rotating members over the first 400 ms; member 6 crashes at 150 ms with a
// partial batch parked, and the view change that follows blocks later sends
// behind its flush; every fifth burst declares semantic dependencies on
// earlier sends.
Outcome RunScenario(const Scenario& sc) {
  sim::Simulator s(sc.seed);
  s.spans().set_enabled(sc.observe);
  s.spans().set_capacity(1 << 20);
  obs::ProvenanceRecorder recorder;
  recorder.set_enabled(sc.observe);

  FabricConfig cfg;
  cfg.num_members = 8;
  cfg.group.enable_membership = true;
  cfg.group.batching = 4;
  cfg.group.delta_timestamps = sc.delta;
  cfg.group.causal_buffer = sc.buffer;
  cfg.group.observability = sc.observe;
  cfg.group.provenance = sc.observe ? &recorder : nullptr;
  GroupFabric fabric(&s, cfg);
  fabric.RecordDeliveries();
  fabric.StartAll();

  std::vector<MessageId> sent;
  for (int k = 0; k < 120; ++k) {
    const auto when = sim::Duration::Millis(static_cast<int64_t>(1 + s.rng().NextBelow(400)));
    s.ScheduleAfter(when, [&fabric, &sent, &sc, k] {
      GroupMember& member = fabric.member(static_cast<size_t>(k % 8));
      for (int b = 0; b <= k % 4; ++b) {
        if (k % 5 == 0 && sent.size() > 3) {
          member.DeclareDependency(sent[sent.size() - 3]);
        }
        const OrderingMode mode =
            sc.total_mix && (k + b) % 3 == 0 ? OrderingMode::kTotal : OrderingMode::kCausal;
        const MessageId id = member.Send(
            mode, std::make_shared<net::BlobPayload>("m" + std::to_string(k), 32));
        if (id.seq != 0) {
          sent.push_back(id);
        }
      }
    });
  }
  s.ScheduleAfter(sim::Duration::Millis(150), [&fabric] {
    // Crash with a partial batch still parked at the sender.
    for (int b = 0; b < 2; ++b) {
      fabric.member(6).Send(OrderingMode::kCausal, std::make_shared<net::BlobPayload>("x", 32));
    }
    fabric.CrashMember(6);
  });
  s.RunFor(sim::Duration::Seconds(3));

  Outcome out;
  uint64_t hash = 14695981039346656037ull;
  hash = Fnv1a(hash, s.ExportTraceEvents(recorder.FlowEdges()));
  for (size_t i = 0; i < fabric.size(); ++i) {
    const PipelineStats& stats = fabric.member(i).pipeline_stats();
    hash = Fnv1a(hash, stats.Summary());
    for (size_t r = 0; r < kNumHoldReasons; ++r) {
      out.entered[r] += stats.by_reason[r].entered;
    }
    out.stats.push_back(fabric.member(i).stats());
  }
  const obs::ProvenanceRecorder::Totals& t = recorder.totals();
  std::ostringstream prov;
  prov << t.deliveries << ' ' << t.potential_edges << ' ' << t.matched_edges << ' '
       << t.spurious_edges << ' ' << t.semantic_edges << ' ' << t.hidden_edges << ' '
       << t.hidden_checked << ' ' << t.hidden_missed << ' ' << t.gating_holds << ' '
       << t.false_holds << ' ' << t.gating_hold_total.nanos() << ' '
       << t.false_hold_total.nanos() << '\n';
  for (const auto& [layer, tally] : recorder.layers()) {
    prov << layer << ' ' << tally.holds << ' ' << tally.false_holds << ' '
         << tally.necessary_holds << ' ' << tally.hold_total.nanos() << ' '
         << tally.false_hold_total.nanos() << '\n';
  }
  out.hash = Fnv1a(hash, prov.str());

  for (const sim::SpanRecord& record : s.spans().records()) {
    ++out.span_events[static_cast<size_t>(record.event)];
  }
  for (const auto& record : fabric.records()) {
    out.transcript.push_back(std::to_string(record.at) + ":" + record.delivery.id().ToString() +
                             "@" + std::to_string(record.delivery.delivered_at.nanos()));
  }
  return out;
}

void ExpectEveryReasonAndEvent(const Outcome& out) {
  for (size_t r = 0; r < kNumHoldReasons; ++r) {
    EXPECT_GT(out.entered[r], 0u) << ToString(static_cast<HoldReason>(r));
  }
  for (size_t e = 0; e < out.span_events.size(); ++e) {
    EXPECT_GT(out.span_events[e], 0u) << sim::ToString(static_cast<sim::SpanEvent>(e));
  }
}

TEST(ObservabilityGoldenTest, FullVectorRecordMatchesGolden) {
  const Outcome out = RunScenario(Scenario{CausalBufferKind::kFullVector, true, true, false, 5});
  ExpectEveryReasonAndEvent(out);
  EXPECT_EQ(out.hash, 358930160775212615ull);
}

TEST(ObservabilityGoldenTest, HybridRecordMatchesGolden) {
  const Outcome out = RunScenario(Scenario{CausalBufferKind::kHybrid, true, true, false, 5});
  ExpectEveryReasonAndEvent(out);
  EXPECT_EQ(out.hash, 8753350034311421127ull);
}

TEST(ObservabilityGoldenTest, OverlayCausalRecordMatchesGolden) {
  // Causal-only: the overlay path carries no total order, so only the
  // causal, FIFO, stability and flush wait points can occur.
  const Outcome out = RunScenario(Scenario{CausalBufferKind::kOverlay, false, true, false, 5});
  for (HoldReason r : {HoldReason::kCausalGap, HoldReason::kFifoGap, HoldReason::kStability}) {
    EXPECT_GT(out.entered[static_cast<size_t>(r)], 0u) << ToString(r);
  }
  EXPECT_GT(out.span_events[static_cast<size_t>(sim::SpanEvent::kStable)], 0u);
  EXPECT_EQ(out.hash, 772337423856150118ull);
}

TEST(ObservabilityGoldenTest, InstrumentationLeavesProtocolCountersUnchanged) {
  // Delta timestamps make the causal gate count its fast-path checks; an
  // instrumented run must not add checks of its own. Both retention buffers
  // are covered: E5/E16/E17 read full-vector and hybrid occupancy from runs
  // with observability on.
  for (CausalBufferKind buffer : {CausalBufferKind::kFullVector, CausalBufferKind::kHybrid}) {
    SCOPED_TRACE(ToString(buffer));
    Scenario sc{buffer, true, true, /*delta=*/true, 11};
    const Outcome observed = RunScenario(sc);
    sc.observe = false;
    const Outcome plain = RunScenario(sc);
    ASSERT_EQ(observed.stats.size(), plain.stats.size());
    for (size_t i = 0; i < plain.stats.size(); ++i) {
      EXPECT_GT(plain.stats[i].delta_fast_path_hits, 0u) << "member " << i;
      EXPECT_EQ(observed.stats[i].delta_fast_path_hits, plain.stats[i].delta_fast_path_hits)
          << "member " << i;
      EXPECT_TRUE(observed.stats[i] == plain.stats[i]) << "member " << i;
    }
    EXPECT_EQ(observed.transcript, plain.transcript);
    EXPECT_FALSE(plain.transcript.empty());
  }
}

}  // namespace
}  // namespace catocs
