// E5 — §5: CATOCS message buffering for atomic delivery grows roughly
// linearly per node and quadratically system-wide with the number of
// processes. All-to-all causal traffic at a fixed per-process rate over a
// clustered (LAN/WAN) topology; buffer occupancy is sampled in steady state
// and the growth exponent of the system total is fitted.
//
// The same runs also produce two more tables:
//   E16  retention-buffer strategies: the paper-faithful full-vector tracker
//        (throttled matrix-walk pruning) versus the hybrid buffer
//        (incremental per-sender stability floors fed by explicit acks plus
//        causal-timestamp evidence, releasing messages the moment they become
//        stable instead of at the next prune tick). The hybrid buffer's zero
//        release lag should show up as strictly lower steady-state occupancy
//        once groups are large enough for the prune throttle to matter.
//   E17  per-layer hold-time attribution: where messages wait (the causal
//        delay queue, the FIFO app gate, the retention buffer) and for how
//        long, per strategy.
// One run per (N, strategy) cell serves all three: the strategy is local
// bookkeeping, so both strategies see identical traffic, and observability
// is record-only, so it schedules no simulator events and E5's full-vector
// numbers come out the same with it on.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/catocs/causal_buffer.h"
#include "src/catocs/group.h"
#include "src/catocs/pipeline_stats.h"

namespace {

using catocs::CausalBufferKind;

constexpr uint32_t kGroupSizes[] = {4, 8, 16, 32, 48, 64};
constexpr int64_t kDefaultGossipMs = 50;

struct Sample {
  double per_node_mean = 0;
  double per_node_peak = 0;
  double total_mean = 0;
  double total_bytes_mean = 0;
  uint64_t ack_msgs = 0;
  catocs::PipelineStats pipeline;
  std::string metrics_json;
};

Sample RunOne(uint32_t members, CausalBufferKind kind, int64_t gossip_ms = kDefaultGossipMs) {
  sim::Simulator s(1000 + members);
  catocs::FabricConfig cfg;
  cfg.num_members = members;
  cfg.group.ack_gossip_interval = sim::Duration::Millis(gossip_ms);
  cfg.group.causal_buffer = kind;
  cfg.group.observability = true;
  catocs::GroupFabric fabric(
      &s, cfg,
      benchutil::LanWanLatency(8, sim::Duration::Millis(1), sim::Duration::Millis(5),
                               sim::Duration::Millis(10), sim::Duration::Millis(30)));
  fabric.StartAll();

  // Fixed per-process rate: one causal multicast every 25ms.
  benchutil::StaggeredSenders senders(
      &s, members, sim::Duration::Millis(25),
      [](uint32_t m) { return sim::Duration::Micros(500 + 400 * m); },
      [&fabric](uint32_t m) {
        fabric.member(m).CausalSend(std::make_shared<net::BlobPayload>("t", 256));
      });

  // Steady-state sampling (skip warmup).
  benchutil::BufferOccupancySampler sampler(&s, &fabric, sim::Duration::Millis(10));
  s.RunFor(sim::Duration::Seconds(1));
  sampler.Start();
  s.RunFor(sim::Duration::Seconds(6));
  sampler.Stop();
  senders.StopAll();

  Sample out;
  out.per_node_mean = sampler.per_node().mean();
  out.total_mean = sampler.total().mean();
  out.total_bytes_mean = sampler.total_bytes().mean();
  for (size_t i = 0; i < fabric.size(); ++i) {
    out.per_node_peak =
        std::max(out.per_node_peak, static_cast<double>(fabric.member(i).peak_buffered_messages()));
    out.ack_msgs += fabric.member(i).stats().ack_msgs_sent;
    out.pipeline.Merge(fabric.member(i).pipeline_stats());
    fabric.member(i).pipeline_stats().ExportTo(s.metrics(), std::to_string(i));
  }
  out.metrics_json = s.metrics().ReportJson();
  return out;
}

void PrintE5(const std::map<uint32_t, Sample>& full) {
  benchutil::Header(
      "E5 — buffering vs group size (§5)",
      "per-node buffered messages grow ~linearly in N, system total ~quadratically "
      "(fixed per-process send rate, atomic delivery retention)");
  benchutil::Row("%-8s %-18s %-16s %-16s %s", "N", "per_node_mean_msgs", "per_node_peak",
                 "total_mean_msgs", "total_mean_KB");
  std::vector<double> ns;
  std::vector<double> totals;
  std::vector<double> per_node_means;
  for (const auto& [members, sample] : full) {
    ns.push_back(members);
    totals.push_back(sample.total_mean);
    per_node_means.push_back(sample.per_node_mean);
    benchutil::Row("%-8u %-18.1f %-16.0f %-16.1f %.1f", members, sample.per_node_mean,
                   sample.per_node_peak, sample.total_mean, sample.total_bytes_mean / 1024.0);
  }
  benchutil::Row("");
  benchutil::Row("fitted growth exponent, system-total buffered messages ~ N^%.2f  (paper: ~2)",
                 benchutil::FitGrowthExponent(ns, totals));
  benchutil::Row("fitted growth exponent, per-node buffered messages   ~ N^%.2f  (paper: ~1)",
                 benchutil::FitGrowthExponent(ns, per_node_means));

  // Ablation (DESIGN.md §4): the stability-gossip interval trades buffer
  // occupancy against control traffic. More frequent acks shrink buffers but
  // add messages — and neither end of the knob changes the N^2 system-level
  // growth, which is the paper's point. The default interval's row is the
  // N=16 cell of the sweep above.
  benchutil::Row("");
  benchutil::Row("ablation: ack gossip interval at N=16 (buffering vs control traffic)");
  benchutil::Row("%-14s %-20s %-16s %s", "gossip_ms", "per_node_mean_msgs", "total_mean_msgs",
                 "ack_msgs_sent");
  for (int64_t gossip_ms : {10, 25, 50, 100, 200}) {
    const Sample sample = gossip_ms == kDefaultGossipMs
                              ? full.at(16)
                              : RunOne(16, CausalBufferKind::kFullVector, gossip_ms);
    benchutil::Row("%-14lld %-20.1f %-16.1f %llu", static_cast<long long>(gossip_ms),
                   sample.per_node_mean, sample.total_mean,
                   static_cast<unsigned long long>(sample.ack_msgs));
  }
}

void PrintE16(const std::map<uint32_t, Sample>& full, const std::map<uint32_t, Sample>& hybrid) {
  benchutil::Header(
      "E16 — retention-buffer strategies on the E5 workload",
      "full-vector (throttled prune) vs hybrid (incremental floors + implicit acks): "
      "same traffic, per-node steady-state occupancy compared");
  benchutil::Row("%-8s %-16s %-14s %-16s %-14s %s", "N", "full_mean_msgs", "full_peak",
                 "hybrid_mean_msgs", "hybrid_peak", "hybrid/full");
  for (const auto& [members, f] : full) {
    const Sample& h = hybrid.at(members);
    const double ratio = f.per_node_mean > 0 ? h.per_node_mean / f.per_node_mean : 0;
    benchutil::Row("%-8u %-16.1f %-14.0f %-16.1f %-14.0f %.2f", members, f.per_node_mean,
                   f.per_node_peak, h.per_node_mean, h.per_node_peak, ratio);
  }
  benchutil::Row("");
  benchutil::Row("hybrid < full expected at larger N: the full-vector tracker holds stable");
  benchutil::Row("messages until the next prune tick (up to 25ms); the hybrid buffer releases");
  benchutil::Row("them the moment its per-sender floor advances.");
}

void PrintE17Row(const char* strategy, uint32_t members, const Sample& sample) {
  using catocs::HoldReason;
  const auto& causal = sample.pipeline.reason(HoldReason::kCausalGap);
  const auto& fifo = sample.pipeline.reason(HoldReason::kFifoGap);
  const auto& stab = sample.pipeline.reason(HoldReason::kStability);
  const double total_ms = static_cast<double>(sample.pipeline.TotalHold().nanos()) / 1e6;
  const double stab_ms = static_cast<double>(stab.total_hold.nanos()) / 1e6;
  const double stab_frac = total_ms > 0 ? stab_ms / total_ms : 0;
  benchutil::Row("%-8s %-6u %-10.1f %-11.3f %-11.3f %-11.3f %-10.2f %llu", strategy, members,
                 sample.per_node_mean, causal.mean_hold_ms(), fifo.mean_hold_ms(),
                 stab.mean_hold_ms(), stab_frac,
                 static_cast<unsigned long long>(sample.pipeline.TotalEntered()));
}

void PrintE17(const std::map<uint32_t, Sample>& full, const std::map<uint32_t, Sample>& hybrid) {
  benchutil::Header(
      "E17 — per-layer hold-time attribution (E16 workload, observability on)",
      "where messages wait: causal delay queue vs fifo gate vs retention buffer, "
      "mean hold per message and the stability share of total hold time");
  benchutil::Row("%-8s %-6s %-10s %-11s %-11s %-11s %-10s %s", "strategy", "N", "node_mean",
                 "causal_ms", "fifo_ms", "stab_ms", "stab_frac", "holds");
  for (const auto& [members, f] : full) {
    PrintE17Row("full", members, f);
    PrintE17Row("hybrid", members, hybrid.at(members));
  }
  benchutil::Row("");
  benchutil::Row("node_mean reproduces E16 per-strategy occupancy (observability adds no");
  benchutil::Row("events). stab_frac ~1 at scale: retention dominates total hold time; the");
  benchutil::Row("hybrid buffer's smaller stab_ms is the release-lag gap E16 measures.");

  // Determinism spot check: a same-seed rerun must export byte-identical
  // metrics JSON (counters, hold totals, occupancy quantiles).
  const std::string& a = hybrid.at(8).metrics_json;
  const std::string b = RunOne(8, CausalBufferKind::kHybrid).metrics_json;
  benchutil::Row("json_deterministic=%s (N=8 hybrid rerun, %zu bytes)", a == b ? "yes" : "NO",
                 a.size());
}

}  // namespace

int main() {
  std::map<uint32_t, Sample> full;
  std::map<uint32_t, Sample> hybrid;
  for (uint32_t members : kGroupSizes) {
    full.emplace(members, RunOne(members, CausalBufferKind::kFullVector));
    hybrid.emplace(members, RunOne(members, CausalBufferKind::kHybrid));
  }
  PrintE5(full);
  PrintE16(full, hybrid);
  PrintE17(full, hybrid);
  return 0;
}
