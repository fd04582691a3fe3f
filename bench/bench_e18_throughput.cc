// E18 — raw-speed layer: sustained end-to-end throughput of the CATOCS stack
// at N=64 versus sender batch size and payload size. The whole simulation is
// the system under test: every app message at batch=1 costs N-1 reliably
// retransmitted transport segments plus their acks and delivery events, while
// a batch of B messages shares one stamped GroupBatch frame — so wall-clock
// msgs/sec through the simulator rises nearly linearly in B until per-message
// work (clock stamping, delivery-gate checks, app dispatch) dominates.
//
// The batch sweep keeps delta timestamps off in every config so the ratio
// isolates batching alone; a separate batch=32 config turns the delta wire
// form on to price that knob independently (it trades a small decode cost
// per frame for the §3.4 header-byte savings).

#include <benchmark/benchmark.h>

#include <memory>

#include "src/catocs/group.h"
#include "src/net/payload.h"
#include "src/sim/simulator.h"

namespace {

constexpr uint32_t kMembers = 64;
constexpr uint32_t kSenders = 8;
constexpr uint32_t kBurst = 32;           // sends per tick, same in every config
constexpr int64_t kTickMillis = 20;       // burst cadence per sender
constexpr int64_t kHorizonMillis = 400;   // simulated workload window
// Ack gossip rides alongside the workload identically in every config; the
// long interval keeps stability progress flowing through data-frame acks
// (the same information) rather than through periodic gossip event churn.
constexpr int64_t kGossipMillis = 400;

struct RunTotals {
  uint64_t delivered = 0;       // app messages delivered at member 0
  uint64_t header_bytes = 0;    // ordering headers across all senders
  uint64_t transmissions = 0;   // data-frame copies those headers rode on
};

// One complete simulated run; member 0 is an observer that never sends.
RunTotals RunOne(uint32_t batch, size_t payload_bytes, bool delta) {
  sim::Simulator s(1800 + batch);
  catocs::FabricConfig cfg;
  cfg.num_members = kMembers;
  cfg.group.batching = batch;
  cfg.group.delta_timestamps = delta;
  cfg.group.ack_gossip_interval = sim::Duration::Millis(kGossipMillis);
  catocs::GroupFabric fabric(&s, cfg);
  uint64_t delivered = 0;
  fabric.member(0).SetDeliveryHandler([&delivered](const catocs::Delivery&) { ++delivered; });
  fabric.StartAll();
  for (uint32_t sender = 1; sender <= kSenders; ++sender) {
    for (int64_t tick = 0; tick * kTickMillis < kHorizonMillis; ++tick) {
      s.ScheduleAfter(sim::Duration::Millis(1 + tick * kTickMillis),
                      [&fabric, sender, payload_bytes] {
                        for (uint32_t i = 0; i < kBurst; ++i) {
                          fabric.member(sender).CausalSend(
                              std::make_shared<net::BlobPayload>("e18", payload_bytes));
                        }
                      });
    }
  }
  // Generous drain: every burst delivers well within the extra second.
  s.RunFor(sim::Duration::Millis(kHorizonMillis) + sim::Duration::Seconds(1));
  RunTotals totals;
  totals.delivered = delivered;
  for (size_t i = 0; i < fabric.size(); ++i) {
    totals.header_bytes += fabric.member(i).stats().ordering_header_bytes;
    totals.transmissions += fabric.member(i).stats().data_transmissions;
  }
  return totals;
}

void BM_SustainedThroughput(benchmark::State& state) {
  const uint32_t batch = static_cast<uint32_t>(state.range(0));
  const size_t payload_bytes = static_cast<size_t>(state.range(1));
  const bool delta = state.range(2) != 0;
  RunTotals totals;
  for (auto _ : state) {
    const RunTotals one = RunOne(batch, payload_bytes, delta);
    totals.delivered += one.delivered;
    totals.header_bytes += one.header_bytes;
    totals.transmissions += one.transmissions;
  }
  state.SetItemsProcessed(static_cast<int64_t>(totals.delivered));
  state.counters["batch"] = batch;
  state.counters["payload_bytes"] = static_cast<double>(payload_bytes);
  state.counters["delta"] = delta ? 1 : 0;
  // Ordering metadata per transmitted data copy — the wire-overhead figure
  // E21 sweeps against N.
  state.counters["metadata_bytes_per_msg"] =
      totals.transmissions == 0 ? 0.0
                                : static_cast<double>(totals.header_bytes) /
                                      static_cast<double>(totals.transmissions);
}
BENCHMARK(BM_SustainedThroughput)
    ->ArgNames({"batch", "payload", "delta"})
    ->Args({1, 16, 0})
    ->Args({8, 16, 0})
    ->Args({32, 16, 0})
    ->Args({1, 256, 0})
    ->Args({8, 256, 0})
    ->Args({32, 256, 0})
    ->Args({32, 16, 1})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
