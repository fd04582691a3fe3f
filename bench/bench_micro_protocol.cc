// Microbenchmarks (google-benchmark) for the protocol hot paths: the
// per-message costs the paper argues will dominate as networks get faster
// (§3.4): vector clock updates/comparison, the causal deliverability check,
// delay-queue processing, and the state-level alternatives (version compare,
// ordered-cache apply) for contrast.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/catocs/group.h"
#include "src/catocs/stability.h"
#include "src/catocs/vector_clock.h"
#include "src/catocs/wire_codec.h"
#include "src/mem/pool.h"
#include "src/sim/event_queue.h"
#include "src/sim/metrics.h"
#include "src/statelevel/ordered_cache.h"
#include "src/txn/lock_manager.h"

namespace {

catocs::VectorClock FullClock(int members, uint64_t base) {
  catocs::VectorClock vc;
  for (int m = 0; m < members; ++m) {
    vc.Set(static_cast<catocs::MemberId>(m + 1), base + static_cast<uint64_t>(m));
  }
  return vc;
}

void BM_VectorClockIncrement(benchmark::State& state) {
  catocs::VectorClock vc;
  for (int m = 0; m < state.range(0); ++m) {
    vc.Set(static_cast<catocs::MemberId>(m + 1), 1);
  }
  catocs::MemberId id = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vc.Increment(id));
  }
}
BENCHMARK(BM_VectorClockIncrement)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_VectorClockCompare(benchmark::State& state) {
  catocs::VectorClock a;
  catocs::VectorClock b;
  for (int m = 0; m < state.range(0); ++m) {
    a.Set(static_cast<catocs::MemberId>(m + 1), static_cast<uint64_t>(m));
    b.Set(static_cast<catocs::MemberId>(m + 1), static_cast<uint64_t>(m + (m % 2)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Compare(b));
  }
}
BENCHMARK(BM_VectorClockCompare)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_VectorClockMerge(benchmark::State& state) {
  catocs::VectorClock a;
  catocs::VectorClock b;
  for (int m = 0; m < state.range(0); ++m) {
    a.Set(static_cast<catocs::MemberId>(m + 1), static_cast<uint64_t>(m));
    b.Set(static_cast<catocs::MemberId>(m + 1), static_cast<uint64_t>(2 * m));
  }
  for (auto _ : state) {
    catocs::VectorClock c = a;
    c.Merge(b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_VectorClockMerge)->Arg(4)->Arg(16)->Arg(64);

void BM_VectorClockDominates(benchmark::State& state) {
  catocs::VectorClock big = FullClock(static_cast<int>(state.range(0)), 2);
  catocs::VectorClock small = FullClock(static_cast<int>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(big.Dominates(small));
  }
}
BENCHMARK(BM_VectorClockDominates)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// The per-message receive-path gate, as the raw-speed layer runs it for a
// delta-stamped frame: vd[sender]+1 == seq, then only the entries that
// changed since the sender's previous frame. Constant-time for a burst
// sender (one changed entry) regardless of group size; the O(N) full scan it
// replaces is kept below as BM_CausallyDeliverableFull.
void BM_CausallyDeliverable(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  catocs::VectorClock delivered = FullClock(members, 5);
  const uint64_t seq = delivered.Get(1) + 1;
  catocs::WireVt wire;
  wire.keyframe = false;
  wire.entries = {{1, seq}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(catocs::CausallyDeliverableDelta(wire, 1, seq, delivered));
  }
}
BENCHMARK(BM_CausallyDeliverable)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// The pre-delta gate: vt[sender] == vd[sender]+1 and vt[m] <= vd[m]
// elsewhere, fused into one scan over the full clock. Still the path taken
// by keyframes and by frames without a wire timestamp.
void BM_CausallyDeliverableFull(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  catocs::VectorClock delivered = FullClock(members, 5);
  catocs::VectorClock vt = delivered;
  vt.Increment(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(catocs::CausallyDeliverable(vt, 1, delivered));
  }
}
BENCHMARK(BM_CausallyDeliverableFull)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// Multicast fan-out per app message with sender-side batching: 32 sends
// share one stamped GroupBatch frame, so each app message's share of the
// wire fan-out is 1/32 of a pointer store per recipient. One iteration is
// one app message; every 32nd iteration broadcasts the frame. The unbatched
// O(N)-stores-per-message shape is kept below for contrast.
void BM_MulticastFanout(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  constexpr uint64_t kBatch = 32;
  std::vector<catocs::GroupDataPtr> entries;
  for (uint64_t i = 1; i <= kBatch; ++i) {
    entries.push_back(mem::MakePooled<catocs::GroupData>(
        1, catocs::MessageId{1, i}, catocs::OrderingMode::kCausal, FullClock(members, 3),
        std::make_shared<net::BlobPayload>("b", 256), sim::TimePoint::Zero()));
  }
  auto batch = mem::MakePooled<catocs::GroupBatch>(1, std::move(entries));
  std::vector<net::PayloadPtr> links(static_cast<size_t>(members));
  uint64_t msg = 0;
  for (auto _ : state) {
    if (++msg % kBatch == 0) {
      for (auto& slot : links) {
        slot = batch;
      }
    }
    benchmark::DoNotOptimize(links.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_recipient"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * members, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MulticastFanout)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// Unbatched fan-out: one timestamped message handed to N recipients per
// iteration. The shared_ptr-per-delivery design makes this O(N) refcounts
// rather than O(N) header deep-copies.
void BM_MulticastFanoutUnbatched(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  auto data = std::make_shared<catocs::GroupData>(
      1, catocs::MessageId{1, 9}, catocs::OrderingMode::kCausal, FullClock(members, 3),
      std::make_shared<net::BlobPayload>("b", 256), sim::TimePoint::Zero());
  std::vector<catocs::Delivery> inboxes(static_cast<size_t>(members));
  for (auto _ : state) {
    for (auto& slot : inboxes) {
      slot.data = data;
      slot.total_seq = 0;
    }
    benchmark::DoNotOptimize(inboxes.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_recipient"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * members, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MulticastFanoutUnbatched)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// Message allocation churn through the size-class pool: steady-state the
// pool serves every allocation from its free lists (one fused control+object
// block, LIFO reuse), versus the general-purpose allocator.
void BM_PooledMessageChurn(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  const catocs::VectorClock vt = FullClock(members, 3);
  auto payload = std::make_shared<net::BlobPayload>("b", 64);
  for (auto _ : state) {
    auto data = mem::MakePooled<catocs::GroupData>(1, catocs::MessageId{1, 9},
                                                   catocs::OrderingMode::kCausal, vt, payload,
                                                   sim::TimePoint::Zero());
    benchmark::DoNotOptimize(data);
  }
}
BENCHMARK(BM_PooledMessageChurn)->Arg(4)->Arg(64);

void BM_HeapMessageChurn(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  const catocs::VectorClock vt = FullClock(members, 3);
  auto payload = std::make_shared<net::BlobPayload>("b", 64);
  for (auto _ : state) {
    auto data = std::make_shared<catocs::GroupData>(1, catocs::MessageId{1, 9},
                                                    catocs::OrderingMode::kCausal, vt, payload,
                                                    sim::TimePoint::Zero());
    benchmark::DoNotOptimize(data);
  }
}
BENCHMARK(BM_HeapMessageChurn)->Arg(4)->Arg(64);

// Stability advance: every member reports its delivered vector, then the
// tracker computes the stable floor and prunes. This is the ack-gossip path
// that dominates E5's buffering sweep.
void BM_StabilityAdvance(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  std::vector<catocs::MemberId> ids;
  for (int m = 0; m < members; ++m) {
    ids.push_back(static_cast<catocs::MemberId>(m + 1));
  }
  uint64_t round = 1;
  catocs::StabilityTracker tracker;
  tracker.SetMembers(ids);
  for (auto _ : state) {
    catocs::VectorClock report = FullClock(members, round++);
    for (catocs::MemberId m : ids) {
      tracker.UpdateMemberVector(m, report);
    }
    benchmark::DoNotOptimize(tracker.StableVector());
    tracker.Prune();
  }
}
BENCHMARK(BM_StabilityAdvance)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// Schedule/cancel churn with most timers cancelled before firing — the
// retransmit-timer pattern that makes heap compaction matter.
void BM_EventQueueChurn(benchmark::State& state) {
  sim::EventQueue queue;
  uint64_t fired = 0;
  sim::TimePoint now = sim::TimePoint::Zero();
  for (auto _ : state) {
    std::vector<sim::EventId> pending;
    pending.reserve(1024);
    for (int i = 0; i < 1024; ++i) {
      now = now + sim::Duration::Micros(1);
      pending.push_back(queue.Schedule(now, [&fired] { ++fired; }));
    }
    // Cancel 15 of every 16 (acks beat the retransmit timer).
    for (size_t i = 0; i < pending.size(); ++i) {
      if (i % 16 != 0) {
        queue.Cancel(pending[i]);
      }
    }
    while (!queue.Empty()) {
      queue.PopNext().fn();
    }
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_EventQueueChurn)->Unit(benchmark::kMicrosecond);

// Histogram quantile reads over a populated reservoir. Report() asks for
// several quantiles per histogram; the cached sorted view means the burst
// sorts once instead of copying + sorting the whole reservoir per call —
// this case reads four quantiles per iteration over a static histogram,
// which the cache turns from four O(n log n) sorts into four O(1) lookups.
void BM_HistogramQuantileBurst(benchmark::State& state) {
  sim::Histogram h;
  uint64_t x = 0x2545F4914F6CDD1Dull;
  for (int i = 0; i < state.range(0); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    h.Record(static_cast<double>(x % 100000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Quantile(0.50));
    benchmark::DoNotOptimize(h.Quantile(0.90));
    benchmark::DoNotOptimize(h.Quantile(0.99));
    benchmark::DoNotOptimize(h.Quantile(1.00));
  }
}
BENCHMARK(BM_HistogramQuantileBurst)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

// The mixed pattern: one record between quantile reads, so every read pays
// one sort of the current reservoir — the pre-cache worst case, for contrast.
void BM_HistogramRecordThenQuantile(benchmark::State& state) {
  sim::Histogram h;
  for (int i = 0; i < state.range(0); ++i) {
    h.Record(static_cast<double>(i));
  }
  double v = 0;
  for (auto _ : state) {
    h.Record(v);
    v += 1.0;
    benchmark::DoNotOptimize(h.Quantile(0.99));
  }
}
BENCHMARK(BM_HistogramRecordThenQuantile)->Arg(1 << 10)->Arg(1 << 16);

// Versus: the state-level "ordering check" is one integer compare.
void BM_StateLevelVersionCompare(benchmark::State& state) {
  uint64_t current = 41;
  uint64_t incoming = 42;
  for (auto _ : state) {
    benchmark::DoNotOptimize(incoming > current);
    benchmark::DoNotOptimize(current);
  }
}
BENCHMARK(BM_StateLevelVersionCompare);

void BM_OrderedCacheApply(benchmark::State& state) {
  statelv::OrderedCache cache;
  uint64_t version = 0;
  statelv::VersionedUpdate update;
  update.object = "obj";
  for (auto _ : state) {
    update.version = ++version;
    benchmark::DoNotOptimize(cache.Apply(update));
  }
}
BENCHMARK(BM_OrderedCacheApply);

// End-to-end simulated group round: N members, one causal multicast each,
// run to quiescence. Measures simulator+protocol cost per delivered message.
void BM_GroupRoundCausal(benchmark::State& state) {
  const uint32_t members = static_cast<uint32_t>(state.range(0));
  uint64_t delivered = 0;
  for (auto _ : state) {
    sim::Simulator s(7);
    catocs::FabricConfig cfg;
    cfg.num_members = members;
    cfg.group.ack_gossip_interval = sim::Duration::Zero();
    catocs::GroupFabric fabric(&s, cfg);
    fabric.StartAll();
    for (uint32_t m = 0; m < members; ++m) {
      s.ScheduleAfter(sim::Duration::Millis(1), [&fabric, m] {
        fabric.member(m).CausalSend(std::make_shared<net::BlobPayload>("b", 64));
      });
    }
    s.RunFor(sim::Duration::Seconds(2));
    for (size_t i = 0; i < fabric.size(); ++i) {
      delivered += fabric.member(i).stats().app_delivered;
    }
  }
  state.counters["deliveries"] =
      benchmark::Counter(static_cast<double>(delivered), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GroupRoundCausal)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_LockManagerAcquireRelease(benchmark::State& state) {
  txn::LockManager lm;
  txn::TxnId id = 1;
  for (auto _ : state) {
    lm.Acquire(id, "x", txn::LockMode::kExclusive, nullptr);
    lm.ReleaseAll(id);
    ++id;
  }
}
BENCHMARK(BM_LockManagerAcquireRelease);

// ReleaseAll cost against table size: Arg(0) resources are held by a
// bystander transaction while the measured transaction acquires and releases
// two of its own. With the per-transaction resource index this is O(holds);
// the seed scanned the whole table, so the per-op time grew with Arg(0).
void BM_LockManagerReleaseAllManyResources(benchmark::State& state) {
  txn::LockManager lm;
  const int64_t background = state.range(0);
  for (int64_t r = 0; r < background; ++r) {
    lm.Acquire(1, "bg" + std::to_string(r), txn::LockMode::kShared, nullptr);
  }
  txn::TxnId id = 2;
  for (auto _ : state) {
    lm.Acquire(id, "mine_a", txn::LockMode::kExclusive, nullptr);
    lm.Acquire(id, "mine_b", txn::LockMode::kExclusive, nullptr);
    lm.ReleaseAll(id);
    ++id;
  }
}
BENCHMARK(BM_LockManagerReleaseAllManyResources)->Arg(64)->Arg(1024)->Arg(16384);

}  // namespace

BENCHMARK_MAIN();
