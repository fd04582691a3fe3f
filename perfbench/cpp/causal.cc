// The two static-group causal workloads.
//
// causal-burst: E18's batch=1 shape. 64 members on uniform 1-10 ms links;
//   8 senders each burst 32 x 16 B causal sends every 20 ms (open loop in
//   simulated time), default full-vector buffer, no batching, no delta
//   timestamps. Only 8 clock entries are ever non-zero, and most host time
//   goes to the event queue and the transport — the simulator-core case.
// causal-alltoall: E5/E16's shape. 64 members in 8-node clusters (LAN
//   1-5 ms, WAN 10-30 ms), every member sends 256 B every 25 ms, hybrid
//   buffer. Clocks are 64 entries wide and retention is the paper's
//   quadratic-buffering case — the dense-clock case.
//
// The seed drives the simulator (link delays) and each sender's phase
// within its period. Sends stop at the horizon; the drain that follows lets
// every accepted message reach every member before the oracles run.

#include <memory>
#include <vector>

#include "cpp/bench.h"
#include "cpp/oracles.h"
#include "src/catocs/group.h"
#include "src/catocs/pipeline_stats.h"
#include "src/net/latency.h"
#include "src/net/payload.h"

namespace perfbench {

namespace {

struct CausalShape {
  uint32_t members = 64;
  uint32_t senders = 64;
  uint32_t burst = 1;
  sim::Duration period = sim::Duration::Millis(25);
  size_t payload_bytes = 256;
  catocs::CausalBufferKind buffer = catocs::CausalBufferKind::kFullVector;
  sim::Duration gossip = sim::Duration::Millis(50);
  bool clustered = false;
  sim::Duration horizon = sim::Duration::Millis(400);
  sim::Duration drain = sim::Duration::Seconds(1);
  sim::Duration warmup = sim::Duration::Millis(100);
};

// Everything a scheduled send or a delivery callback touches; events
// capture one pointer to it, which keeps them inside the inline closure.
struct CausalRun {
  const RunContext* ctx = nullptr;
  const CausalShape* shape = nullptr;
  catocs::GroupFabric* fabric = nullptr;
  CausalAudit audit;
  DeliveryLedger ledger;
  Findings findings;
  std::vector<double> latencies_ms;
  uint64_t ops = 0;
  uint64_t send_calls = 0;

  CausalRun(const RunContext* c, const CausalShape* s)
      : ctx(c), shape(s), audit(s->members), ledger(s->members, s->members) {}

  void Send(uint32_t member) {
    for (uint32_t i = 0; i < shape->burst; ++i) {
      Tracer::Scope span(ctx->tracer, Tracer::kSend);
      ++send_calls;
      const catocs::SendResult result = fabric->member(member).TrySend(
          catocs::OrderingMode::kCausal,
          std::make_shared<net::BlobPayload>("perfbench", shape->payload_bytes));
      span.set_key(catocs::SpanKey(result.id));
      if (result.status == catocs::SendStatus::kSent && result.id.seq != 0) {
        ledger.OnAccepted(result.id);
      } else {
        findings.Add("send: member " + std::to_string(member) + " refused a causal send");
      }
    }
  }

  void Deliver(size_t at, const catocs::Delivery& d) {
    Tracer::Scope span(ctx->tracer, Tracer::kDeliver, catocs::SpanKey(d.id()));
    ++ops;
    latencies_ms.push_back(static_cast<double>((d.delivered_at - d.sent_at()).nanos()) / 1e6);
    audit.OnDeliver(at, d.id(), d.vt(), findings);
    ledger.OnDeliver(d.id(), findings);
  }
};

RepResult RunCausal(const CausalShape& shape, const RunContext& ctx) {
  RepResult r;
  const PoolMark pool = MarkPool();
  sim::Simulator s(ctx.seed);
  sim::Rng inputs(ctx.seed ^ 0x5eed0f1a7e5ull);
  const sim::Duration horizon = Scaled(shape.horizon, ctx.horizon_scale);

  catocs::FabricConfig cfg;
  cfg.num_members = shape.members;
  cfg.group.causal_buffer = shape.buffer;
  cfg.group.ack_gossip_interval = shape.gossip;
  cfg.group.observability = ctx.tracer != nullptr;

  CausalRun run(&ctx, &shape);
  std::unique_ptr<catocs::GroupFabric> fabric;
  const Clock::time_point setup_start = Clock::now();
  {
    Tracer::Scope span(ctx.tracer, Tracer::kSetup);
    if (shape.clustered) {
      fabric = std::make_unique<catocs::GroupFabric>(
          &s, cfg,
          std::make_unique<net::ClusteredLatency>(
              8,
              std::make_unique<net::UniformLatency>(sim::Duration::Millis(1),
                                                    sim::Duration::Millis(5)),
              std::make_unique<net::UniformLatency>(sim::Duration::Millis(10),
                                                    sim::Duration::Millis(30))));
    } else {
      fabric = std::make_unique<catocs::GroupFabric>(&s, cfg);
    }
    run.fabric = fabric.get();
    for (size_t i = 0; i < fabric->size(); ++i) {
      fabric->member(i).SetDeliveryHandler(
          [&run, i](const catocs::Delivery& d) { run.Deliver(i, d); });
    }
    fabric->StartAll();
  }
  r.setup_s = SecondsSince(setup_start);
  if (ctx.setup_only) {
    return r;
  }

  // Open-loop schedule, fixed before the run: sender m sends at
  // phase_m + k * period for every such instant inside the horizon.
  for (uint32_t m = 0; m < shape.senders; ++m) {
    const sim::Duration phase(static_cast<int64_t>(
        inputs.NextBelow(static_cast<uint64_t>(shape.period.nanos() / 1000)) * 1000 + 1000));
    for (sim::Duration at = phase; at < horizon; at = at + shape.period) {
      CausalRun* runp = &run;
      s.ScheduleAfter(at, [runp, m] { runp->Send(m); });
    }
  }
  Sampler sampler(&s, [&fabric] {
    double total = 0;
    for (size_t i = 0; i < fabric->size(); ++i) {
      total += static_cast<double>(fabric->member(i).buffered_messages());
    }
    return total / static_cast<double>(fabric->size());
  });
  sampler.Start(Scaled(shape.warmup, ctx.horizon_scale));
  bool stop = false;
  const sim::TimePoint end = s.now() + horizon + shape.drain;
  s.ScheduleAt(end, [&stop, &s] {
    stop = true;
    s.RequestStop();
  });

  const Clock::time_point run_start = Clock::now();
  Drive(s, stop, end, ctx.tracer);
  r.run_s = SecondsSince(run_start);

  run.ledger.Missing(run.findings);
  r.ops = run.ops;
  r.failed = run.findings.count;
  r.attempted = r.ops + r.failed;
  r.violations = run.findings.first;

  std::vector<const net::Transport*> transports;
  std::vector<const catocs::GroupMember*> members;
  for (size_t i = 0; i < fabric->size(); ++i) {
    transports.push_back(&fabric->transport(i));
    members.push_back(&fabric->member(i));
  }
  FoldSubstrate(r, s, fabric->network(), transports, sampler.pending_peak(), pool);
  FoldGroup(r, members);
  FoldTxn(r, {}, {});
  r.sim["catocs.send_calls"] = static_cast<double>(run.send_calls);
  r.sim["catocs.accepted"] = static_cast<double>(run.ledger.accepted());
  r.sim["buffered_msgs_mean"] = sampler.buffered_mean();
  r.sim["buffered_samples"] = static_cast<double>(sampler.samples());
  FoldEndToEnd(r, run.latencies_ms, s.now().seconds(), fabric->network().bytes_sent());
  return r;
}

}  // namespace

RepResult RunCausalBurst(const RunContext& ctx) {
  CausalShape shape;
  shape.senders = 8;
  shape.burst = 32;
  shape.period = sim::Duration::Millis(20);
  shape.payload_bytes = 16;
  shape.buffer = catocs::CausalBufferKind::kFullVector;
  // E18's gossip cadence: stability rides on data-frame acks.
  shape.gossip = sim::Duration::Millis(400);
  shape.horizon = sim::Duration::Millis(400);
  shape.drain = sim::Duration::Seconds(1);
  return RunCausal(shape, ctx);
}

RepResult RunCausalAllToAll(const RunContext& ctx) {
  CausalShape shape;
  shape.senders = 64;
  shape.period = sim::Duration::Millis(25);
  shape.payload_bytes = 256;
  shape.buffer = catocs::CausalBufferKind::kHybrid;
  shape.clustered = true;
  shape.horizon = sim::Duration::Millis(250);
  shape.drain = sim::Duration::Millis(250);
  shape.warmup = sim::Duration::Millis(100);
  return RunCausal(shape, ctx);
}

}  // namespace perfbench
