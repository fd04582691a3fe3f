// total-churn: the only workload through the total-order and membership
// layers. 16 members with heartbeat failure detection (20 ms heartbeats,
// 100 ms timeout) and the fixed-sequencer total order; every member sends a
// 256 B totally ordered message every 15 ms (open loop). Through the whole
// run a seeded schedule crashes one live member — every third time the
// sequencer — and then admits a fresh member id through the flush protocol with state
// transfer of the replicated application state (a digest of the total
// order). The heartbeat and timeout timers make this the cancel/re-arm-heavy
// use of the event queue.

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cpp/bench.h"
#include "cpp/oracles.h"
#include "src/catocs/pipeline_stats.h"
#include "src/net/latency.h"
#include "src/net/payload.h"

namespace perfbench {

namespace {

constexpr uint32_t kMembers = 16;
constexpr sim::Duration kSendPeriod = sim::Duration::Millis(15);
constexpr size_t kPayloadBytes = 256;
constexpr sim::Duration kHorizon = sim::Duration::Millis(4000);
constexpr sim::Duration kDrain = sim::Duration::Millis(1000);
constexpr sim::Duration kWarmup = sim::Duration::Millis(100);
// One churn cycle: a crash at a seeded instant in the cycle's first
// kCrashWindow, and a fresh member joining kJoinDelay later. The failure
// detector and flush install the crash's view well inside kJoinDelay, and
// the join completes long before the next cycle, so membership changes
// never overlap: a contact that crashes while admitting a joiner leaves the
// joiner wedged, since JoinGroup never retries elsewhere.
constexpr sim::Duration kCycle = sim::Duration::Millis(400);
constexpr sim::Duration kCrashWindow = sim::Duration::Millis(100);
constexpr sim::Duration kJoinDelay = sim::Duration::Millis(200);
constexpr int kSequencerEvery = 3;

struct Node {
  catocs::MemberId id = 0;
  std::unique_ptr<net::Transport> transport;
  std::unique_ptr<catocs::GroupMember> member;
  std::unique_ptr<sim::PeriodicTimer> sender;
  LogDigest digest;
  bool alive = true;
};

struct ChurnRun {
  const RunContext* ctx = nullptr;
  sim::Simulator* s = nullptr;
  net::Network* network = nullptr;
  catocs::GroupConfig group;
  sim::Rng* inputs = nullptr;
  std::vector<std::unique_ptr<Node>> nodes;
  catocs::MemberId next_id = kMembers + 1;
  bool sending = true;
  ViewSyncAudit audit;
  Findings findings;
  std::vector<double> latencies_ms;
  uint64_t ops = 0;
  uint64_t send_calls = 0;

  Node& Add(catocs::MemberId id, const std::vector<catocs::MemberId>& view) {
    nodes.push_back(std::make_unique<Node>());
    Node& node = *nodes.back();
    node.id = id;
    node.transport = std::make_unique<net::Transport>(s, network, id);
    node.member = std::make_unique<catocs::GroupMember>(s, node.transport.get(), group, id, view);
    Node* raw = &node;
    node.member->SetDeliveryHandler([this, raw](const catocs::Delivery& d) { Deliver(*raw, d); });
    node.member->SetViewHandler([this, raw](const catocs::View& v) {
      audit.OnView(raw->id, v.id, v.members, findings);
      if (!raw->sender->running() && raw->alive && sending) {
        raw->sender->Start(kSendPeriod);
      }
    });
    node.member->SetStateProvider(
        [raw]() -> net::PayloadPtr { return std::make_shared<DigestSnapshot>(raw->digest); });
    node.member->SetStateApplier([raw](const net::PayloadPtr& payload) {
      if (const auto* snapshot = net::PayloadCast<DigestSnapshot>(payload)) {
        raw->digest = snapshot->digest();
      }
    });
    catocs::GroupMember* member = node.member.get();
    node.transport->SetFailureHandler([member](net::NodeId peer) {
      member->ReportFailure(static_cast<catocs::MemberId>(peer));
    });
    node.sender = std::make_unique<sim::PeriodicTimer>(s, kSendPeriod, [this, raw] { Send(*raw); });
    return node;
  }

  void Send(Node& node) {
    Tracer::Scope span(ctx->tracer, Tracer::kSend);
    ++send_calls;
    const catocs::SendResult result = node.member->TrySend(
        catocs::OrderingMode::kTotal,
        std::make_shared<net::BlobPayload>("perfbench", kPayloadBytes));
    span.set_key(catocs::SpanKey(result.id));
    if (result.accepted()) {
      audit.OnAccepted(node.id);
    } else {
      findings.Add("send: member " + std::to_string(node.id) + " refused a total-order send");
    }
  }

  void Deliver(Node& node, const catocs::Delivery& d) {
    Tracer::Scope span(ctx->tracer, Tracer::kDeliver, catocs::SpanKey(d.id()));
    ++ops;
    latencies_ms.push_back(static_cast<double>((d.delivered_at - d.sent_at()).nanos()) / 1e6);
    audit.OnDeliver(node.id, d.id(), d.total_seq, findings);
    node.digest.Fold(d.id(), d.total_seq);
  }

  std::vector<Node*> Live() {
    std::vector<Node*> live;
    for (auto& node : nodes) {
      if (node->alive) {
        live.push_back(node.get());
      }
    }
    return live;
  }

  // The sequencer is the lowest live id. Crashing it stalls the total order
  // until the view change, which sets the latency tail, so it is the victim
  // of a fixed share of the crashes (every kSequencerEvery-th) rather than
  // of a seeded draw; the other victims are drawn from the rest.
  void Crash(bool sequencer) {
    std::vector<Node*> live = Live();
    Node& victim = sequencer ? *live.front() : *live[1 + inputs->NextBelow(live.size() - 1)];
    victim.alive = false;
    victim.sender->Stop();
    victim.member->Stop();
    network->SetNodeUp(victim.id, false);
    victim.transport->ResetPeerState();
  }

  void Join() {
    // Any live member can admit the joiner; the flush coordinator serves
    // the state snapshot.
    const catocs::MemberId contact = Live().front()->id;
    const catocs::MemberId id = next_id++;
    Node& node = Add(id, {id});
    node.member->Start();
    node.member->JoinGroup(contact);
  }
};

}  // namespace

RepResult RunTotalChurn(const RunContext& ctx) {
  RepResult r;
  const PoolMark pool = MarkPool();
  sim::Simulator s(ctx.seed);
  sim::Rng inputs(ctx.seed ^ 0xc4a27e5eedull);
  const sim::Duration horizon = Scaled(kHorizon, ctx.horizon_scale);

  // Declared before the run so the nodes' transports die before it.
  std::unique_ptr<net::Network> network;
  ChurnRun run;
  run.ctx = &ctx;
  run.s = &s;
  run.inputs = &inputs;
  run.group.enable_membership = true;
  run.group.heartbeat_interval = sim::Duration::Millis(20);
  run.group.failure_timeout = sim::Duration::Millis(100);
  run.group.total_order_mode = catocs::TotalOrderMode::kSequencer;
  run.group.observability = ctx.tracer != nullptr;

  const Clock::time_point setup_start = Clock::now();
  {
    Tracer::Scope span(ctx.tracer, Tracer::kSetup);
    network = std::make_unique<net::Network>(
        &s, std::make_unique<net::UniformLatency>(sim::Duration::Millis(1),
                                                  sim::Duration::Millis(10)));
    run.network = network.get();
    std::vector<catocs::MemberId> founding;
    for (uint32_t i = 1; i <= kMembers; ++i) {
      founding.push_back(i);
    }
    for (catocs::MemberId id : founding) {
      run.Add(id, founding);
      run.audit.OnView(id, 1, founding, run.findings);
    }
    for (auto& node : run.nodes) {
      node->member->Start();
    }
  }
  r.setup_s = SecondsSince(setup_start);
  if (ctx.setup_only) {
    return r;
  }

  for (auto& node : run.nodes) {
    node->sender->Start(sim::Duration(static_cast<int64_t>(
        inputs.NextBelow(static_cast<uint64_t>(kSendPeriod.nanos() / 1000)) * 1000 + 1000)));
  }
  // The churn schedule: one crash at a seeded instant in each cycle that
  // ends before the horizon, its join kJoinDelay later.
  ChurnRun* runp = &run;
  int crashes = 0;
  for (sim::Duration cycle = kCycle; cycle + kCycle <= horizon; cycle = cycle + kCycle) {
    const sim::Duration crash_at =
        cycle + sim::Duration(static_cast<int64_t>(inputs.NextBelow(
                    static_cast<uint64_t>(kCrashWindow.nanos() / 1000))) *
                              1000);
    const bool sequencer = ++crashes % kSequencerEvery == 2;
    s.ScheduleAfter(crash_at, [runp, sequencer] { runp->Crash(sequencer); });
    s.ScheduleAfter(crash_at + kJoinDelay, [runp] { runp->Join(); });
  }
  s.ScheduleAfter(horizon, [runp] {
    runp->sending = false;
    for (auto& node : runp->nodes) {
      node->sender->Stop();
    }
  });
  Sampler sampler(&s, [runp] {
    double total = 0;
    const std::vector<Node*> live = runp->Live();
    for (const Node* node : live) {
      total += static_cast<double>(node->member->buffered_messages());
    }
    return total / static_cast<double>(live.size());
  });
  sampler.Start(kWarmup);
  bool stop = false;
  const sim::TimePoint end = s.now() + horizon + kDrain;
  s.ScheduleAt(end, [&stop, &s] {
    stop = true;
    s.RequestStop();
  });

  const Clock::time_point run_start = Clock::now();
  Drive(s, stop, end, ctx.tracer);
  r.run_s = SecondsSince(run_start);

  std::set<catocs::MemberId> alive;
  std::map<catocs::MemberId, LogDigest> digests;
  std::vector<const net::Transport*> transports;
  std::vector<const catocs::GroupMember*> members;
  for (auto& node : run.nodes) {
    if (node->alive) {
      alive.insert(node->id);
      digests[node->id] = node->digest;
    }
    transports.push_back(node->transport.get());
    members.push_back(node->member.get());
  }
  run.audit.Finish(alive, run.findings);
  CheckStateAgreement(digests, run.findings);

  FoldSubstrate(r, s, *network, transports, sampler.pending_peak(), pool);
  FoldGroup(r, members);
  FoldTxn(r, {}, {});
  const double dropped = r.sim["catocs.dropped_at_view_change"];
  if (dropped > 0) {
    run.findings.Add(std::to_string(static_cast<uint64_t>(dropped)) +
                         " messages dropped at view changes",
                     static_cast<uint64_t>(dropped));
  }
  r.ops = run.ops;
  r.failed = run.findings.count;
  r.attempted = r.ops + r.failed;
  r.violations = run.findings.first;
  r.sim["catocs.send_calls"] = static_cast<double>(run.send_calls);
  r.sim["catocs.members_final"] = static_cast<double>(alive.size());
  r.sim["buffered_msgs_mean"] = sampler.buffered_mean();
  r.sim["buffered_samples"] = static_cast<double>(sampler.samples());
  FoldEndToEnd(r, run.latencies_ms, s.now().seconds(), network->bytes_sent());
  return r;
}

}  // namespace perfbench
