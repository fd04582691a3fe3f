#include <algorithm>
#include <string>

#include "cpp/bench.h"
#include "src/catocs/pipeline_stats.h"
#include "src/mem/pool.h"

namespace perfbench {

void Drive(sim::Simulator& s, const bool& stop, sim::TimePoint limit, Tracer* tracer) {
  if (tracer == nullptr) {
    s.RunUntil(limit);
    return;
  }
  while (!stop && s.now() <= limit) {
    Tracer::Scope span(tracer, Tracer::kStep);
    if (!s.Step()) {
      break;
    }
  }
}

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const size_t rank = std::min(values.size() - 1, static_cast<size_t>(q * values.size()));
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

PoolMark MarkPool() {
  const mem::PoolStats& stats = mem::SizeClassPool::Instance().stats();
  return PoolMark{stats.allocations, stats.pool_hits};
}

void FoldSubstrate(RepResult& r, const sim::Simulator& s, const net::Network& network,
                   const std::vector<const net::Transport*>& transports, uint64_t pending_peak,
                   const PoolMark& pool_base) {
  auto& m = r.sim;
  m["sim.events"] = static_cast<double>(s.events_executed());
  m["sim.pending_peak"] = static_cast<double>(pending_peak);
  m["net.packets"] = static_cast<double>(network.packets_sent());
  m["net.packets_delivered"] = static_cast<double>(network.packets_delivered());
  m["net.delivered_ratio"] = Ratio(m["net.packets_delivered"], m["net.packets"]);
  m["net.bytes"] = static_cast<double>(network.bytes_sent());
  m["net.header_bytes"] = static_cast<double>(network.header_bytes_sent());
  double segments = 0;
  double acks = 0;
  double retransmissions = 0;
  double queued_peak = 0;
  for (const net::Transport* t : transports) {
    segments += static_cast<double>(t->segments_sent());
    acks += static_cast<double>(t->acks_sent());
    retransmissions += static_cast<double>(t->retransmissions());
    queued_peak = std::max(queued_peak, static_cast<double>(t->peak_queued_segments()));
  }
  m["transport.segments"] = segments;
  m["transport.acks"] = acks;
  m["transport.retransmissions"] = retransmissions;
  m["transport.useful_ratio"] = Ratio(segments - retransmissions, segments);
  m["transport.queued_peak"] = queued_peak;
  const PoolMark now = MarkPool();
  m["mem.allocations"] = static_cast<double>(now.allocations - pool_base.allocations);
  m["mem.pool_hits"] = static_cast<double>(now.hits - pool_base.hits);
  m["mem.pool_hit_ratio"] = Ratio(m["mem.pool_hits"], m["mem.allocations"]);
}

void FoldGroup(RepResult& r, const std::vector<const catocs::GroupMember*>& members) {
  catocs::GroupStats sum;
  double buffered_peak = 0;
  uint64_t max_view = 1;
  catocs::PipelineStats holds;
  for (const catocs::GroupMember* member : members) {
    const catocs::GroupStats& st = member->stats();
    sum.sent += st.sent;
    sum.causal_delivered += st.causal_delivered;
    sum.delayed_deliveries += st.delayed_deliveries;
    sum.total_causal_delay = sum.total_causal_delay + st.total_causal_delay;
    sum.order_msgs_sent += st.order_msgs_sent;
    sum.ack_msgs_sent += st.ack_msgs_sent;
    sum.ordering_header_bytes += st.ordering_header_bytes;
    sum.data_transmissions += st.data_transmissions;
    sum.flush_control_msgs += st.flush_control_msgs;
    sum.blocked_time = sum.blocked_time + st.blocked_time;
    sum.messages_dropped_at_view_change += st.messages_dropped_at_view_change;
    buffered_peak = std::max(buffered_peak, static_cast<double>(member->peak_buffered_messages()));
    max_view = std::max(max_view, member->view().id);
    holds.Merge(member->pipeline_stats());
  }
  auto& m = r.sim;
  m["catocs.sent"] = static_cast<double>(sum.sent);
  m["catocs.causal_delivered"] = static_cast<double>(sum.causal_delivered);
  m["catocs.delayed"] = static_cast<double>(sum.delayed_deliveries);
  m["catocs.delayed_ratio"] = Ratio(m["catocs.delayed"], m["catocs.causal_delivered"]);
  m["catocs.causal_delay_ms_mean"] =
      Ratio(static_cast<double>(sum.total_causal_delay.nanos()) / 1e6, m["catocs.delayed"]);
  m["catocs.order_msgs"] = static_cast<double>(sum.order_msgs_sent);
  m["catocs.ack_msgs"] = static_cast<double>(sum.ack_msgs_sent);
  m["catocs.header_bytes"] = static_cast<double>(sum.ordering_header_bytes);
  m["catocs.data_transmissions"] = static_cast<double>(sum.data_transmissions);
  m["metadata_bytes_per_msg"] = Ratio(m["catocs.header_bytes"], m["catocs.data_transmissions"]);
  m["catocs.buffered_peak"] = buffered_peak;
  m["catocs.view_changes"] = static_cast<double>(max_view - 1);
  m["catocs.flush_msgs"] = static_cast<double>(sum.flush_control_msgs);
  m["catocs.blocked_ms"] = static_cast<double>(sum.blocked_time.nanos()) / 1e6;
  m["catocs.dropped_at_view_change"] = static_cast<double>(sum.messages_dropped_at_view_change);
  for (size_t i = 0; i < catocs::kNumHoldReasons; ++i) {
    const auto reason = static_cast<catocs::HoldReason>(i);
    const catocs::PipelineStats::HoldStat& stat = holds.reason(reason);
    const std::string prefix = std::string("catocs.hold.") + catocs::ToString(reason);
    r.observed[prefix + ".count"] = static_cast<double>(stat.entered);
    r.observed[prefix + ".ms_mean"] = stat.mean_hold_ms();
  }
}

void FoldTxn(RepResult& r, const std::vector<const txn::TxnCoordinator*>& coordinators,
             const std::vector<txn::TxnReplica*>& replicas) {
  txn::CoordinatorStats sum;
  for (const txn::TxnCoordinator* c : coordinators) {
    sum.committed += c->stats().committed;
    sum.aborted += c->stats().aborted;
    sum.retries += c->stats().retries;
    sum.failed += c->stats().failed;
  }
  txn::LockStats locks;
  for (txn::TxnReplica* replica : replicas) {
    const txn::LockStats& st = replica->lock_manager().stats();
    locks.immediate_grants += st.immediate_grants;
    locks.waits += st.waits;
    locks.wounds += st.wounds;
    locks.wait_die_aborts += st.wait_die_aborts;
  }
  auto& m = r.sim;
  m["txn.attempts"] = static_cast<double>(sum.committed + sum.aborted);
  m["txn.aborted"] = static_cast<double>(sum.aborted);
  m["txn.retries"] = static_cast<double>(sum.retries);
  m["txn.failed"] = static_cast<double>(sum.failed);
  m["abort_rate"] = Ratio(m["txn.aborted"], m["txn.attempts"]);
  m["txn.lock_waits"] = static_cast<double>(locks.waits);
  m["txn.lock_immediate"] = static_cast<double>(locks.immediate_grants);
  m["txn.lock_immediate_ratio"] =
      Ratio(m["txn.lock_immediate"], m["txn.lock_immediate"] + m["txn.lock_waits"]);
  m["txn.wounds"] = static_cast<double>(locks.wounds);
  m["txn.deaths"] = static_cast<double>(locks.wait_die_aborts);
}

void FoldEndToEnd(RepResult& r, std::vector<double>& latencies_ms, double sim_seconds,
                  uint64_t wire_bytes) {
  auto& m = r.sim;
  const double ops = static_cast<double>(r.ops);
  m["ops"] = ops;
  m["sim_seconds"] = sim_seconds;
  m["sim_ops_per_s"] = Ratio(ops, sim_seconds);
  m["op_samples"] = static_cast<double>(latencies_ms.size());
  m["op_ms_p50"] = Quantile(latencies_ms, 0.50);
  m["op_ms_p99"] = Quantile(latencies_ms, 0.99);
  m["failed"] = static_cast<double>(r.failed);
  m["attempted"] = static_cast<double>(r.attempted);
  m["failed_ratio"] = Ratio(m["failed"], m["attempted"]);
  m["wire_bytes_per_op"] = Ratio(static_cast<double>(wire_bytes), ops);
  m["sim.events_per_op"] = Ratio(m["sim.events"], ops);
}

}  // namespace perfbench
