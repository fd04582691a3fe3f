"""The benchmark's catalog: workloads, metrics, units, directions, bounds and
the map from each per-layer metric to the end-to-end metric it should move
on which workload. BENCHMARK.json at the repository root is generated from
this file (``python3 perfbench/run.py --write-benchmark-json``) and the
self-test checks that the two agree.

Units ``sim_ms`` and ``ops/sim_s`` mark simulated readings, exact for a
seed; every other time or rate is host time.
"""

# Claims of a gain must also hold on this seed, which no tuning run uses.
HELDOUT_SEED = 7919

RUN_SECONDS = 15

WORKLOADS = [
    ("causal-burst",
     "E18 batch=1 shape, N=64, 8 senders bursting 32 causal sends: event queue "
     "and transport dominate, clocks stay 8 entries wide"),
    ("causal-alltoall",
     "E5/E16 shape, N=64 LAN/WAN, all members send, hybrid buffer: 64-wide "
     "clocks and quadratic retention, the dense-clock case"),
    ("total-churn",
     "N=16 sequencer total order with seeded crashes and fresh-id joins: the "
     "only run through total order, membership and timer cancel/re-arm"),
    ("txn-contention",
     "E22 hottest cell, 2PC wound-wait under Zipf 1.2: sim, net and txn only, "
     "so CATOCS-only changes must leave it unchanged"),
]
WORKLOAD_NAMES = [name for name, _ in WORKLOADS]
CATOCS = ["causal-burst", "causal-alltoall", "total-churn"]

# name, unit, better, bound, description
END_TO_END = [
    ("ops_per_s", "ops/s", "higher", 0.25,
     "app deliveries at all members (committed transactions for txn-contention) "
     "per host second of the untraced run, median over repetitions, scaled to "
     "the nominal machine speed by host.slowdown (see README.md)"),
    ("setup_s", "s", "lower", 0.25,
     "host seconds to build the fabric or replicas and StartAll; median of the "
     "set-up samples, scaled to the nominal machine speed by host.slowdown"),
    ("peak_rss_mb", "MB", "lower", 0.15,
     "host memory high-water of the workload process"),
    ("sim_ops_per_s", "ops/sim_s", "higher", 0.1,
     "ops per simulated second"),
    ("op_ms_p50", "sim_ms", "lower", 0.1,
     "median simulated ms from send to delivery, or from first issue to commit "
     "including retries"),
    ("op_ms_p99", "sim_ms", "lower", 0.2,
     "99th percentile of the same; every op is a sample"),
    ("wire_bytes_per_op", "B/op", "lower", 0.1,
     "Network::bytes_sent per op"),
]

# name, unit, better, layer, should move, on workloads, ratio-of (num, den)
PER_LAYER = [
    ("host.ops_per_s_raw", "ops/s", "higher", "host", "ops_per_s", WORKLOAD_NAMES, None),
    ("host.setup_s_raw", "s", "lower", "host", "setup_s", WORKLOAD_NAMES, None),
    ("host.slowdown", "ratio", "lower", "host", "ops_per_s setup_s", WORKLOAD_NAMES, None),
    ("sim.events", "count", "lower", "sim", "ops_per_s", ["causal-burst"], None),
    ("sim.events_per_op", "events/op", "lower", "sim", "ops_per_s", ["causal-burst"],
     ("sim.events", "ops")),
    ("sim.events_per_s", "1/s", "higher", "sim", "ops_per_s",
     ["causal-burst", "txn-contention"], None),
    ("sim.pending_peak", "count", "lower", "sim", "ops_per_s peak_rss_mb", ["causal-burst"],
     None),
    ("sim.step_self_s", "s", "lower", "sim + receive path", "ops_per_s", WORKLOAD_NAMES, None),
    ("net.packets", "count", "lower", "net Network", "wire_bytes_per_op", WORKLOAD_NAMES, None),
    ("net.bytes", "B", "lower", "net Network", "wire_bytes_per_op", WORKLOAD_NAMES, None),
    ("net.header_bytes", "B", "lower", "net Network", "wire_bytes_per_op", WORKLOAD_NAMES,
     None),
    ("net.delivered_ratio", "ratio", "higher", "net Network", "wire_bytes_per_op",
     WORKLOAD_NAMES, ("net.packets_delivered", "net.packets")),
    ("transport.segments", "count", "lower", "net Transport", "ops_per_s wire_bytes_per_op",
     ["causal-burst"], None),
    ("transport.acks", "count", "lower", "net Transport", "ops_per_s wire_bytes_per_op",
     ["causal-burst"], None),
    ("transport.retransmissions", "count", "lower", "net Transport",
     "ops_per_s wire_bytes_per_op", ["causal-burst"], None),
    ("transport.useful_ratio", "ratio", "higher", "net Transport",
     "ops_per_s wire_bytes_per_op", ["causal-burst"],
     ("transport.segments - transport.retransmissions", "transport.segments")),
    ("transport.queued_peak", "count", "lower", "net Transport", "ops_per_s wire_bytes_per_op",
     ["causal-burst"], None),
    ("catocs.send_calls", "count", "lower", "catocs send path", "ops_per_s",
     ["causal-alltoall", "causal-burst"], None),
    ("catocs.send_s", "s", "lower", "catocs send path", "ops_per_s",
     ["causal-alltoall", "causal-burst"], None),
    ("catocs.send_us_per_call", "us", "lower", "catocs send path", "ops_per_s",
     ["causal-alltoall", "causal-burst"], ("catocs.send_s", "catocs.send_spans")),
    ("catocs.delayed_ratio", "ratio", "lower", "catocs causal", "op_ms_p99",
     ["causal-alltoall"], ("catocs.delayed", "catocs.causal_delivered")),
    ("catocs.causal_delay_ms_mean", "sim_ms", "lower", "catocs causal", "op_ms_p99",
     ["causal-alltoall"], None),
    ("catocs.order_msgs", "count", "lower", "catocs total/stability", "wire_bytes_per_op",
     ["total-churn", "causal-alltoall"], None),
    ("catocs.ack_msgs", "count", "lower", "catocs total/stability", "wire_bytes_per_op",
     ["total-churn", "causal-alltoall"], None),
    ("catocs.header_bytes", "B", "lower", "catocs", "metadata_bytes_per_msg",
     ["causal-burst", "causal-alltoall"], None),
    ("catocs.data_transmissions", "count", "lower", "catocs", "metadata_bytes_per_msg",
     ["causal-burst", "causal-alltoall"], None),
    ("catocs.buffered_peak", "count", "lower", "catocs buffer strategy",
     "buffered_msgs_mean peak_rss_mb", ["causal-alltoall"], None),
]

HOLD_REASONS = ["causal-gap", "fifo-gap", "total-turn", "order-assign", "stability",
                "flush-blocked"]
for _reason in HOLD_REASONS:
    _moves = "buffered_msgs_mean" if _reason == "stability" else "op_ms_p99"
    PER_LAYER.append((f"catocs.hold.{_reason}.count", "count", "lower",
                      "catocs OrderingLayer", _moves, ["total-churn", "causal-alltoall"], None))
    PER_LAYER.append((f"catocs.hold.{_reason}.ms_mean", "sim_ms", "lower",
                      "catocs OrderingLayer", _moves, ["total-churn", "causal-alltoall"], None))

PER_LAYER += [
    ("catocs.view_changes", "count", "lower", "catocs membership", "op_ms_p99 failed_ratio",
     ["total-churn"], None),
    ("catocs.flush_msgs", "count", "lower", "catocs membership", "op_ms_p99 failed_ratio",
     ["total-churn"], None),
    ("catocs.blocked_ms", "sim_ms", "lower", "catocs membership", "op_ms_p99 failed_ratio",
     ["total-churn"], None),
    ("catocs.dropped_at_view_change", "count", "lower", "catocs membership",
     "op_ms_p99 failed_ratio", ["total-churn"], None),
    ("txn.attempts", "count", "lower", "txn coordinator", "abort_rate failed_ratio ops_per_s",
     ["txn-contention"], None),
    ("txn.retries", "count", "lower", "txn coordinator", "abort_rate failed_ratio ops_per_s",
     ["txn-contention"], None),
    ("txn.failed", "count", "lower", "txn coordinator", "abort_rate failed_ratio ops_per_s",
     ["txn-contention"], None),
    ("txn.submit_s", "s", "lower", "txn coordinator", "abort_rate failed_ratio ops_per_s",
     ["txn-contention"], None),
    ("txn.lock_waits", "count", "lower", "txn LockManager", "abort_rate sim_ops_per_s",
     ["txn-contention"], None),
    ("txn.lock_immediate_ratio", "ratio", "higher", "txn LockManager",
     "abort_rate sim_ops_per_s", ["txn-contention"],
     ("txn.lock_immediate", "txn.lock_immediate + txn.lock_waits")),
    ("txn.wounds", "count", "lower", "txn LockManager", "abort_rate sim_ops_per_s",
     ["txn-contention"], None),
    ("txn.deaths", "count", "lower", "txn LockManager", "abort_rate sim_ops_per_s",
     ["txn-contention"], None),
    ("mem.allocations", "count", "lower", "mem", "ops_per_s peak_rss_mb",
     ["causal-burst", "causal-alltoall"], None),
    ("mem.pool_hit_ratio", "ratio", "higher", "mem", "ops_per_s peak_rss_mb",
     ["causal-burst", "causal-alltoall"], ("mem.pool_hits", "mem.allocations")),
    ("trace.overhead_ratio", "ratio", "higher", "obs/bench",
     "none: traced / untraced ops_per_s", WORKLOAD_NAMES,
     ("traced_ops_per_s", "untraced_ops_per_s")),
    # End-to-end readings the issue names that are 0 on some workload or
    # apply to some workloads only; they ride here, without a bound.
    ("failed_ratio", "ratio", "lower", "end-to-end", "-", WORKLOAD_NAMES, ("failed", "attempted")),
    ("abort_rate", "ratio", "lower", "end-to-end", "-", ["txn-contention"],
     ("txn.aborted", "txn.attempts")),
    ("metadata_bytes_per_msg", "B/msg", "lower", "end-to-end", "-", CATOCS,
     ("catocs.header_bytes", "catocs.data_transmissions")),
    ("buffered_msgs_mean", "msgs", "lower", "end-to-end", "-", CATOCS, None),
]


def benchmark_json():
    """The BENCHMARK.json document, in the contract's key order."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, *_ in PER_LAYER],
    }
