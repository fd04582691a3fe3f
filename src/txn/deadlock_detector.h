// State-level distributed deadlock detection (Appendix 9.2's alternative).
//
// Each process periodically multicasts its *local* augmented wait-for edges
// (instance-id granularity, e.g. A15 -> B37) to a set of monitor processes,
// with a conventional per-process sequence number so a monitor applies each
// process's reports in order and ignores stale ones. Monitors overwrite that
// process's previous edge set and run cycle detection. Because 2PL wait-for
// deadlock is a locally stable property, no consistent cut — and no causal
// multicast of every RPC event — is needed: every cycle found is a real
// deadlock.

#ifndef REPRO_SRC_TXN_DEADLOCK_DETECTOR_H_
#define REPRO_SRC_TXN_DEADLOCK_DETECTOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/net/transport.h"
#include "src/sim/simulator.h"
#include "src/txn/wait_for_graph.h"

namespace txn {

using WaitEdge = std::pair<uint64_t, uint64_t>;  // waiter instance -> holder instance

class WaitForReporter {
 public:
  static constexpr uint32_t kReportPort = 0x0D10CC01;

  // edge_source returns the process's current local wait-for edges.
  WaitForReporter(sim::Simulator* simulator, net::Transport* transport,
                  std::vector<net::NodeId> monitors, sim::Duration period,
                  std::function<std::vector<WaitEdge>()> edge_source);

  void Start();
  void Stop();
  // Pushes a report immediately (e.g. right after blocking).
  void ReportNow();

  uint64_t reports_sent() const { return reports_sent_; }

 private:
  sim::Simulator* simulator_;
  net::Transport* transport_;
  std::vector<net::NodeId> monitors_;
  std::function<std::vector<WaitEdge>()> edge_source_;
  std::unique_ptr<sim::PeriodicTimer> timer_;
  uint64_t next_seq_ = 1;
  uint64_t reports_sent_ = 0;
};

class DeadlockMonitor {
 public:
  using DeadlockHandler = std::function<void(const std::vector<uint64_t>& cycle)>;

  DeadlockMonitor(sim::Simulator* simulator, net::Transport* transport);

  void SetDeadlockHandler(DeadlockHandler handler) { handler_ = std::move(handler); }

  const WaitForGraph& graph() const { return graph_; }
  uint64_t detections() const { return detections_; }

 private:
  void OnReport(net::NodeId reporter, const net::PayloadPtr& payload);
  void Rebuild();

  sim::Simulator* simulator_;
  net::Transport* transport_;
  DeadlockHandler handler_;
  WaitForGraph graph_;
  // Last accepted (seq, edges) per reporting process.
  std::map<net::NodeId, std::pair<uint64_t, std::vector<WaitEdge>>> latest_;
  uint64_t detections_ = 0;
};

}  // namespace txn

#endif  // REPRO_SRC_TXN_DEADLOCK_DETECTOR_H_
