#include "src/txn/deadlock_detector.h"

#include <cassert>
#include <utility>

namespace txn {

namespace {

class ReportMsg : public net::Payload {
 public:
  ReportMsg(uint64_t seq, std::vector<WaitEdge> edges) : seq_(seq), edges_(std::move(edges)) {}
  size_t SizeBytes() const override { return 8 + edges_.size() * 16; }
  std::string Describe() const override { return "waitfor-report"; }
  uint64_t seq() const { return seq_; }
  const std::vector<WaitEdge>& edges() const { return edges_; }

 private:
  uint64_t seq_;
  std::vector<WaitEdge> edges_;
};

}  // namespace

WaitForReporter::WaitForReporter(sim::Simulator* simulator, net::Transport* transport,
                                 std::vector<net::NodeId> monitors, sim::Duration period,
                                 std::function<std::vector<WaitEdge>()> edge_source)
    : simulator_(simulator),
      transport_(transport),
      monitors_(std::move(monitors)),
      edge_source_(std::move(edge_source)) {
  timer_ = std::make_unique<sim::PeriodicTimer>(simulator_, period, [this] { ReportNow(); });
}

void WaitForReporter::Start() { timer_->Start(sim::Duration::Zero()); }

void WaitForReporter::Stop() { timer_->Stop(); }

void WaitForReporter::ReportNow() {
  auto report = std::make_shared<ReportMsg>(next_seq_++, edge_source_());
  for (net::NodeId monitor : monitors_) {
    ++reports_sent_;
    // Unreliable is fine: the per-process sequence number lets monitors drop
    // stale reports, and the next period repairs any loss.
    transport_->SendUnreliable(monitor, kReportPort, report);
  }
}

DeadlockMonitor::DeadlockMonitor(sim::Simulator* simulator, net::Transport* transport)
    : simulator_(simulator), transport_(transport) {
  transport_->RegisterReceiver(WaitForReporter::kReportPort,
                               [this](net::NodeId src, uint32_t, const net::PayloadPtr& p) {
                                 OnReport(src, p);
                               });
}

void DeadlockMonitor::OnReport(net::NodeId reporter, const net::PayloadPtr& payload) {
  const auto* report = net::PayloadCast<ReportMsg>(payload);
  assert(report != nullptr);
  auto& [seq, edges] = latest_[reporter];
  if (report->seq() <= seq) {
    return;  // stale or duplicate
  }
  seq = report->seq();
  edges = report->edges();
  Rebuild();
  if (auto cycle = graph_.FindCycle()) {
    ++detections_;
    if (handler_) {
      handler_(*cycle);
    }
  }
}

void DeadlockMonitor::Rebuild() {
  graph_.Clear();
  for (const auto& [reporter, state] : latest_) {
    for (const auto& [waiter, holder] : state.second) {
      graph_.AddEdge(waiter, holder);
    }
  }
}

}  // namespace txn
