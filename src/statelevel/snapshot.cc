#include "src/statelevel/snapshot.h"

#include <cassert>
#include <utility>

namespace statelv {

namespace {

class MarkerPayload : public net::Payload {
 public:
  explicit MarkerPayload(uint64_t snapshot_id) : snapshot_id_(snapshot_id) {}
  size_t SizeBytes() const override { return 8; }
  std::string Describe() const override { return "marker"; }
  uint64_t snapshot_id() const { return snapshot_id_; }

 private:
  uint64_t snapshot_id_;
};

class ReportPayload : public net::Payload {
 public:
  explicit ReportPayload(LocalSnapshot snapshot) : snapshot_(std::move(snapshot)) {}
  size_t SizeBytes() const override {
    size_t total = 16;
    for (const auto& [channel, msgs] : snapshot_.channel_messages) {
      for (const auto& m : msgs) {
        total += m->SizeBytes();
      }
    }
    return total;
  }
  std::string Describe() const override { return "snapshot-report"; }
  const LocalSnapshot& snapshot() const { return snapshot_; }

 private:
  LocalSnapshot snapshot_;
};

}  // namespace

SnapshotNode::SnapshotNode(sim::Simulator* simulator, net::Transport* transport,
                           std::vector<net::NodeId> peers, StateCapture capture,
                           AppHandler app_handler)
    : simulator_(simulator),
      transport_(transport),
      peers_(std::move(peers)),
      capture_(std::move(capture)),
      app_handler_(std::move(app_handler)) {
  transport_->RegisterReceiver(
      kAppPort, [this](net::NodeId src, uint32_t, const net::PayloadPtr& p) { OnApp(src, p); });
  transport_->RegisterReceiver(kMarkerPort,
                               [this](net::NodeId src, uint32_t, const net::PayloadPtr& p) {
                                 OnMarker(src, p);
                               });
}

void SnapshotNode::SendApp(net::NodeId dst, net::PayloadPtr payload) {
  transport_->SendReliable(dst, kAppPort, std::move(payload));
}

void SnapshotNode::Initiate(uint64_t snapshot_id) { BeginLocal(snapshot_id); }

void SnapshotNode::BeginLocal(uint64_t snapshot_id) {
  if (active_.count(snapshot_id) || finished_.count(snapshot_id)) {
    return;
  }
  InProgress progress;
  progress.snapshot.snapshot_id = snapshot_id;
  progress.snapshot.node = transport_->node();
  progress.snapshot.state = capture_();
  for (net::NodeId peer : peers_) {
    if (peer != transport_->node()) {
      progress.awaiting_marker.insert(peer);
      progress.snapshot.channel_messages[peer];  // start recording (empty)
    }
  }
  active_.emplace(snapshot_id, std::move(progress));
  // Markers go out on every outgoing channel, FIFO with app traffic.
  auto marker = std::make_shared<MarkerPayload>(snapshot_id);
  for (net::NodeId peer : peers_) {
    if (peer != transport_->node()) {
      ++markers_sent_;
      transport_->SendReliable(peer, kMarkerPort, marker);
    }
  }
  MaybeComplete(snapshot_id);
}

void SnapshotNode::OnApp(net::NodeId src, const net::PayloadPtr& payload) {
  // Record the message against every snapshot still recording this channel.
  for (auto& [id, progress] : active_) {
    if (progress.awaiting_marker.count(src)) {
      progress.snapshot.channel_messages[src].push_back(payload);
    }
  }
  if (app_handler_) {
    app_handler_(src, payload);
  }
}

void SnapshotNode::OnMarker(net::NodeId src, const net::PayloadPtr& payload) {
  const auto* marker = net::PayloadCast<MarkerPayload>(payload);
  assert(marker != nullptr);
  const uint64_t id = marker->snapshot_id();
  if (finished_.count(id)) {
    return;
  }
  auto it = active_.find(id);
  if (it == active_.end()) {
    // First marker seen: take the local snapshot now. The channel the marker
    // arrived on records nothing (everything before the marker belongs to
    // the sender's pre-snapshot history).
    BeginLocal(id);
    it = active_.find(id);
  }
  it->second.awaiting_marker.erase(src);
  MaybeComplete(id);
}

void SnapshotNode::MaybeComplete(uint64_t snapshot_id) {
  auto it = active_.find(snapshot_id);
  if (it == active_.end() || !it->second.awaiting_marker.empty()) {
    return;
  }
  LocalSnapshot done = std::move(it->second.snapshot);
  active_.erase(it);
  finished_.insert(snapshot_id);
  if (complete_handler_) {
    complete_handler_(done);
  }
}

SnapshotCollector::SnapshotCollector(net::Transport* transport, size_t expected_nodes,
                                     GlobalHandler handler)
    : expected_nodes_(expected_nodes), handler_(std::move(handler)) {
  transport->RegisterReceiver(SnapshotNode::kReportPort,
                              [this](net::NodeId, uint32_t, const net::PayloadPtr& p) {
                                const auto* report = net::PayloadCast<ReportPayload>(p);
                                if (report == nullptr) {
                                  return;
                                }
                                auto& bucket = partial_[report->snapshot().snapshot_id];
                                bucket.push_back(report->snapshot());
                                if (bucket.size() == expected_nodes_ && handler_) {
                                  handler_(bucket);
                                }
                              });
}

void SnapshotCollector::Report(net::Transport* transport, net::NodeId collector,
                               const LocalSnapshot& snapshot) {
  if (transport->node() == collector) {
    // Local shortcut still goes through the wire for uniform accounting.
  }
  transport->SendReliable(collector, SnapshotNode::kReportPort,
                          std::make_shared<ReportPayload>(snapshot));
}

}  // namespace statelv
