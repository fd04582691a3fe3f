// Chandy–Lamport consistent snapshots at the state level (§4.2).
//
// The paper argues global predicate evaluation does not justify CATOCS on
// every message: a marker-based snapshot over plain FIFO channels captures a
// consistent cut with cost proportional to the snapshot, not to the traffic.
// SnapshotNode wraps a node's application messaging so channel contents can
// be recorded, and implements the marker algorithm; SnapshotCollector
// assembles the global cut.
//
// Correctness relies on per-channel FIFO between markers and application
// messages, which net::Transport provides (single sequence space per peer).

#ifndef REPRO_SRC_STATELEVEL_SNAPSHOT_H_
#define REPRO_SRC_STATELEVEL_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "src/net/transport.h"

namespace statelv {

// One node's contribution to a snapshot: its state at the cut plus the
// messages recorded in flight on each incoming channel.
struct LocalSnapshot {
  uint64_t snapshot_id = 0;
  net::NodeId node = 0;
  int64_t state = 0;
  std::map<net::NodeId, std::vector<net::PayloadPtr>> channel_messages;
};

class SnapshotNode {
 public:
  static constexpr uint32_t kAppPort = 0x51AA0001;
  static constexpr uint32_t kMarkerPort = 0x51AA0002;
  static constexpr uint32_t kReportPort = 0x51AA0003;

  using AppHandler = std::function<void(net::NodeId src, const net::PayloadPtr&)>;
  // Captures this node's local state at the snapshot instant.
  using StateCapture = std::function<int64_t()>;
  using CompleteHandler = std::function<void(const LocalSnapshot&)>;

  SnapshotNode(sim::Simulator* simulator, net::Transport* transport,
               std::vector<net::NodeId> peers, StateCapture capture, AppHandler app_handler);

  // Application traffic must flow through here so in-flight messages can be
  // recorded against the cut.
  void SendApp(net::NodeId dst, net::PayloadPtr payload);

  // Starts a snapshot from this node. Ids must be fresh and increasing.
  void Initiate(uint64_t snapshot_id);

  // Fires when markers have arrived on all incoming channels.
  void SetCompleteHandler(CompleteHandler handler) { complete_handler_ = std::move(handler); }

  uint64_t markers_sent() const { return markers_sent_; }

 private:
  struct InProgress {
    LocalSnapshot snapshot;
    std::set<net::NodeId> awaiting_marker;  // channels still being recorded
  };

  void OnApp(net::NodeId src, const net::PayloadPtr& payload);
  void OnMarker(net::NodeId src, const net::PayloadPtr& payload);
  void BeginLocal(uint64_t snapshot_id);
  void MaybeComplete(uint64_t snapshot_id);

  sim::Simulator* simulator_;
  net::Transport* transport_;
  std::vector<net::NodeId> peers_;
  StateCapture capture_;
  AppHandler app_handler_;
  CompleteHandler complete_handler_;
  std::map<uint64_t, InProgress> active_;
  std::set<uint64_t> finished_;
  uint64_t markers_sent_ = 0;
};

// Gathers local snapshots from all nodes (over the transport) and invokes a
// handler with the assembled global cut.
class SnapshotCollector {
 public:
  using GlobalHandler = std::function<void(const std::vector<LocalSnapshot>&)>;

  SnapshotCollector(net::Transport* transport, size_t expected_nodes, GlobalHandler handler);

  // Nodes call this (any node -> collector's transport node id) by sending
  // their LocalSnapshot; helper to send from a SnapshotNode's completion.
  static void Report(net::Transport* transport, net::NodeId collector,
                     const LocalSnapshot& snapshot);

 private:
  size_t expected_nodes_;
  GlobalHandler handler_;
  std::map<uint64_t, std::vector<LocalSnapshot>> partial_;
};

}  // namespace statelv

#endif  // REPRO_SRC_STATELEVEL_SNAPSHOT_H_
