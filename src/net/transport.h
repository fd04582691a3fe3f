// Reliable FIFO unicast transport built on the unreliable network.
//
// This is the "conventional transport protocol" the paper repeatedly appeals
// to: per-destination sequence numbers, cumulative acknowledgments,
// timeout-driven retransmission and duplicate suppression give reliable,
// sender-ordered delivery between each pair of nodes — and nothing more.
// CATOCS and the state-level alternatives are both layered on top of this.
//
// Layout. Unacked segments live in one transport-wide slab; each peer's send
// queue is a singly linked FIFO through it in seq order (head/tail slab
// indices), so a cumulative ack pops from the front and the retransmit scan
// walks each queue in order, with no container per peer. Receive state is
// kept only for peers that have sent here, in a dense vector reached through
// a 4-byte index per source node id (a tree overlay parent hears from a few
// high-id children, so a full record per id would cost 56 bytes for each
// id it never hears from). An arrival carrying exactly the next expected
// seq is delivered straight away; only a segment that arrives ahead of a
// gap is parked in the peer's ordered reorder buffer, which drains as soon
// as the gap fills. The per-peer send table stays a hash map
// on purpose: the retransmit scan visits peers in its iteration order, and
// that order decides which retransmission draws from the shared simulator
// RNG first, so changing it would change every lossy run.

#ifndef REPRO_SRC_NET_TRANSPORT_H_
#define REPRO_SRC_NET_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/net/network.h"
#include "src/sim/simulator.h"

namespace net {

// Application-level receive callback: (source node, application port,
// payload).
using ReceiveFn = std::function<void(NodeId, uint32_t, const PayloadPtr&)>;

struct TransportConfig {
  // An unacked segment is retransmitted every retransmit_timeout (a fixed
  // interval) until it is acked or has been retransmitted max_retries times.
  // After that the sender gives up on the peer: the whole per-peer queue is
  // dropped (FIFO forbids skipping the gap) and the failure handler, if set,
  // is told the peer is presumed dead.
  sim::Duration retransmit_timeout = sim::Duration::Millis(20);
  int max_retries = 50;
};

// How often the sender looks for segments due a retransmission.
inline constexpr sim::Duration kRetransmitScanPeriod = sim::Duration::Millis(5);
// Wire overhead charged per data segment / ack.
inline constexpr size_t kDataHeaderBytes = 16;
inline constexpr size_t kAckHeaderBytes = 12;

class Transport {
 public:
  Transport(sim::Simulator* simulator, Network* network, NodeId node,
            TransportConfig config = {});
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  NodeId node() const { return node_; }

  // At most one receiver per application port.
  void RegisterReceiver(uint32_t app_port, ReceiveFn fn);

  // Called when retransmission to a peer is abandoned (a segment exceeded
  // max_retries). Everything still queued for that peer has already been
  // dropped together — an ordered failure, never a silent mid-stream hole.
  using FailureFn = std::function<void(NodeId)>;
  void SetFailureHandler(FailureFn fn) { on_peer_failure_ = std::move(fn); }

  // Fire-and-forget datagram: may be lost, duplicated, or reordered.
  void SendUnreliable(NodeId dst, uint32_t app_port, PayloadPtr payload);

  // Reliable, FIFO-per-destination delivery.
  void SendReliable(NodeId dst, uint32_t app_port, PayloadPtr payload);

  // Drops all in-flight reliable state (used when a process crashes: an
  // amnesiac restart must not resume old sequence numbers).
  void ResetPeerState();

  uint64_t retransmissions() const { return retransmissions_; }
  uint64_t segments_sent() const { return segments_sent_; }
  uint64_t acks_sent() const { return acks_sent_; }
  uint64_t peer_failures() const { return peer_failures_; }

  // Unacked send-queue occupancy across all peers (payload + data header per
  // segment) — the transport's charge against a group resource budget.
  size_t queued_segments() const { return queued_segments_; }
  size_t queued_bytes() const { return queued_bytes_; }
  size_t peak_queued_segments() const { return peak_queued_segments_; }

 private:
  static constexpr uint32_t kNoSegment = UINT32_MAX;

  struct PendingSegment {
    uint64_t seq;
    uint32_t app_port;
    PayloadPtr payload;
    sim::TimePoint last_sent;
    int retries = 0;
    // Next segment in the same peer's queue, or in the free list.
    uint32_t next = kNoSegment;
  };
  struct PeerSender {
    uint64_t next_seq = 1;
    // Unacked segments in seq order, linked through segments_.
    uint32_t head = kNoSegment;
    uint32_t tail = kNoSegment;
  };
  struct PeerReceiver {
    uint64_t next_expected = 1;
    // Out-of-order segments waiting for the gap to fill.
    std::map<uint64_t, std::pair<uint32_t, PayloadPtr>> buffered;
  };

  void OnData(const Packet& packet);
  void OnAck(const Packet& packet);
  void TransmitSegment(NodeId dst, const PendingSegment& segment);
  void SendAck(NodeId dst, uint64_t cumulative);
  void ScanRetransmits();
  // Frees a peer's whole queue (give-up), discharging every segment.
  void DropQueue(PeerSender& sender);
  uint32_t AllocSegment();
  // Discharges the segment's occupancy and returns it to the free list.
  void ReleaseSegment(uint32_t index);
  void DeliverUp(NodeId src, uint32_t app_port, const PayloadPtr& payload);
  PeerReceiver& ReceiverFor(NodeId src);

  sim::Simulator* simulator_;
  Network* network_;
  NodeId node_;
  TransportConfig config_;
  std::unordered_map<uint32_t, ReceiveFn> receivers_;
  FailureFn on_peer_failure_;
  std::unordered_map<NodeId, PeerSender> senders_;
  std::vector<PendingSegment> segments_;  // slab shared by every peer queue
  uint32_t free_segments_ = kNoSegment;
  // Source node id -> 1 + position in peer_receivers_, or 0 if that node
  // has never sent here.
  std::vector<uint32_t> receiver_index_;
  std::vector<PeerReceiver> peer_receivers_;
  std::unique_ptr<sim::PeriodicTimer> retransmit_timer_;

  uint64_t retransmissions_ = 0;
  uint64_t segments_sent_ = 0;
  uint64_t acks_sent_ = 0;
  uint64_t peer_failures_ = 0;
  size_t queued_segments_ = 0;
  size_t queued_bytes_ = 0;
  size_t peak_queued_segments_ = 0;
};

}  // namespace net

#endif  // REPRO_SRC_NET_TRANSPORT_H_
