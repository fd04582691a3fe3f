#include "src/net/transport.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "src/mem/pool.h"

namespace net {

namespace {

// Network-level ports used internally by the transport.
constexpr uint32_t kRawPort = 0xFFFF0001;
constexpr uint32_t kDataPort = 0xFFFF0002;
constexpr uint32_t kAckPort = 0xFFFF0003;

// Wraps an application payload with transport metadata.
class SegmentPayload : public Payload {
 public:
  SegmentPayload(uint64_t seq, uint32_t app_port, PayloadPtr inner)
      : seq_(seq), app_port_(app_port), inner_(std::move(inner)) {}

  size_t SizeBytes() const override { return inner_->SizeBytes(); }
  std::string Describe() const override { return "seg:" + inner_->Describe(); }

  uint64_t seq() const { return seq_; }
  uint32_t app_port() const { return app_port_; }
  const PayloadPtr& inner() const { return inner_; }

 private:
  uint64_t seq_;
  uint32_t app_port_;
  PayloadPtr inner_;
};

// Raw (unreliable) wrapper: just carries the application port.
class RawPayload : public Payload {
 public:
  RawPayload(uint32_t app_port, PayloadPtr inner) : app_port_(app_port), inner_(std::move(inner)) {}

  size_t SizeBytes() const override { return inner_->SizeBytes(); }
  std::string Describe() const override { return inner_->Describe(); }

  uint32_t app_port() const { return app_port_; }
  const PayloadPtr& inner() const { return inner_; }

 private:
  uint32_t app_port_;
  PayloadPtr inner_;
};

class AckPayload : public Payload {
 public:
  explicit AckPayload(uint64_t cumulative) : cumulative_(cumulative) {}

  size_t SizeBytes() const override { return 0; }
  std::string Describe() const override { return "ack"; }

  uint64_t cumulative() const { return cumulative_; }

 private:
  uint64_t cumulative_;
};

// Only the transport itself sends on its internal ports, so a packet's port
// fixes its payload type; checked in debug builds, trusted in release.
template <typename T>
const T& PortPayload(const Packet& packet) {
  assert(dynamic_cast<const T*>(packet.payload.get()) != nullptr);
  return static_cast<const T&>(*packet.payload);
}

}  // namespace

Transport::Transport(sim::Simulator* simulator, Network* network, NodeId node,
                     TransportConfig config)
    : simulator_(simulator), network_(network), node_(node), config_(config) {
  network_->Attach(node_);
  network_->RegisterHandler(node_, kRawPort, [this](const Packet& p) {
    const auto& raw = PortPayload<RawPayload>(p);
    DeliverUp(p.src, raw.app_port(), raw.inner());
  });
  network_->RegisterHandler(node_, kDataPort, [this](const Packet& p) { OnData(p); });
  network_->RegisterHandler(node_, kAckPort, [this](const Packet& p) { OnAck(p); });
  retransmit_timer_ = std::make_unique<sim::PeriodicTimer>(
      simulator_, kRetransmitScanPeriod, [this] { ScanRetransmits(); });
}

Transport::~Transport() = default;

void Transport::RegisterReceiver(uint32_t app_port, ReceiveFn fn) {
  receivers_[app_port] = std::move(fn);
}

void Transport::SendUnreliable(NodeId dst, uint32_t app_port, PayloadPtr payload) {
  network_->Send(node_, dst, kRawPort, mem::MakePooled<RawPayload>(app_port, std::move(payload)),
                 /*header_bytes=*/4);
}

void Transport::SendReliable(NodeId dst, uint32_t app_port, PayloadPtr payload) {
  PeerSender& sender = senders_[dst];
  const uint32_t index = AllocSegment();
  PendingSegment& segment = segments_[index];
  segment = PendingSegment{sender.next_seq++, app_port, std::move(payload), simulator_->now()};
  queued_bytes_ += segment.payload->SizeBytes() + kDataHeaderBytes;
  ++queued_segments_;
  peak_queued_segments_ = std::max(peak_queued_segments_, queued_segments_);
  TransmitSegment(dst, segment);
  if (sender.tail == kNoSegment) {
    sender.head = index;
  } else {
    segments_[sender.tail].next = index;
  }
  sender.tail = index;
  if (!retransmit_timer_->running()) {
    retransmit_timer_->Start(kRetransmitScanPeriod);
  }
}

uint32_t Transport::AllocSegment() {
  if (free_segments_ == kNoSegment) {
    segments_.emplace_back();
    return static_cast<uint32_t>(segments_.size() - 1);
  }
  const uint32_t index = free_segments_;
  free_segments_ = segments_[index].next;
  return index;
}

void Transport::ReleaseSegment(uint32_t index) {
  PendingSegment& segment = segments_[index];
  queued_bytes_ -= segment.payload->SizeBytes() + kDataHeaderBytes;
  --queued_segments_;
  segment.payload.reset();
  segment.next = free_segments_;
  free_segments_ = index;
}

void Transport::ResetPeerState() {
  senders_.clear();
  // Release the storage too, not just the contents: a crashed node's
  // transport may sit idle for the rest of the run.
  segments_ = std::vector<PendingSegment>();
  free_segments_ = kNoSegment;
  receiver_index_ = std::vector<uint32_t>();
  peer_receivers_ = std::vector<PeerReceiver>();
  queued_segments_ = 0;
  queued_bytes_ = 0;
  retransmit_timer_->Stop();
}

void Transport::TransmitSegment(NodeId dst, const PendingSegment& segment) {
  ++segments_sent_;
  network_->Send(node_, dst, kDataPort,
                 mem::MakePooled<SegmentPayload>(segment.seq, segment.app_port, segment.payload),
                 kDataHeaderBytes);
}

void Transport::SendAck(NodeId dst, uint64_t cumulative) {
  ++acks_sent_;
  network_->Send(node_, dst, kAckPort, mem::MakePooled<AckPayload>(cumulative),
                 kAckHeaderBytes);
}

void Transport::OnData(const Packet& packet) {
  const auto& segment = PortPayload<SegmentPayload>(packet);
  PeerReceiver& receiver = ReceiverFor(packet.src);
  const uint64_t seq = segment.seq();
  if (seq == receiver.next_expected) {
    // In order: deliver without touching the reorder buffer, then drain
    // whatever this arrival made contiguous.
    DeliverUp(packet.src, segment.app_port(), segment.inner());
    ++receiver.next_expected;
    auto it = receiver.buffered.begin();
    while (it != receiver.buffered.end() && it->first == receiver.next_expected) {
      DeliverUp(packet.src, it->second.first, it->second.second);
      ++receiver.next_expected;
      it = receiver.buffered.erase(it);
    }
  } else if (seq > receiver.next_expected) {
    receiver.buffered.emplace(seq, std::make_pair(segment.app_port(), segment.inner()));
  }
  // Cumulative ack for everything contiguously received (covers duplicates
  // and out-of-order arrivals alike).
  SendAck(packet.src, receiver.next_expected - 1);
}

Transport::PeerReceiver& Transport::ReceiverFor(NodeId src) {
  if (src >= receiver_index_.size()) {
    receiver_index_.resize(src + 1, 0);
  }
  uint32_t& index = receiver_index_[src];
  if (index == 0) {
    peer_receivers_.emplace_back();
    index = static_cast<uint32_t>(peer_receivers_.size());
  }
  return peer_receivers_[index - 1];
}

void Transport::OnAck(const Packet& packet) {
  const uint64_t cumulative = PortPayload<AckPayload>(packet).cumulative();
  auto it = senders_.find(packet.src);
  if (it == senders_.end()) {
    return;
  }
  // The queue is in seq order, so the acked segments are exactly its prefix.
  PeerSender& sender = it->second;
  while (sender.head != kNoSegment && segments_[sender.head].seq <= cumulative) {
    const uint32_t acked = sender.head;
    sender.head = segments_[acked].next;
    ReleaseSegment(acked);
  }
  if (sender.head == kNoSegment) {
    sender.tail = kNoSegment;
  }
}

void Transport::DropQueue(PeerSender& sender) {
  for (uint32_t index = sender.head; index != kNoSegment;) {
    const uint32_t next = segments_[index].next;
    ReleaseSegment(index);
    index = next;
  }
  sender.head = kNoSegment;
  sender.tail = kNoSegment;
}

void Transport::ScanRetransmits() {
  const sim::TimePoint now = simulator_->now();
  std::vector<NodeId> failed;
  for (auto& [dst, sender] : senders_) {
    for (uint32_t index = sender.head; index != kNoSegment; index = segments_[index].next) {
      PendingSegment& segment = segments_[index];
      if (now - segment.last_sent < config_.retransmit_timeout) {
        continue;
      }
      if (segment.retries >= config_.max_retries) {
        // Give up on the peer. FIFO forbids delivering past the gap this
        // segment would leave, so the entire queue goes with it — upper
        // layers see one ordered failure, not a silent mid-stream hole.
        DropQueue(sender);
        failed.push_back(dst);
        break;
      }
      ++segment.retries;
      ++retransmissions_;
      segment.last_sent = now;
      TransmitSegment(dst, segment);
    }
  }
  if (queued_segments_ == 0) {
    retransmit_timer_->Stop();
  }
  // Notify outside the scan loop: a handler may send (mutating senders_).
  for (NodeId dst : failed) {
    ++peer_failures_;
    if (on_peer_failure_) {
      on_peer_failure_(dst);
    }
  }
}

void Transport::DeliverUp(NodeId src, uint32_t app_port, const PayloadPtr& payload) {
  auto it = receivers_.find(app_port);
  if (it != receivers_.end()) {
    it->second(src, app_port, payload);
  }
}

}  // namespace net
