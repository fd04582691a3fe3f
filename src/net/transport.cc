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

}  // namespace

Transport::Transport(sim::Simulator* simulator, Network* network, NodeId node,
                     TransportConfig config)
    : simulator_(simulator), network_(network), node_(node), config_(config) {
  network_->Attach(node_);
  network_->RegisterHandler(node_, kRawPort, [this](const Packet& p) {
    const auto* raw = PayloadCast<RawPayload>(p.payload);
    assert(raw != nullptr);
    DeliverUp(p.src, raw->app_port(), raw->inner());
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
  PendingSegment segment{sender.next_seq++, app_port, std::move(payload), simulator_->now(), 0};
  queued_bytes_ += segment.payload->SizeBytes() + kDataHeaderBytes;
  ++queued_segments_;
  peak_queued_segments_ = std::max(peak_queued_segments_, queued_segments_);
  TransmitSegment(dst, segment);
  sender.unacked.emplace(segment.seq, std::move(segment));
  if (!retransmit_timer_->running()) {
    retransmit_timer_->Start(kRetransmitScanPeriod);
  }
}

void Transport::ResetPeerState() {
  senders_.clear();
  peer_receivers_.clear();
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
  const auto* segment = PayloadCast<SegmentPayload>(packet.payload);
  assert(segment != nullptr);
  PeerReceiver& receiver = peer_receivers_[packet.src];
  const uint64_t seq = segment->seq();
  if (seq >= receiver.next_expected) {
    receiver.buffered.emplace(seq, std::make_pair(segment->app_port(), segment->inner()));
    // Drain the contiguous prefix.
    auto it = receiver.buffered.begin();
    while (it != receiver.buffered.end() && it->first == receiver.next_expected) {
      DeliverUp(packet.src, it->second.first, it->second.second);
      ++receiver.next_expected;
      it = receiver.buffered.erase(it);
    }
  }
  // Cumulative ack for everything contiguously received (covers duplicates
  // and out-of-order arrivals alike).
  SendAck(packet.src, receiver.next_expected - 1);
}

void Transport::OnAck(const Packet& packet) {
  const auto* ack = PayloadCast<AckPayload>(packet.payload);
  assert(ack != nullptr);
  auto it = senders_.find(packet.src);
  if (it == senders_.end()) {
    return;
  }
  auto& unacked = it->second.unacked;
  const auto acked_end = unacked.upper_bound(ack->cumulative());
  for (auto seg = unacked.begin(); seg != acked_end; ++seg) {
    Discharge(seg->second);
  }
  unacked.erase(unacked.begin(), acked_end);
}

void Transport::ScanRetransmits() {
  const sim::TimePoint now = simulator_->now();
  std::vector<NodeId> failed;
  for (auto& [dst, sender] : senders_) {
    for (auto it = sender.unacked.begin(); it != sender.unacked.end(); ++it) {
      PendingSegment& segment = it->second;
      if (now - segment.last_sent < config_.retransmit_timeout) {
        continue;
      }
      if (segment.retries >= config_.max_retries) {
        // Give up on the peer. FIFO forbids delivering past the gap this
        // segment would leave, so the entire queue goes with it — upper
        // layers see one ordered failure, not a silent mid-stream hole.
        for (const auto& [seq, queued] : sender.unacked) {
          Discharge(queued);
        }
        sender.unacked.clear();
        failed.push_back(dst);
        break;
      }
      ++segment.retries;
      ++retransmissions_;
      segment.last_sent = now;
      TransmitSegment(dst, segment);
    }
  }
  bool any_pending = false;
  for (const auto& [dst, sender] : senders_) {
    any_pending = any_pending || !sender.unacked.empty();
  }
  if (!any_pending) {
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
