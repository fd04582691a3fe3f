#include "src/net/network.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace net {

Network::Network(sim::Simulator* simulator, std::unique_ptr<LatencyModel> latency,
                 NetworkConfig config)
    : simulator_(simulator), latency_(std::move(latency)), config_(config) {
  assert(latency_ != nullptr);
}

void Network::Attach(NodeId node) {
  if (node >= endpoints_.size()) {
    endpoints_.resize(node + 1);
  }
  endpoints_[node].attached = true;
}

void Network::RegisterHandler(NodeId node, uint32_t port, PacketHandler handler) {
  Attach(node);
  auto& handlers = endpoints_[node].handlers;
  auto it = std::lower_bound(handlers.begin(), handlers.end(), port,
                             [](const auto& entry, uint32_t p) { return entry.first < p; });
  if (it != handlers.end() && it->first == port) {
    it->second = std::move(handler);
  } else {
    handlers.insert(it, {port, std::move(handler)});
  }
}

void Network::SetNodeUp(NodeId node, bool up) {
  Attach(node);
  endpoints_[node].up = up;
}

const PacketHandler* Network::FindHandler(const Endpoint& endpoint, uint32_t port) const {
  auto it = std::lower_bound(endpoint.handlers.begin(), endpoint.handlers.end(), port,
                             [](const auto& entry, uint32_t p) { return entry.first < p; });
  if (it == endpoint.handlers.end() || it->first != port) {
    return nullptr;
  }
  return &it->second;
}

bool Network::Send(NodeId src, NodeId dst, uint32_t port, PayloadPtr payload,
                   size_t header_bytes) {
  assert(payload != nullptr);
  if (!IsNodeUp(src)) {
    return false;
  }
  const size_t total_header = header_bytes + kBaseHeaderBytes;
  ++packets_sent_;
  header_bytes_sent_ += total_header;
  const size_t payload_bytes = payload->SizeBytes();
  payload_bytes_sent_ += payload_bytes;
  bytes_sent_ += total_header + payload_bytes;

  Packet packet{src, dst, port, std::move(payload), header_bytes, next_packet_id_++};

  if (!Reachable(src, dst) || simulator_->rng().NextBool(config_.drop_probability)) {
    ++packets_dropped_;
    return true;
  }
  const sim::Duration delay = SampleScaledDelay(src, dst);
  if (simulator_->rng().NextBool(config_.duplicate_probability)) {
    const sim::Duration dup_delay = SampleScaledDelay(src, dst);
    Deliver(packet, dup_delay);
  }
  Deliver(std::move(packet), delay);
  return true;
}

sim::Duration Network::SampleScaledDelay(NodeId src, NodeId dst) {
  sim::Duration delay = latency_->SampleDelay(src, dst, simulator_->rng());
  double scale = latency_scale_;
  if (inbound_scaled_count_ > 0) {
    scale *= node_inbound_scale(dst);
  }
  if (scale != 1.0) {
    delay =
        sim::Duration::Nanos(static_cast<int64_t>(static_cast<double>(delay.nanos()) * scale));
  }
  return delay;
}

void Network::Multicast(NodeId src, const std::vector<NodeId>& dsts, uint32_t port,
                        PayloadPtr payload, size_t header_bytes) {
  for (NodeId dst : dsts) {
    if (dst == src) {
      continue;
    }
    Send(src, dst, port, payload, header_bytes);
  }
}

void Network::set_node_inbound_scale(NodeId node, double scale) {
  if (node >= inbound_scale_.size()) {
    if (scale == 1.0) {
      return;
    }
    inbound_scale_.resize(node + 1, 1.0);
  }
  const bool was_scaled = inbound_scale_[node] != 1.0;
  const bool now_scaled = scale != 1.0;
  inbound_scale_[node] = scale;
  if (was_scaled != now_scaled) {
    inbound_scaled_count_ += now_scaled ? 1 : -1;
  }
}

void Network::Partition(const std::vector<std::set<NodeId>>& components) {
  partition_id_.assign(partition_id_.size(), SIZE_MAX);
  for (size_t i = 0; i < components.size(); ++i) {
    for (NodeId node : components[i]) {
      if (node >= partition_id_.size()) {
        partition_id_.resize(node + 1, SIZE_MAX);
      }
      partition_id_[node] = i;
    }
  }
  partition_active_ = !components.empty();
}

void Network::HealPartition() {
  partition_id_.assign(partition_id_.size(), SIZE_MAX);
  partition_active_ = false;
}

void Network::Deliver(Packet packet, sim::Duration delay) {
  simulator_->ScheduleAfter(delay, [this, packet = std::move(packet)] {
    if (!IsNodeUp(packet.dst)) {
      ++packets_dropped_;
      return;
    }
    // Partitions apply at delivery time too: a packet in flight when the
    // partition forms is lost, like a cable cut.
    if (!Reachable(packet.src, packet.dst)) {
      ++packets_dropped_;
      return;
    }
    const PacketHandler* handler = FindHandler(endpoints_[packet.dst], packet.port);
    if (handler == nullptr) {
      ++packets_dropped_;
      return;
    }
    ++packets_delivered_;
    (*handler)(packet);
  });
}

}  // namespace net
