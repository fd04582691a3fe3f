// The simulated network: an unreliable, unordered datagram service.
//
// Packets are delayed per the latency model, dropped with a configurable
// probability, optionally duplicated, and blocked across partitions. There is
// no implicit FIFO guarantee between a pair of nodes — exactly the
// environment that makes ordering protocols non-trivial. Reliability and
// ordering are built above this in transport.h.
//
// Node ids are small dense integers (fabrics hand them out sequentially, and
// rejoining incarnations take the next id), so every per-node table here is a
// flat id-indexed vector rather than a hash map: Send and Deliver are on the
// per-packet hot path and at N=10k the map lookups dominated the routing
// cost. Port handlers per node are few (one per protocol layer), so they live
// in a small sorted vector searched by binary search.

#ifndef REPRO_SRC_NET_NETWORK_H_
#define REPRO_SRC_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/net/latency.h"
#include "src/net/payload.h"
#include "src/sim/simulator.h"

namespace net {

// A packet as seen by a receiving endpoint.
struct Packet {
  NodeId src = 0;
  NodeId dst = 0;
  uint32_t port = 0;          // demultiplexes protocols within a node
  PayloadPtr payload;
  size_t header_bytes = 0;    // protocol header bytes carried by this packet
  uint64_t packet_id = 0;     // unique per transmission (duplicates share it)
};

using PacketHandler = std::function<void(const Packet&)>;

struct NetworkConfig {
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
};

// Base IP/UDP-style header charged on every packet in addition to protocol
// headers.
inline constexpr size_t kBaseHeaderBytes = 28;

class Network {
 public:
  Network(sim::Simulator* simulator, std::unique_ptr<LatencyModel> latency,
          NetworkConfig config = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // A node must attach before it can send or receive. One handler per
  // (node, port).
  void Attach(NodeId node);
  void RegisterHandler(NodeId node, uint32_t port, PacketHandler handler);

  // Nodes that are down neither send nor receive; packets in flight to a
  // down node are dropped at delivery time.
  void SetNodeUp(NodeId node, bool up);
  bool IsNodeUp(NodeId node) const {
    return node < endpoints_.size() && endpoints_[node].attached && endpoints_[node].up;
  }

  // Sends one datagram. Returns false if it was refused (src down) —
  // dropped-in-flight packets still return true, as the sender cannot tell.
  bool Send(NodeId src, NodeId dst, uint32_t port, PayloadPtr payload, size_t header_bytes = 0);

  // Sends the same payload to every destination; per-destination independent
  // delays (an IP-multicast-like fanout).
  void Multicast(NodeId src, const std::vector<NodeId>& dsts, uint32_t port, PayloadPtr payload,
                 size_t header_bytes = 0);

  // --- Partitions -----------------------------------------------------------
  // Packets between nodes in different components are silently dropped.
  // An empty partition list means fully connected.
  //
  // In-flight semantics: reachability is checked twice, at send time and at
  // delivery time, and a packet must pass both checks *at those instants*.
  //   - Sent before Partition(), delivery falls inside it: DROPPED — forming
  //     a partition cuts the cable under packets already in flight.
  //   - Sent while partitioned: dropped immediately at send time, so a later
  //     HealPartition() never resurrects it, even if the heal lands before
  //     the packet's would-have-been delivery time.
  //   - Sent before Partition(), healed before the delivery instant: the
  //     transient partition is invisible and the packet is DELIVERED (the
  //     model has no memory of reachability between the two checks).
  void Partition(const std::vector<std::set<NodeId>>& components);
  void HealPartition();

  // --- Introspection --------------------------------------------------------
  // True when src can currently reach dst: both attached and up, and in the
  // same partition component (see the in-flight semantics above for how this
  // instant-check composes with packet delays).
  bool Reachable(NodeId src, NodeId dst) const {
    if (!partition_active_) {
      return true;
    }
    return ComponentOf(src) == ComponentOf(dst);
  }

  uint64_t packets_sent() const { return packets_sent_; }
  uint64_t packets_delivered() const { return packets_delivered_; }
  uint64_t packets_dropped() const { return packets_dropped_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t header_bytes_sent() const { return header_bytes_sent_; }
  uint64_t payload_bytes_sent() const { return payload_bytes_sent_; }

  void set_drop_probability(double p) { config_.drop_probability = p; }
  void set_duplicate_probability(double p) { config_.duplicate_probability = p; }
  double drop_probability() const { return config_.drop_probability; }
  double duplicate_probability() const { return config_.duplicate_probability; }
  // Multiplies every subsequently sampled delay — >1.0 models a congestion /
  // latency spike. Packets already in flight keep their original delay.
  void set_latency_scale(double scale) { latency_scale_ = scale; }
  double latency_scale() const { return latency_scale_; }
  // Per-destination inbound multiplier on top of the global scale — a slow
  // receiver draining its socket late, without slowing anyone else. 1.0
  // (and an absent entry) = normal.
  void set_node_inbound_scale(NodeId node, double scale);
  double node_inbound_scale(NodeId node) const {
    return node < inbound_scale_.size() ? inbound_scale_[node] : 1.0;
  }
  sim::Simulator& simulator() { return *simulator_; }

 private:
  struct Endpoint {
    bool attached = false;
    bool up = true;
    // Sorted by port; a node registers one handler per protocol layer, so
    // binary search over a handful of entries beats any hash.
    std::vector<std::pair<uint32_t, PacketHandler>> handlers;
  };

  void Deliver(Packet packet, sim::Duration delay);
  sim::Duration SampleScaledDelay(NodeId src, NodeId dst);
  const PacketHandler* FindHandler(const Endpoint& endpoint, uint32_t port) const;
  // Nodes not named in the partition spec form an implicit extra component.
  size_t ComponentOf(NodeId node) const {
    return node < partition_id_.size() ? partition_id_[node] : SIZE_MAX;
  }

  sim::Simulator* simulator_;
  std::unique_ptr<LatencyModel> latency_;
  NetworkConfig config_;
  std::vector<Endpoint> endpoints_;  // indexed by NodeId, lazily grown
  // partition_id_[node] -> component index; SIZE_MAX = unnamed. Only
  // consulted while partition_active_.
  std::vector<size_t> partition_id_;
  bool partition_active_ = false;
  double latency_scale_ = 1.0;
  // Indexed by NodeId; inbound_scaled_count_ keeps the no-laggards fast path
  // a single integer test.
  std::vector<double> inbound_scale_;
  size_t inbound_scaled_count_ = 0;

  uint64_t next_packet_id_ = 1;
  uint64_t packets_sent_ = 0;
  uint64_t packets_delivered_ = 0;
  uint64_t packets_dropped_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t header_bytes_sent_ = 0;
  uint64_t payload_bytes_sent_ = 0;
};

}  // namespace net

#endif  // REPRO_SRC_NET_NETWORK_H_
