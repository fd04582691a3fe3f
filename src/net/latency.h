// Link latency models. The network samples one delay per packet; models are
// free to differentiate by endpoint pair (e.g. to emulate a WAN span inside a
// mostly-LAN system, which is how §5 of the paper argues propagation time T
// grows with scale).

#ifndef REPRO_SRC_NET_LATENCY_H_
#define REPRO_SRC_NET_LATENCY_H_

#include <cstdint>
#include <memory>

#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace net {

using NodeId = uint32_t;

class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  virtual sim::Duration SampleDelay(NodeId src, NodeId dst, sim::Rng& rng) = 0;
};

// Constant delay for every packet.
class FixedLatency : public LatencyModel {
 public:
  explicit FixedLatency(sim::Duration delay) : delay_(delay) {}
  sim::Duration SampleDelay(NodeId, NodeId, sim::Rng&) override { return delay_; }

 private:
  sim::Duration delay_;
};

// Uniform in [lo, hi]; the workhorse jitter model for the anomaly scenarios.
class UniformLatency : public LatencyModel {
 public:
  UniformLatency(sim::Duration lo, sim::Duration hi) : lo_(lo), hi_(hi) {}
  sim::Duration SampleDelay(NodeId, NodeId, sim::Rng& rng) override {
    return rng.NextDuration(lo_, hi_);
  }

 private:
  sim::Duration lo_;
  sim::Duration hi_;
};

// Two-tier topology: nodes are assigned to clusters; intra-cluster packets
// use the LAN model, inter-cluster packets the WAN model. Cluster of node n
// is n / cluster_size.
class ClusteredLatency : public LatencyModel {
 public:
  ClusteredLatency(uint32_t cluster_size, std::unique_ptr<LatencyModel> lan,
                   std::unique_ptr<LatencyModel> wan)
      : cluster_size_(cluster_size), lan_(std::move(lan)), wan_(std::move(wan)) {}

  sim::Duration SampleDelay(NodeId src, NodeId dst, sim::Rng& rng) override {
    if (src / cluster_size_ == dst / cluster_size_) {
      return lan_->SampleDelay(src, dst, rng);
    }
    return wan_->SampleDelay(src, dst, rng);
  }

 private:
  uint32_t cluster_size_;
  std::unique_ptr<LatencyModel> lan_;
  std::unique_ptr<LatencyModel> wan_;
};

}  // namespace net

#endif  // REPRO_SRC_NET_LATENCY_H_
