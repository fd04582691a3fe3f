// The ordering-layer stack. A Pipeline owns the layers in stack order and
// drives the uniform hooks; the PipelineBuilder assembles the default CATOCS
// stack (or a custom one, for tests and future protocol variants).
//
// Stack order matters only where the hooks have observable side effects in
// sequence: OnStart creates timers (their creation order is part of the
// deterministic replay), OnSend stamps header sections, OnStop tears down in
// the same order Stop always did. Receive dispatch is port-keyed, so layer
// order is irrelevant there.

#ifndef REPRO_SRC_CATOCS_PIPELINE_H_
#define REPRO_SRC_CATOCS_PIPELINE_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/catocs/layer.h"

namespace catocs {

class Pipeline {
 public:
  void OnStart() {
    for (auto& layer : layers_) {
      layer->OnStart();
    }
  }
  void OnStop() {
    for (auto& layer : layers_) {
      layer->OnStop();
    }
  }
  void OnSend(GroupData& data) {
    for (auto& layer : layers_) {
      layer->OnSend(data);
    }
  }
  // Offer an incoming payload to each layer until one claims the port.
  void Dispatch(MemberId src, uint32_t port, const net::PayloadPtr& payload) {
    for (auto& layer : layers_) {
      if (layer->OnReceive(src, port, payload)) {
        return;
      }
    }
  }
  void TryDeliver() {
    for (auto& layer : layers_) {
      layer->TryDeliver();
    }
  }

  const std::vector<std::unique_ptr<OrderingLayer>>& layers() const { return layers_; }

 private:
  friend class PipelineBuilder;
  std::vector<std::unique_ptr<OrderingLayer>> layers_;
};

class PipelineBuilder {
 public:
  explicit PipelineBuilder(GroupCore* core) : core_(core) {}

  PipelineBuilder& Add(std::unique_ptr<OrderingLayer> layer) {
    layers_.push_back(std::move(layer));
    return *this;
  }

  // The standard CATOCS stack. Order reproduces the monolith's timer
  // creation sequence (ack gossip, heartbeat, failure check, token seed) and
  // its header stamping order (vector timestamp, then acks/piggyback).
  PipelineBuilder& AddDefaultStack();

  Pipeline Build() {
    Pipeline pipeline;
    pipeline.layers_ = std::move(layers_);
    return pipeline;
  }

 private:
  GroupCore* core_;
  std::vector<std::unique_ptr<OrderingLayer>> layers_;
};

}  // namespace catocs

#endif  // REPRO_SRC_CATOCS_PIPELINE_H_
