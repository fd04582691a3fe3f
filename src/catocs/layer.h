// What the five ordering layers share.
//
// Each CATOCS concern — causal delay queue, per-sender FIFO app gate, total
// ordering, stability buffering, view-synchronous membership — lives in its
// own plain class (causal_layer.h, fifo_layer.h, total_order_layer.h,
// stability_layer.h, membership_layer.h) holding a GroupCore*. The core
// carries identity, view, config, stats and handlers, plus typed pointers to
// every layer. All cross-layer calls go through those pointers in explicit
// protocol order: the delivery cascade (causal -> stability -> total ->
// fifo -> application) and the view install the membership layer runs.
// GroupMember owns the layers, wires each group port to the one layer that
// handles it, and calls start, stamp and stop in order (group_member.h).

#ifndef REPRO_SRC_CATOCS_LAYER_H_
#define REPRO_SRC_CATOCS_LAYER_H_

#include <cassert>
#include <vector>

#include "src/catocs/hold_tap.h"
#include "src/catocs/message.h"
#include "src/catocs/types.h"
#include "src/net/overlay.h"
#include "src/net/transport.h"
#include "src/sim/simulator.h"

namespace catocs {

class CausalLayer;
class FifoLayer;
class FlowController;
class GroupMember;
class MembershipLayer;
class SenderBatcher;
class StabilityLayer;
class TotalOrderLayer;

// Port layout: each group uses a contiguous block so several groups can
// share a transport.
struct GroupPorts {
  static uint32_t Data(GroupId g) { return 0x0C000000u + g * 8; }
  static uint32_t Order(GroupId g) { return 0x0C000001u + g * 8; }
  static uint32_t Ack(GroupId g) { return 0x0C000002u + g * 8; }
  static uint32_t Token(GroupId g) { return 0x0C000003u + g * 8; }
  static uint32_t Membership(GroupId g) { return 0x0C000004u + g * 8; }
};

// State and services shared by every layer of one member. Owned by the
// GroupMember facade; layers hold a pointer and register themselves in their
// constructors.
struct GroupCore {
  // Sets identity and the founding view, enables the tap (under
  // config.observability) and builds the founding overlay — everything a
  // layer constructor may read, so it runs before any layer exists.
  GroupCore(sim::Simulator* simulator, net::Transport* transport, GroupConfig config,
            MemberId self, std::vector<MemberId> members, GroupMember* member);
  GroupCore(const GroupCore&) = delete;
  GroupCore& operator=(const GroupCore&) = delete;

  sim::Simulator* simulator = nullptr;
  net::Transport* transport = nullptr;
  GroupConfig config;
  MemberId self = 0;
  View view;
  GroupStats stats;
  DeliveryHandler delivery_handler;
  ViewHandler view_handler;
  StateProvider state_provider;
  StateApplier state_applier;
  bool started = false;

  // The facade, for the one genuinely top-level re-entry: releasing sends
  // that were queued while a flush blocked the group.
  GroupMember* member = nullptr;

  // Typed siblings, filled in as each layer constructs.
  CausalLayer* causal = nullptr;
  FifoLayer* fifo = nullptr;
  StabilityLayer* stability = nullptr;
  MembershipLayer* membership = nullptr;
  TotalOrderLayer* total = nullptr;
  // Sender-side batcher (config.batching > 1); null on unbatched members so
  // the default path never even tests a batching branch beyond this pointer.
  SenderBatcher* batcher = nullptr;
  // Sender-side flow control (config.send_window > 0 or a bounded budget);
  // null by default, same pointer discipline as the batcher.
  FlowController* flow = nullptr;

  // Bounded-resource ledger (DESIGN.md §10): charged by the retention
  // strategy, the batcher, the total-order pending set, and the transport
  // send queues — only when config.budget is bounded, so the default path
  // never touches it.
  ResourceBudget budget;

  // Per-layer hold-time attribution, and the tap every wait point and
  // per-message event reports through; enabled only under
  // config.observability (see hold_tap.h).
  PipelineStats pipeline_stats;
  HoldTap tap;

  // Semantic dependencies declared for this member's next ordered send
  // (GroupMember::DeclareDependency); attached to the message when its id is
  // allocated, preserved across a flush-blocked queue round trip.
  std::vector<MessageId> pending_deps;

  // Spanning overlay for the constant-metadata dissemination path
  // (DESIGN.md §11). Only meaningful in overlay mode; rebuilt from the
  // sorted member list at construction and at every view install, so every
  // member computes the same tree without negotiation.
  net::SpanningOverlay overlay;

  // Overlay mode changes the send path itself (tree flooding instead of
  // direct multicast), not just the retention strategy — layers branch on
  // this, and everything behind it is unreachable at the default config.
  bool overlay_mode() const { return config.causal_buffer == CausalBufferKind::kOverlay; }

  void RebuildOverlay() {
    if (overlay_mode()) {
      overlay.Rebuild(view.members, self);
    }
  }

  bool IsSequencer() const { return self == Sequencer(); }
  MemberId Sequencer() const {
    assert(!view.members.empty());
    return view.members.front();
  }

  void BroadcastReliable(uint32_t port, const net::PayloadPtr& payload) {
    for (MemberId m : view.members) {
      if (m != self) {
        transport->SendReliable(m, port, payload);
      }
    }
  }

  // Refreshes the transport-queue component of the budget from the
  // transport's unacked-occupancy counters. Called after reliable sends and
  // on flow-control ticks; a no-op when the budget is unbounded.
  void SyncTransportBudget() {
    if (budget.bounded()) {
      budget.Set(ResourceBudget::kTransportQueue, transport->queued_bytes(),
                 transport->queued_segments());
    }
  }
};

}  // namespace catocs

#endif  // REPRO_SRC_CATOCS_LAYER_H_
