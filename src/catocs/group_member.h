// GroupMember: one process's endpoint in a CATOCS process group.
//
// Implements the full protocol stack the paper critiques:
//   * causal multicast (cbcast) — Birman–Schiper–Stephenson vector-clock
//     delay queue; a message is delivered only when everything that
//     happens-before it has been delivered;
//   * totally ordered multicast (abcast) — causal delivery plus a single
//     group-wide sequence, assigned either by a fixed sequencer (lowest
//     member id) or by a rotating token;
//   * atomic delivery — every member buffers delivered messages until they
//     are known stable (delivered everywhere), learning progress from ack
//     vectors piggybacked on data and/or periodic gossip;
//   * view-synchronous membership — heartbeat failure detection and a flush
//     protocol that blocks sending, brings survivors to a common delivery
//     cut, and installs a new view with an ordered view-change notification;
//   * the footnote-4 variant — instead of delaying at receivers, carry
//     copies of unstable causal predecessors on each message.
//
// Every cost the paper attributes to CATOCS (delay queues, buffering, header
// bytes, blocked time during flush) is measured and exposed via stats().
//
// This class is a thin facade: the protocol lives in five layers
// (causal_layer.h, fifo_layer.h, stability_layer.h, membership_layer.h,
// total_order_layer.h) that share one GroupCore (layer.h). The facade owns
// the core and the layers and wires them directly:
//   * each group port goes to the one layer that handles it: Data to
//     causal, Ack to stability, Membership to membership, Order and Token
//     to total order;
//   * Start and Stop run stability, membership, total order, in that order
//     (the timer-creation order ack gossip, heartbeat, failure check, token
//     seed is part of deterministic replay);
//   * an ordered send is stamped by causal (vector timestamp), then by
//     stability (acks and piggyback).

#ifndef REPRO_SRC_CATOCS_GROUP_MEMBER_H_
#define REPRO_SRC_CATOCS_GROUP_MEMBER_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/catocs/causal_buffer.h"
#include "src/catocs/causal_layer.h"
#include "src/catocs/fifo_layer.h"
#include "src/catocs/membership_layer.h"
#include "src/catocs/message.h"
#include "src/catocs/stability_layer.h"
#include "src/catocs/total_order_layer.h"
#include "src/catocs/types.h"
#include "src/net/transport.h"
#include "src/sim/simulator.h"

namespace catocs {

class FlowController;
class SenderBatcher;

class GroupMember {
 public:
  GroupMember(sim::Simulator* simulator, net::Transport* transport, GroupConfig config,
              MemberId self, std::vector<MemberId> members);
  ~GroupMember();

  GroupMember(const GroupMember&) = delete;
  GroupMember& operator=(const GroupMember&) = delete;

  // Handlers and state-transfer hooks must be configured before Start();
  // layers snapshot nothing, but installing them mid-protocol would make
  // delivery visibility depend on event timing.
  void SetDeliveryHandler(DeliveryHandler handler);
  void SetViewHandler(ViewHandler handler);

  // --- application state transfer (crash-recovery rejoin) -------------------
  // With a provider set, the flush coordinator snapshots its application
  // state when admitting a joiner; the joiner's applier installs the snapshot
  // before any post-snapshot message is delivered, and the joiner's delivery
  // cut becomes the coordinator's app-delivered vector (everything past it is
  // re-forwarded through the normal causal path). Snapshot + subsequent
  // deliveries therefore reproduce the group's application state exactly.
  // Without a provider, joiners adopt the group cut and see no history.
  using StateProvider = catocs::StateProvider;
  using StateApplier = catocs::StateApplier;
  void SetStateProvider(StateProvider fn);
  void SetStateApplier(StateApplier fn);

  // Feeds an externally detected failure (e.g. a transport retransmission
  // give-up) into the membership layer, triggering the same flush a
  // heartbeat timeout would. No-op for non-members or without membership.
  // A deliberate report (operator eviction, laggard shedding) bypasses the
  // fresh-evidence veto: hearing from the member recently is not contradicting
  // evidence when the point is to evict it while alive.
  void ReportFailure(MemberId suspect, bool deliberate = false);

  // Starts background machinery (ack gossip, heartbeats, token circulation).
  // Must be called once before the first Send.
  void Start();
  // Halts background machinery (e.g. when the owning process crashes).
  void Stop();

  // Joins an existing group through `contact` (any current member). The
  // caller must have been constructed with members = {self} and Start()ed;
  // sends stay blocked until the join view installs. By default the joiner
  // adopts the group's delivery cut and sees no history; with a state
  // provider/applier pair configured (see above) it instead receives an
  // application snapshot plus everything past the snapshot's cut. A crashed
  // member must rejoin under a fresh member id.
  void JoinGroup(MemberId contact);

  // Multicasts to the group. kCausal and kTotal self-deliver per protocol;
  // kUnordered is a plain multicast with no guarantees. During a flush, sends
  // are queued and released when the new view is installed.
  //
  // Returns the id the message was sent under: {self, seq} for ordered
  // sends, {self, 0} for kUnordered (all unordered sends share it), and
  // {0, 0} when nothing went out yet (stopped member, or queued behind a
  // flush — the queued send is re-issued on view install and gets its id
  // then). Callers that feed DeclareDependency keep the returned id.
  MessageId Send(OrderingMode mode, net::PayloadPtr payload) {
    return TrySend(mode, std::move(payload)).id;
  }
  MessageId CausalSend(net::PayloadPtr payload) {
    return Send(OrderingMode::kCausal, std::move(payload));
  }
  MessageId TotalSend(net::PayloadPtr payload) {
    return Send(OrderingMode::kTotal, std::move(payload));
  }

  // Send with an explicit outcome (DESIGN.md §10). Identical side effects to
  // Send; the result distinguishes kSent from the refusal reasons — under
  // flow control an ordered send can come back kBackpressured (retry when
  // the SendReadyHandler fires) or kShed (gone for good, by policy).
  SendResult TrySend(OrderingMode mode, net::PayloadPtr payload);

  // Membership-layer re-issue of a send that was queued behind a completed
  // flush. Exempt from flow-control admission: the message was admitted when
  // first queued, and shedding it here would silently lose an accepted send.
  SendResult ReissueBlockedSend(OrderingMode mode, net::PayloadPtr payload);

  // --- Flow control / bounded resources -------------------------------------
  // Fires when the send window reopens after a kBackpressured refusal (see
  // FlowController::SetSendReadyHandler). No-op without flow control.
  void SetSendReadyHandler(std::function<void()> fn);
  // Remaining send credits; UINT64_MAX when flow control is off.
  uint64_t send_credits() const;
  bool backpressured() const;
  const ResourceBudget& budget() const { return core_.budget; }

  // Provenance (DESIGN.md §8): declares that this member's *next* ordered
  // Send semantically depends on the (previously delivered or sent) message
  // `dep`. Accumulates until a kCausal/kTotal Send attaches the batch to the
  // allocated id; survives a flush-blocked queue round trip. No-op unless a
  // ProvenanceRecorder is attached via GroupConfig — record-only either way.
  void DeclareDependency(const MessageId& dep);

  MemberId self() const { return core_.self; }
  const View& view() const { return core_.view; }
  const GroupStats& stats() const { return core_.stats; }
  // Per-layer hold attribution; all-zero unless GroupConfig::observability.
  const PipelineStats& pipeline_stats() const { return core_.pipeline_stats; }
  bool flush_in_progress() const;
  size_t delay_queue_length() const;
  size_t buffered_messages() const;
  size_t buffered_bytes() const;
  size_t peak_buffered_messages() const;
  size_t peak_buffered_bytes() const;
  const CausalBufferStrategy& stability() const;

 private:
  SendResult SendInternal(OrderingMode mode, net::PayloadPtr payload, bool admission_exempt);

  // Declared (so constructed) core first: StabilityLayer's constructor
  // reads the core's tap and overlay.
  GroupCore core_;
  CausalLayer causal_{&core_};
  FifoLayer fifo_{&core_};
  StabilityLayer stability_{&core_};
  MembershipLayer membership_{&core_};
  TotalOrderLayer total_{&core_};
  // Present only when config.batching > 1 (see sender_batch.h); the
  // unbatched send path is untouched.
  std::unique_ptr<SenderBatcher> batcher_;
  // Present only when config.send_window > 0 or config.budget is bounded
  // (see flow_control.h); same null-by-default discipline as the batcher.
  std::unique_ptr<FlowController> flow_;
};

}  // namespace catocs

#endif  // REPRO_SRC_CATOCS_GROUP_MEMBER_H_
