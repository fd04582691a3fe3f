#include "src/catocs/group_member.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/catocs/causal_layer.h"
#include "src/catocs/fifo_layer.h"
#include "src/catocs/flow_control.h"
#include "src/catocs/membership_layer.h"
#include "src/catocs/sender_batch.h"
#include "src/catocs/stability_layer.h"
#include "src/catocs/total_order_layer.h"
#include "src/mem/pool.h"

namespace catocs {

GroupMember::GroupMember(sim::Simulator* simulator, net::Transport* transport, GroupConfig config,
                         MemberId self, std::vector<MemberId> members) {
  core_.simulator = simulator;
  core_.transport = transport;
  core_.config = config;
  core_.self = self;
  core_.member = this;
  core_.view.id = 1;
  core_.view.members = std::move(members);
  std::sort(core_.view.members.begin(), core_.view.members.end());
  assert(std::find(core_.view.members.begin(), core_.view.members.end(), core_.self) !=
         core_.view.members.end());

  if (core_.config.observability) {
    core_.tap.Enable(simulator, self, &core_.pipeline_stats, core_.config.provenance);
  }
  core_.RebuildOverlay();
  pipeline_ = PipelineBuilder(&core_).AddDefaultStack().Build();
  // No sender batching in overlay mode: coalescing happens per-link on the
  // tree (every forward is a single frame to O(1) neighbors already), and the
  // batcher's direct-broadcast flush would bypass the overlay entirely.
  if (core_.config.batching > 1 && !core_.overlay_mode()) {
    batcher_ = std::make_unique<SenderBatcher>(&core_);
  }
  if (core_.config.budget.bounded()) {
    core_.budget.Configure(core_.config.budget);
    core_.budget.BindStats(&core_.pipeline_stats.budget);
  }
  if (core_.config.send_window > 0 || core_.config.budget.bounded()) {
    flow_ = std::make_unique<FlowController>(&core_);
  }

  // One dispatcher per group port; the pipeline routes to whichever layer
  // claims the port.
  const GroupId g = core_.config.group_id;
  auto dispatch = [this](MemberId src, uint32_t port, const net::PayloadPtr& p) {
    pipeline_.Dispatch(src, port, p);
  };
  transport->RegisterReceiver(GroupPorts::Data(g), dispatch);
  transport->RegisterReceiver(GroupPorts::Order(g), dispatch);
  transport->RegisterReceiver(GroupPorts::Ack(g), dispatch);
  transport->RegisterReceiver(GroupPorts::Token(g), dispatch);
  transport->RegisterReceiver(GroupPorts::Membership(g), dispatch);
}

GroupMember::~GroupMember() = default;

void GroupMember::SetDeliveryHandler(DeliveryHandler handler) {
  assert(!core_.started && "handlers must be installed before Start()");
  core_.delivery_handler = std::move(handler);
}

void GroupMember::SetViewHandler(ViewHandler handler) {
  assert(!core_.started && "handlers must be installed before Start()");
  core_.view_handler = std::move(handler);
}

void GroupMember::SetStateProvider(StateProvider fn) {
  assert(!core_.started && "handlers must be installed before Start()");
  core_.state_provider = std::move(fn);
}

void GroupMember::SetStateApplier(StateApplier fn) {
  assert(!core_.started && "handlers must be installed before Start()");
  core_.state_applier = std::move(fn);
}

void GroupMember::ReportFailure(MemberId suspect, bool deliberate) {
  core_.membership->ReportFailure(suspect, deliberate);
}

void GroupMember::Start() {
  if (core_.started) {
    return;
  }
  core_.started = true;
  pipeline_.OnStart();
}

void GroupMember::Stop() {
  if (batcher_ != nullptr) {
    // A stopping (crashing) member abandons its un-broadcast batch, exactly
    // as it abandons in-flight unbatched frames.
    batcher_->DropPending();
  }
  if (flow_ != nullptr) {
    flow_->OnStop();
  }
  pipeline_.OnStop();
  core_.started = false;
}

void GroupMember::JoinGroup(MemberId contact) { core_.membership->JoinGroup(contact); }

void GroupMember::DeclareDependency(const MessageId& dep) {
  // Without a recorder the declaration has no observer; skip the append so
  // uninstrumented members never grow the pending list. Unordered ids
  // ({*, 0}) are not individually identifiable — nothing to declare against.
  if (!core_.tap.has_provenance() || dep.sender == 0 || dep.seq == 0) {
    return;
  }
  core_.pending_deps.push_back(dep);
}

SendResult GroupMember::TrySend(OrderingMode mode, net::PayloadPtr payload) {
  return SendInternal(mode, std::move(payload), /*admission_exempt=*/false);
}

SendResult GroupMember::ReissueBlockedSend(OrderingMode mode, net::PayloadPtr payload) {
  return SendInternal(mode, std::move(payload), /*admission_exempt=*/true);
}

SendResult GroupMember::SendInternal(OrderingMode mode, net::PayloadPtr payload,
                                     bool admission_exempt) {
  // A stopped (crashed) member silently drops sends: callers with periodic
  // senders keep firing across a crash, and a dead process originating
  // traffic would be nonsense. Counted so tests can observe the drop.
  if (!core_.started) {
    ++core_.stats.sends_while_stopped;
    core_.pending_deps.clear();  // the send they were declared for is gone
    return SendResult{SendStatus::kStopped, MessageId{0, 0}};
  }
  // Flow admission runs before the flush-blocked queue: a sender out of
  // credits must not grow the blocked queue during a view change — that
  // queue is the one place overload could still buffer without bound.
  // Unordered sends bypass admission (they are never retained or windowed);
  // blocked-send re-issues were admitted when first queued.
  if (flow_ != nullptr && !admission_exempt && mode != OrderingMode::kUnordered) {
    const SendStatus admission = flow_->Admit();
    if (admission != SendStatus::kSent) {
      return SendResult{admission, MessageId{0, 0}};
    }
  }
  if (core_.membership->flushing()) {
    core_.membership->QueueBlockedSend(mode, std::move(payload));
    return SendResult{SendStatus::kQueuedBehindFlush, MessageId{0, 0}};
  }
  ++core_.stats.sent;

  if (mode == OrderingMode::kUnordered) {
    // Plain multicast: unique id for tracing, empty vector time, no delay
    // queue, no stability buffering — and no guarantees.
    MessageId id{core_.self, 0};
    auto data = mem::MakePooled<GroupData>(core_.config.group_id, id, mode, VectorClock{},
                                           std::move(payload), core_.simulator->now());
    for (MemberId member : core_.view.members) {
      if (member != core_.self) {
        core_.transport->SendUnreliable(member, GroupPorts::Data(core_.config.group_id), data);
      }
    }
    core_.fifo->DeliverDirect(data);
    return SendResult{SendStatus::kSent, id};
  }

  const uint64_t seq = core_.causal->AllocateSendSeq();
  MessageId id{core_.self, seq};
  // The declared dependencies now have a concrete dependent: feed the
  // semantic graph.
  for (const MessageId& dep : core_.pending_deps) {
    core_.tap.Depends(id, dep);
  }
  core_.pending_deps.clear();
  auto data = mem::MakePooled<GroupData>(core_.config.group_id, id, mode, VectorClock{},
                                         std::move(payload), core_.simulator->now());
  core_.tap.Send(id, mode);
  // Each layer stamps its own header section (vector timestamp, then
  // acks/piggyback) before the message is shared with anyone.
  pipeline_.OnSend(*data);

  // Self-delivery first (the send is a local event that advances the clock),
  // then fan out — immediately, or through the batcher, which also owns the
  // header-byte charge for the coalesced frame.
  GroupDataPtr shared = std::move(data);
  if (core_.overlay_mode()) {
    // Constant-metadata path: no direct multicast. Self-delivery with
    // from=self runs forward-on-delivery, which pushes the frame onto every
    // overlay link in causal delivery order (DESIGN.md §11) — the per-link
    // transmission and header charges happen there, one hop at a time.
    assert(mode != OrderingMode::kTotal && "overlay path orders causally only");
    core_.causal->Ingest(shared, /*observe_acks=*/true, core_.self);
    core_.SyncTransportBudget();
    return SendResult{SendStatus::kSent, id};
  }
  core_.causal->Ingest(shared);
  if (batcher_ != nullptr) {
    batcher_->Append(shared);
    core_.SyncTransportBudget();
    return SendResult{SendStatus::kSent, id};
  }
  core_.stats.ordering_header_bytes += shared->HeaderBytes() * (core_.view.members.size() - 1);
  core_.stats.data_transmissions += core_.view.members.size() - 1;
  core_.BroadcastReliable(GroupPorts::Data(core_.config.group_id), shared);
  core_.SyncTransportBudget();
  return SendResult{SendStatus::kSent, id};
}

void GroupMember::SetSendReadyHandler(std::function<void()> fn) {
  if (flow_ != nullptr) {
    flow_->SetSendReadyHandler(std::move(fn));
  }
}

uint64_t GroupMember::send_credits() const {
  return flow_ != nullptr ? flow_->credits() : UINT64_MAX;
}

bool GroupMember::backpressured() const { return flow_ != nullptr && flow_->backpressured(); }

bool GroupMember::flush_in_progress() const { return core_.membership->flushing(); }
size_t GroupMember::delay_queue_length() const { return core_.causal->delay_queue_length(); }
size_t GroupMember::buffered_messages() const { return core_.stability->buffered_messages(); }
size_t GroupMember::buffered_bytes() const { return core_.stability->buffered_bytes(); }
size_t GroupMember::peak_buffered_messages() const {
  return core_.stability->peak_buffered_messages();
}
size_t GroupMember::peak_buffered_bytes() const { return core_.stability->peak_buffered_bytes(); }
const CausalBufferStrategy& GroupMember::stability() const { return core_.stability->strategy(); }

}  // namespace catocs
