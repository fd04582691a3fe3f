#include "src/catocs/group_member.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/catocs/flow_control.h"
#include "src/catocs/sender_batch.h"
#include "src/mem/pool.h"

namespace catocs {

GroupCore::GroupCore(sim::Simulator* simulator, net::Transport* transport, GroupConfig config,
                     MemberId self, std::vector<MemberId> members, GroupMember* member)
    : simulator(simulator), transport(transport), config(config), self(self), member(member) {
  view.id = 1;
  view.members = std::move(members);
  std::sort(view.members.begin(), view.members.end());
  assert(std::find(view.members.begin(), view.members.end(), self) != view.members.end());
  if (config.observability) {
    tap.Enable(simulator, self, &pipeline_stats, config.provenance);
  }
  RebuildOverlay();
}

GroupMember::GroupMember(sim::Simulator* simulator, net::Transport* transport, GroupConfig config,
                         MemberId self, std::vector<MemberId> members)
    : core_(simulator, transport, config, self, std::move(members), this) {
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

  // Each group port goes straight to the layer that owns it.
  const GroupId g = core_.config.group_id;
  transport->RegisterReceiver(GroupPorts::Data(g),
                              [this](MemberId src, uint32_t, const net::PayloadPtr& p) {
                                causal_.OnData(src, p);
                              });
  transport->RegisterReceiver(GroupPorts::Order(g),
                              [this](MemberId, uint32_t, const net::PayloadPtr& p) {
                                total_.OnOrder(p);
                              });
  transport->RegisterReceiver(GroupPorts::Ack(g),
                              [this](MemberId src, uint32_t, const net::PayloadPtr& p) {
                                stability_.OnAck(src, p);
                              });
  transport->RegisterReceiver(GroupPorts::Token(g),
                              [this](MemberId, uint32_t, const net::PayloadPtr& p) {
                                total_.OnToken(p);
                              });
  transport->RegisterReceiver(GroupPorts::Membership(g),
                              [this](MemberId src, uint32_t, const net::PayloadPtr& p) {
                                membership_.OnMessage(src, p);
                              });
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
  membership_.ReportFailure(suspect, deliberate);
}

void GroupMember::Start() {
  if (core_.started) {
    return;
  }
  core_.started = true;
  // Timer creation order: ack gossip, heartbeat, failure check, token seed.
  stability_.Start();
  membership_.Start();
  total_.Start();
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
  stability_.Stop();
  membership_.Stop();
  total_.Stop();
  core_.started = false;
}

void GroupMember::JoinGroup(MemberId contact) { membership_.JoinGroup(contact); }

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
  if (membership_.flushing()) {
    membership_.QueueBlockedSend(mode, std::move(payload));
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
    fifo_.DeliverDirect(data);
    return SendResult{SendStatus::kSent, id};
  }

  const uint64_t seq = causal_.AllocateSendSeq();
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
  // Each layer stamps its own header section before the message is shared
  // with anyone.
  causal_.Stamp(*data);
  stability_.Stamp(*data);

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
    causal_.Ingest(shared, /*observe_acks=*/true, core_.self);
    core_.SyncTransportBudget();
    return SendResult{SendStatus::kSent, id};
  }
  causal_.Ingest(shared);
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

bool GroupMember::flush_in_progress() const { return membership_.flushing(); }
size_t GroupMember::delay_queue_length() const { return causal_.delay_queue_length(); }
size_t GroupMember::buffered_messages() const { return stability_.buffered_messages(); }
size_t GroupMember::buffered_bytes() const { return stability_.buffered_bytes(); }
size_t GroupMember::peak_buffered_messages() const { return stability_.peak_buffered_messages(); }
size_t GroupMember::peak_buffered_bytes() const { return stability_.peak_buffered_bytes(); }
const CausalBufferStrategy& GroupMember::stability() const { return stability_.strategy(); }

}  // namespace catocs
