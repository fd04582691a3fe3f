#include "src/catocs/membership_layer.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "src/catocs/causal_layer.h"
#include "src/catocs/fifo_layer.h"
#include "src/catocs/group_member.h"
#include "src/catocs/sender_batch.h"
#include "src/catocs/stability_layer.h"
#include "src/catocs/total_order_layer.h"

namespace catocs {

namespace {

// Entering a flush must first push out any coalescing batch: its
// constituents were already self-delivered (they advanced our clock and sit
// in our flush cut), so splitting or abandoning them here would desync the
// group. Flushing the batch keeps "batch never spans a view change" an
// invariant rather than a hope.
void FlushPendingBatch(GroupCore* core) {
  if (core->batcher != nullptr) {
    core->batcher->FlushNow();
  }
}

}  // namespace

void MembershipLayer::Start() {
  if (core_->config.enable_membership) {
    heartbeat_timer_ = std::make_unique<sim::PeriodicTimer>(
        core_->simulator, core_->config.heartbeat_interval, [this] { SendHeartbeats(); });
    heartbeat_timer_->Start(sim::Duration::Zero());
    failure_check_timer_ = std::make_unique<sim::PeriodicTimer>(
        core_->simulator, core_->config.heartbeat_interval, [this] { CheckFailures(); });
    failure_check_timer_->Start(core_->config.failure_timeout);
  }
}

void MembershipLayer::Stop() {
  if (heartbeat_timer_) {
    heartbeat_timer_->Stop();
  }
  if (failure_check_timer_) {
    failure_check_timer_->Stop();
  }
}

void MembershipLayer::OnMessage(MemberId src, const net::PayloadPtr& payload) {
  if (const auto* hb = net::PayloadCast<Heartbeat>(payload)) {
    if (hb->group() == core_->config.group_id) {
      last_heard_[src] = core_->simulator->now();
    }
    return;
  }
  if (const auto* join = net::PayloadCast<JoinRequest>(payload)) {
    if (join->group() == core_->config.group_id) {
      OnJoinRequest(*join);
    }
    return;
  }
  if (const auto* suspect = net::PayloadCast<SuspectNotice>(payload)) {
    if (suspect->group() == core_->config.group_id) {
      HandleSuspicion(suspect->suspect());
    }
    return;
  }
  if (const auto* req = net::PayloadCast<FlushRequest>(payload)) {
    if (req->group() == core_->config.group_id) {
      OnFlushRequest(src, *req);
    }
    return;
  }
  if (const auto* state = net::PayloadCast<FlushState>(payload)) {
    if (state->group() == core_->config.group_id) {
      OnFlushState(src, *state);
    }
    return;
  }
  if (const auto* install = net::PayloadCast<ViewInstall>(payload)) {
    if (install->group() == core_->config.group_id) {
      OnViewInstall(*install);
    }
  }
}

void MembershipLayer::JoinGroup(MemberId contact) {
  FlushPendingBatch(core_);
  // Block application sends until the join view installs.
  joining_ = true;
  flushing_ = true;
  flush_started_ = core_->simulator->now();
  core_->transport->SendReliable(
      contact, GroupPorts::Membership(core_->config.group_id),
      std::make_shared<JoinRequest>(core_->config.group_id, core_->self));
}

void MembershipLayer::ReportFailure(MemberId suspect, bool deliberate) {
  if (!core_->config.enable_membership || !core_->started || joining_) {
    return;
  }
  HandleSuspicion(suspect, deliberate);
}

void MembershipLayer::QueueBlockedSend(OrderingMode mode, net::PayloadPtr payload) {
  core_->tap.Enter(HoldReason::kFlushBlocked, MessageId{});  // no id until re-issued
  // Carry any declared-but-unattached dependencies with the queued send so
  // the flush round trip neither loses them nor leaks them onto whatever the
  // application sends next.
  blocked_sends_.push_back(BlockedSend{mode, std::move(payload), core_->simulator->now(),
                                       std::move(core_->pending_deps)});
  core_->pending_deps.clear();
}

void MembershipLayer::OnJoinRequest(const JoinRequest& request) {
  if (std::binary_search(core_->view.members.begin(), core_->view.members.end(),
                         request.joiner())) {
    return;  // already a member
  }
  // Route to the coordinator (lowest live member); the coordinator folds the
  // join into a flush among the *current* members.
  MemberId coordinator = core_->view.members.front();
  for (MemberId member : core_->view.members) {
    if (!suspected_.count(member)) {
      coordinator = member;
      break;
    }
  }
  if (coordinator != core_->self) {
    ++core_->stats.flush_control_msgs;
    core_->transport->SendReliable(
        coordinator, GroupPorts::Membership(core_->config.group_id),
        std::make_shared<JoinRequest>(core_->config.group_id, request.joiner()));
    return;
  }
  if (pending_joiners_.insert(request.joiner()).second) {
    InitiateFlush();
  }
}

void MembershipLayer::SendHeartbeats() {
  auto hb = std::make_shared<Heartbeat>(core_->config.group_id, core_->view.id);
  if (core_->overlay_mode()) {
    // Overlay mode heartbeats only the tree links: those are the links whose
    // failure actually partitions dissemination, and all-to-all heartbeating
    // is O(N²) frames per interval — the other scaling wall at N=10k. A
    // detected neighbor failure still triggers the global flush protocol.
    for (MemberId neighbor : core_->overlay.neighbors()) {
      core_->transport->SendUnreliable(neighbor, GroupPorts::Membership(core_->config.group_id),
                                       hb);
    }
    return;
  }
  for (MemberId member : core_->view.members) {
    if (member != core_->self) {
      core_->transport->SendUnreliable(member, GroupPorts::Membership(core_->config.group_id), hb);
    }
  }
}

void MembershipLayer::CheckFailures() {
  const sim::TimePoint now = core_->simulator->now();
  for (MemberId member : core_->view.members) {
    if (member == core_->self || suspected_.count(member)) {
      continue;
    }
    // Overlay mode: we only *expect* heartbeats from tree neighbors, so
    // silence from anyone else is not evidence (SuspectNotice floods still
    // propagate remote suspicions group-wide).
    if (core_->overlay_mode() && !core_->overlay.IsNeighbor(member)) {
      continue;
    }
    auto it = last_heard_.find(member);
    if (it == last_heard_.end()) {
      // Never heard from it; give it a full timeout from when we started
      // checking by seeding the map lazily.
      last_heard_[member] = now;
      continue;
    }
    if (now - it->second > core_->config.failure_timeout) {
      HandleSuspicion(member);
    }
  }
}

void MembershipLayer::HandleSuspicion(MemberId suspect, bool deliberate) {
  if (suspect == core_->self ||
      !std::binary_search(core_->view.members.begin(), core_->view.members.end(), suspect)) {
    return;
  }
  // Fresh-evidence veto: a relayed suspicion (SuspectNotice hearsay, or a
  // transport give-up) is rejected while our own ears contradict it — we
  // heard the suspect within half a failure timeout. Local timeout-driven
  // suspicion is unaffected (CheckFailures only fires after a full silent
  // timeout). Without this, one member's lossy inbound path can evict a
  // member everyone else still hears, and the evicted-but-live member then
  // installs a rival view — a split brain from a single bad link.
  //
  // A deliberate report bypasses the veto: the evict-laggard policy sheds a
  // member *because* it is alive but too slow, so "we still hear it" is not
  // contradicting evidence. The evicted member wedges under the
  // primary-partition rule like any false suspicion would.
  auto heard = last_heard_.find(suspect);
  if (!deliberate && heard != last_heard_.end() &&
      core_->simulator->now() - heard->second < core_->config.failure_timeout / 2) {
    ++core_->stats.suspicions_vetoed;
    return;
  }
  if (!suspected_.insert(suspect).second) {
    return;  // already known
  }
  // Survivor with the lowest id coordinates the flush.
  MemberId coordinator = core_->self;
  for (MemberId member : core_->view.members) {
    if (!suspected_.count(member)) {
      coordinator = member;
      break;
    }
  }
  if (coordinator == core_->self) {
    InitiateFlush();
  } else {
    ++core_->stats.flush_control_msgs;
    core_->transport->SendReliable(coordinator, GroupPorts::Membership(core_->config.group_id),
                                   std::make_shared<SuspectNotice>(core_->config.group_id,
                                                                   suspect));
    // Also stop sending application traffic; the flush request will arrive.
  }
}

void MembershipLayer::InitiateFlush() {
  FlushPendingBatch(core_);
  const uint64_t new_view_id = std::max(core_->view.id, flush_view_id_) + 1;
  flush_view_id_ = new_view_id;
  if (!flushing_) {
    flushing_ = true;
    flush_started_ = core_->simulator->now();
  }
  flush_states_.clear();

  std::vector<MemberId> survivors;
  for (MemberId member : core_->view.members) {
    if (!suspected_.count(member)) {
      survivors.push_back(member);
    }
  }
  auto req = std::make_shared<FlushRequest>(core_->config.group_id, new_view_id, survivors);
  for (MemberId member : survivors) {
    if (member != core_->self) {
      ++core_->stats.flush_control_msgs;
      core_->transport->SendReliable(member, GroupPorts::Membership(core_->config.group_id), req);
    }
  }
  // Contribute our own state directly.
  FlushState own(core_->config.group_id, new_view_id, core_->causal->delivered(),
                 core_->stability->UnstableMessages(), core_->total->KnownAssignments(),
                 core_->total->next_total_deliver());
  OnFlushState(core_->self, own);
}

void MembershipLayer::OnFlushRequest(MemberId src, const FlushRequest& req) {
  if (req.new_view_id() <= core_->view.id) {
    return;  // stale
  }
  FlushPendingBatch(core_);
  flush_view_id_ = std::max(flush_view_id_, req.new_view_id());
  if (!flushing_) {
    flushing_ = true;
    flush_started_ = core_->simulator->now();
  }
  // Adopt the coordinator's suspicion set.
  for (MemberId member : core_->view.members) {
    if (std::find(req.survivors().begin(), req.survivors().end(), member) ==
        req.survivors().end()) {
      suspected_.insert(member);
    }
  }
  SendFlushStateTo(src, req.new_view_id());
}

void MembershipLayer::SendFlushStateTo(MemberId coordinator, uint64_t new_view_id) {
  auto state = std::make_shared<FlushState>(core_->config.group_id, new_view_id,
                                            core_->causal->delivered(),
                                            core_->stability->UnstableMessages(),
                                            core_->total->KnownAssignments(),
                                            core_->total->next_total_deliver());
  ++core_->stats.flush_control_msgs;
  core_->stats.flush_payload_bytes += state->SizeBytes();
  core_->transport->SendReliable(coordinator, GroupPorts::Membership(core_->config.group_id),
                                 state);
}

void MembershipLayer::OnFlushState(MemberId src, const FlushState& state) {
  if (state.new_view_id() != flush_view_id_ || !flushing_) {
    return;  // belongs to an abandoned round
  }
  flush_states_.insert_or_assign(src, state);
  MaybeCompleteFlush();
}

void MembershipLayer::MaybeCompleteFlush() {
  // Only the coordinator aggregates.
  std::vector<MemberId> survivors;
  for (MemberId member : core_->view.members) {
    if (!suspected_.count(member)) {
      survivors.push_back(member);
    }
  }
  if (survivors.empty() || survivors.front() != core_->self) {
    return;
  }

  // Primary-partition rule for suspicion-driven flushes: only a side holding
  // a strict majority of the departing view — or exactly half of it AND the
  // lowest member id as a deterministic tie-break — may install the next
  // view. The other side wedges in the flush instead of installing a rival
  // view and running as a split brain: an evicted-but-live member (false
  // suspicion under lossy links) stops, it does not secede. Pure join/leave
  // flushes (no suspects) carry the whole view and skip the check.
  if (!suspected_.empty()) {
    const size_t old_size = core_->view.members.size();
    const bool majority = survivors.size() * 2 > old_size;
    const bool half_with_anchor =
        survivors.size() * 2 == old_size &&
        std::find(survivors.begin(), survivors.end(), core_->view.members.front()) !=
            survivors.end();
    if (!majority && !half_with_anchor) {
      if (flush_view_id_ != quorum_blocked_view_) {
        quorum_blocked_view_ = flush_view_id_;
        ++core_->stats.flushes_blocked_no_quorum;
      }
      return;
    }
  }

  for (MemberId member : survivors) {
    if (!flush_states_.count(member)) {
      return;  // still waiting
    }
  }

  // 1. Union of all unstable messages any survivor holds.
  std::map<MessageId, GroupDataPtr> message_union;
  for (const auto& [member, state] : flush_states_) {
    for (const auto& msg : state.unstable()) {
      message_union.emplace(msg->id(), msg);
    }
  }

  // 2. The common delivery cut: per sender, the furthest any survivor got.
  //    Everything at or below the cut is either already delivered at a given
  //    survivor or present in the union (if a survivor delivered it and it
  //    was pruned as stable, then by definition of stability everyone
  //    delivered it already).
  VectorClock final_cut;
  for (const auto& [member, state] : flush_states_) {
    final_cut.Merge(state.delivered());
  }

  // 3. Consolidate total-order assignments. Assignments below `base` are
  //    fixed (some survivor may have delivered at that sequence). Assignments
  //    at or above `base` were issued but delivered nowhere; renumber them
  //    densely so a sequence assigned only by the failed sequencer cannot
  //    leave a permanent gap.
  uint64_t base = 1;
  for (const auto& [member, state] : flush_states_) {
    base = std::max(base, state.next_total_deliver());
  }
  std::map<MessageId, uint64_t> merged;
  std::map<uint64_t, MessageId> above_base;
  for (const auto& [member, state] : flush_states_) {
    for (const auto& [id, seq] : state.known_assignments()) {
      if (seq < base) {
        merged.emplace(id, seq);
      } else {
        above_base.emplace(seq, id);
      }
    }
  }
  uint64_t next_seq = base;
  for (const auto& [old_seq, id] : above_base) {
    if (!merged.count(id)) {
      merged.emplace(id, next_seq++);
    }
  }
  std::vector<std::pair<MessageId, uint64_t>> merged_vec(merged.begin(), merged.end());

  // 4. Per-survivor ViewInstall with exactly the messages it is missing.
  //    The self-install mutates flush state, so it runs last. Joiners become
  //    members of the new view; they adopt the delivery cut rather than
  //    receiving history.
  const uint64_t new_view_id = flush_view_id_;
  std::vector<MemberId> new_members = survivors;
  for (MemberId joiner : pending_joiners_) {
    new_members.push_back(joiner);
  }
  std::sort(new_members.begin(), new_members.end());
  for (MemberId joiner : pending_joiners_) {
    // Default join: adopt the group cut, no history, no snapshot.
    VectorClock joiner_cut = final_cut;
    std::vector<GroupDataPtr> joiner_missing;
    uint64_t joiner_next_deliver = next_seq;
    net::PayloadPtr app_state;
    if (core_->state_provider) {
      // State transfer: snapshot our application state, which corresponds
      // exactly to our app-delivered vector (the self-install that would
      // advance it runs after this loop). Everything past that cut is either
      // in some survivor's unstable retention buffer (message_union) or in
      // our own causally-delivered-but-not-yet-app-delivered backlog, so the
      // two sets together are a complete resend.
      app_state = core_->state_provider();
      joiner_cut = core_->fifo->app_delivered();
      joiner_next_deliver = core_->total->next_total_deliver();
      std::map<MessageId, GroupDataPtr> beyond = message_union;
      for (const auto& waiting : core_->fifo->pending()) {
        beyond.emplace(waiting.data->id(), waiting.data);
      }
      for (const auto& [id, msg] : beyond) {
        if (id.seq > core_->fifo->app_delivered().Get(id.sender)) {
          joiner_missing.push_back(StripPiggyback(msg));
        }
      }
    }
    auto install = std::make_shared<ViewInstall>(core_->config.group_id, new_view_id, new_members,
                                                 std::move(joiner_missing), merged_vec, next_seq,
                                                 std::move(joiner_cut), joiner_next_deliver,
                                                 std::move(app_state));
    ++core_->stats.flush_control_msgs;
    core_->stats.flush_payload_bytes += install->SizeBytes();
    core_->transport->SendReliable(joiner, GroupPorts::Membership(core_->config.group_id),
                                   install);
  }
  pending_joiners_.clear();
  std::shared_ptr<ViewInstall> own_install;
  for (MemberId member : survivors) {
    const FlushState& state = flush_states_.at(member);
    std::vector<GroupDataPtr> missing;
    for (const auto& [id, msg] : message_union) {
      if (id.seq > state.delivered().Get(id.sender)) {
        missing.push_back(msg);
      }
    }
    auto install = std::make_shared<ViewInstall>(core_->config.group_id, new_view_id, new_members,
                                                 std::move(missing), merged_vec, next_seq,
                                                 final_cut);
    if (member == core_->self) {
      own_install = std::move(install);
    } else {
      ++core_->stats.flush_control_msgs;
      core_->stats.flush_payload_bytes += install->SizeBytes();
      core_->transport->SendReliable(member, GroupPorts::Membership(core_->config.group_id),
                                     install);
    }
  }
  if (own_install) {
    OnViewInstall(*own_install);
  }
}

void MembershipLayer::OnViewInstall(const ViewInstall& install) {
  if (install.view_id() <= core_->view.id) {
    return;
  }

  // A joiner starts at the cut its install names: by default the group's
  // common delivery cut (history it never sees, by design), or — under state
  // transfer — the coordinator's app-delivered vector, after installing the
  // snapshot that corresponds to it. The cut merges *before* ingesting below
  // so the re-forwarded post-cut messages flow through the normal causal
  // path from exactly where the snapshot left off.
  const bool was_joining = joining_;
  if (joining_) {
    if (install.app_state() != nullptr && core_->state_applier) {
      core_->state_applier(install.app_state());
    }
    core_->causal->AdoptCut(install.final_cut());
    core_->fifo->AdoptCut(install.final_cut());
    core_->total->AdoptJoinerFloor(install.next_total_deliver());
    joining_ = false;
  }

  // Ingest redistributed messages through the normal causal path.
  for (const auto& msg : install.missing()) {
    core_->causal->Ingest(msg);
  }

  // Failed-sender cleanup (see CausalLayer::DropFailedSenderBacklog): vd/ad
  // must NOT be force-raised to the cut — everything at or below it flows
  // through the normal causal path, and raising the app gate early would let
  // causal successors overtake it at the application (a real causal-order
  // violation the chaos fuzzer caught). A joiner skips this: its install's
  // cut is the floor it starts from.
  if (!was_joining) {
    core_->causal->DropFailedSenderBacklog(install);
  }
  core_->causal->TryDeliverPending();

  // Adopt the consolidated total order (supersedes anything we hold).
  core_->total->AdoptConsolidatedOrder(install);

  // Install the view.
  core_->view.id = install.view_id();
  core_->view.members = install.members();
  std::sort(core_->view.members.begin(), core_->view.members.end());
  // The overlay is a pure function of the (sorted) member list — rebuild
  // before the layers react so stability's report set and causal's stash
  // drain both see the new tree.
  core_->RebuildOverlay();
  core_->stability->OnViewChange(core_->view);
  core_->causal->OnViewChange(core_->view);
  for (MemberId gone : suspected_) {
    last_heard_.erase(gone);
  }
  suspected_.clear();
  flush_states_.clear();

  // The total-order layer re-seeds its sequencer/token for the new view.
  core_->total->OnViewChange();
  core_->fifo->TryDeliverApp();

  // Unblock.
  if (flushing_) {
    flushing_ = false;
    ++core_->stats.flushes_completed;
    core_->stats.blocked_time += core_->simulator->now() - flush_started_;
  }
  if (core_->view_handler) {
    core_->view_handler(core_->view);
  }
  FinishBlockedSends();
}

void MembershipLayer::FinishBlockedSends() {
  while (!blocked_sends_.empty() && !flushing_) {
    BlockedSend blocked = std::move(blocked_sends_.front());
    blocked_sends_.pop_front();
    core_->pending_deps = std::move(blocked.deps);
    // Re-issue outside flow admission: the send was admitted when it was
    // queued, and shedding or backpressuring it now would silently lose an
    // accepted message.
    const MessageId id =
        core_->member->ReissueBlockedSend(blocked.mode, std::move(blocked.payload)).id;
    // The whole group stopped sending, a wait no per-message semantic
    // dependency asked for. Keyed by the id the send finally got, so it is
    // released after the re-issue has declared that id's dependencies.
    core_->tap.Release(HoldReason::kFlushBlocked, id, blocked.queued_at);
  }
}

}  // namespace catocs
