// View-synchronous membership: heartbeat failure detection and the flush
// protocol. On suspicion, the surviving member with the lowest id
// coordinates: all survivors stop sending, contribute their unstable
// messages and delivery state, the coordinator computes a common delivery
// cut and redistributes whatever any survivor is missing, and finally a new
// view is installed consistently everywhere. The cost of all of this —
// control messages, re-forwarded payload bytes, and the time sends stay
// blocked — is what experiment E10 measures.
//
// This layer orchestrates the view-install sequence across its siblings
// (causal cut adoption, failed-sender cleanup, consolidated total order,
// stability re-anchoring) in explicit protocol order; see OnViewInstall.

#ifndef REPRO_SRC_CATOCS_MEMBERSHIP_LAYER_H_
#define REPRO_SRC_CATOCS_MEMBERSHIP_LAYER_H_

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "src/catocs/layer.h"

namespace catocs {

class MembershipLayer {
 public:
  explicit MembershipLayer(GroupCore* core) : core_(core) { core->membership = this; }

  MembershipLayer(const MembershipLayer&) = delete;
  MembershipLayer& operator=(const MembershipLayer&) = delete;

  // Starts and stops the heartbeat and failure-check timers (only under
  // config.enable_membership).
  void Start();
  void Stop();
  // Handler for the group's Membership port.
  void OnMessage(MemberId src, const net::PayloadPtr& payload);

  // Facade entry points (see GroupMember for the contracts). A deliberate
  // report is a policy decision about a possibly-alive member (the
  // evict-laggard overload policy) and skips the fresh-evidence veto that
  // guards liveness hearsay; the default covers liveness evidence like
  // transport give-ups.
  void JoinGroup(MemberId contact);
  void ReportFailure(MemberId suspect, bool deliberate = false);

  bool flushing() const { return flushing_; }
  // Sends issued during a flush are queued here and released on install.
  void QueueBlockedSend(OrderingMode mode, net::PayloadPtr payload);

 private:
  void OnJoinRequest(const JoinRequest& request);
  void SendHeartbeats();
  void CheckFailures();
  void HandleSuspicion(MemberId suspect, bool deliberate = false);
  void InitiateFlush();
  void OnFlushRequest(MemberId src, const FlushRequest& req);
  void OnFlushState(MemberId src, const FlushState& state);
  void MaybeCompleteFlush();
  void OnViewInstall(const ViewInstall& install);
  void SendFlushStateTo(MemberId coordinator, uint64_t new_view_id);
  void FinishBlockedSends();

  GroupCore* core_;
  std::unique_ptr<sim::PeriodicTimer> heartbeat_timer_;
  std::unique_ptr<sim::PeriodicTimer> failure_check_timer_;
  std::map<MemberId, sim::TimePoint> last_heard_;
  std::set<MemberId> suspected_;
  bool flushing_ = false;
  uint64_t flush_view_id_ = 0;
  uint64_t quorum_blocked_view_ = 0;  // last flush round counted as blocked
  sim::TimePoint flush_started_;
  std::map<MemberId, FlushState> flush_states_;  // coordinator only
  std::set<MemberId> pending_joiners_;           // coordinator only
  bool joining_ = false;                         // joiner side
  struct BlockedSend {
    OrderingMode mode;
    net::PayloadPtr payload;
    sim::TimePoint queued_at;  // hold attribution under observability
    // Semantic dependencies declared before the send hit the flush block;
    // restored into the core when the send is re-issued so the eventual
    // message still carries them (see GroupMember::DeclareDependency).
    std::vector<MessageId> deps;
  };
  std::deque<BlockedSend> blocked_sends_;
};

}  // namespace catocs

#endif  // REPRO_SRC_CATOCS_MEMBERSHIP_LAYER_H_
