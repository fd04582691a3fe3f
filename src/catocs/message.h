// Wire-level message types exchanged by the CATOCS protocol machines:
// application data with vector timestamps, total-order assignments from the
// sequencer/token holder, stability (ack-vector) gossip, and membership /
// flush control traffic. Each type reports honest header sizes so the
// benches can account for CATOCS's per-message ordering overhead (§3.4, E12).

#ifndef REPRO_SRC_CATOCS_MESSAGE_H_
#define REPRO_SRC_CATOCS_MESSAGE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/catocs/vector_clock.h"
#include "src/net/payload.h"
#include "src/sim/time.h"

namespace catocs {

using GroupId = uint32_t;

// How a message asked to be delivered.
enum class OrderingMode {
  kUnordered,  // plain multicast; no delivery constraint
  kCausal,     // happens-before preserving (cbcast)
  kTotal,      // single total order, consistent with causality (abcast)
};

const char* ToString(OrderingMode mode);

// A group message is identified by (original sender, per-sender sequence).
struct MessageId {
  MemberId sender = 0;
  uint64_t seq = 0;

  bool operator==(const MessageId&) const = default;
  auto operator<=>(const MessageId&) const = default;
  std::string ToString() const;
};

// Delta-encoded vector timestamp as it would travel on the wire: only the
// entries that changed since the sender's previous frame, plus a flag byte.
// A keyframe carries the full clock and resets the receiver's per-sender
// reference (first frame from a sender, and the first frame after a view
// change). Decoding is wire_codec.h's job; the struct lives here because
// GroupData carries it.
struct WireVt {
  bool keyframe = false;
  VectorClock::Entries entries;  // changed (member, value) pairs, sorted

  // Flag byte + one (member id, counter) pair per carried entry.
  size_t SizeBytes() const { return 1 + entries.size() * VectorClock::kEntryBytes; }
};

// Application data wrapped with CATOCS ordering metadata.
class GroupData : public net::Payload {
 public:
  GroupData(GroupId group, MessageId id, OrderingMode mode, VectorClock vt,
            net::PayloadPtr app_payload, sim::TimePoint sent_at)
      : group_(group),
        id_(id),
        mode_(mode),
        vt_(std::move(vt)),
        app_payload_(std::move(app_payload)),
        sent_at_(sent_at),
        size_bytes_(AppBytes()) {}

  // The app payload plus every piggybacked copy (payload and header):
  // computed at construction and refreshed by set_piggyback, its only other
  // input, because the send, budget and retention paths ask for it several
  // times per copy.
  size_t SizeBytes() const override { return size_bytes_; }
  std::string Describe() const override;

  // Per-layer header breakdown: the base frame (id + mode), the causal
  // layer's vector timestamp, the stability layer's piggybacked ack vector.
  std::vector<net::HeaderSection> HeaderSections() const override;

  // Ordering metadata charged as header bytes: the sum of HeaderSections().
  size_t HeaderBytes() const;
  // Just the causal section: overlay header, wire delta, or full clock.
  size_t CausalHeaderBytes() const;

  GroupId group() const { return group_; }
  const MessageId& id() const { return id_; }
  OrderingMode mode() const { return mode_; }
  const VectorClock& vt() const { return vt_; }
  const net::PayloadPtr& app_payload() const { return app_payload_; }
  sim::TimePoint sent_at() const { return sent_at_; }

  // Vector timestamp, stamped by the causal layer before first transmission
  // (the facade constructs ordered messages with an empty clock and has the
  // causal and stability layers stamp them).
  void set_vt(VectorClock vt) { vt_ = std::move(vt); }

  // Ack vector (the sender's delivered-vector) piggybacked for stability
  // tracking. Set once before first transmission.
  void set_acks(VectorClock acks) { acks_ = std::move(acks); }
  const VectorClock& acks() const { return acks_; }

  // Footnote-4 variant: copies of causally preceding messages carried along
  // instead of delaying at the receiver.
  void set_piggyback(std::vector<std::shared_ptr<const GroupData>> msgs);
  const std::vector<std::shared_ptr<const GroupData>>& piggyback() const { return piggyback_; }

  // Delta-encoded wire form of the vector timestamp (GroupConfig::
  // delta_timestamps). When set, the causal header is charged at the delta's
  // size instead of the full clock's, and receivers reconstruct the full
  // clock against their per-sender reference (causal_layer.cc). Null in the
  // default configuration.
  void set_wire_vt(WireVt wire) { wire_vt_.emplace(std::move(wire)); }
  const WireVt* wire_vt() const { return wire_vt_.has_value() ? &*wire_vt_ : nullptr; }

  // Overlay dissemination (CausalBufferKind::kOverlay): the frame travels
  // over the spanning overlay and its causal header is the constant-size
  // overlay form — the view id the sender stamped it in — instead of any
  // clock (wire_codec.h's kOverlayHeaderBytes). View ids start at 1, so 0
  // doubles as "not an overlay frame". The internal vt_ is still stamped for
  // the invariant oracles but is never charged or consulted on the wire.
  void set_overlay_view(uint64_t view_id) { overlay_view_ = view_id; }
  bool is_overlay() const { return overlay_view_ != 0; }
  uint64_t overlay_view() const { return overlay_view_; }

 private:
  GroupId group_;
  MessageId id_;
  OrderingMode mode_;
  VectorClock vt_;
  net::PayloadPtr app_payload_;
  sim::TimePoint sent_at_;
  VectorClock acks_;
  std::vector<std::shared_ptr<const GroupData>> piggyback_;
  std::optional<WireVt> wire_vt_;
  uint64_t overlay_view_ = 0;  // 0 = not an overlay frame
  size_t size_bytes_;

  // Delivery records built by checker tests carry no app payload.
  size_t AppBytes() const { return app_payload_ != nullptr ? app_payload_->SizeBytes() : 0; }
};

using GroupDataPtr = std::shared_ptr<const GroupData>;

// A copy of `data` without its piggybacked predecessors (shares the app
// payload). Buffered/retransmitted copies must be stripped: retaining the
// piggyback lists would chain buffered messages into an ever-deepening
// structure.
GroupDataPtr StripPiggyback(const GroupDataPtr& data);

// Sender-side batch frame: several consecutive ordered sends from one
// sender coalesced into a single stamped multicast frame
// (GroupConfig::batching > 1). Constituents keep their individual identity,
// timestamps, and delivery obligations — the receiver unpacks and ingests
// them in order — but the wire pays one base frame plus delta-encoded
// per-entry metadata instead of a full header per message. Constituent
// sequence numbers are contiguous starting at first_seq(): only the
// sender's own ordered sends enter its batcher, in send order.
class GroupBatch : public net::Payload {
 public:
  GroupBatch(GroupId group, std::vector<GroupDataPtr> entries);

  // Sum of the constituents' payload sizes (their ordering headers are
  // accounted as header bytes, mirroring GroupData).
  size_t SizeBytes() const override;
  std::string Describe() const override;
  std::vector<net::HeaderSection> HeaderSections() const override;

  // Base frame: group(4) + sender(4) + first_seq(8) + count(2). Per entry:
  // mode(1) + payload_len(4) + vt delta (1 + 12 per changed entry) + ack
  // delta (1 + 12 per changed entry), each delta taken against the previous
  // constituent (the first against empty, i.e. full). Precomputed once at
  // construction; the value is pinned by message_test.
  size_t HeaderBytes() const { return header_bytes_; }
  static constexpr size_t kBaseFrameBytes = 18;

  GroupId group() const { return group_; }
  MemberId sender() const { return entries_.front()->id().sender; }
  uint64_t first_seq() const { return entries_.front()->id().seq; }
  const std::vector<GroupDataPtr>& entries() const { return entries_; }

 private:
  GroupId group_;
  std::vector<GroupDataPtr> entries_;  // non-empty, contiguous seqs
  size_t header_bytes_ = 0;
};

using GroupBatchPtr = std::shared_ptr<const GroupBatch>;

// Total-order assignments from the sequencer (or token holder): a batch of
// (message id -> global sequence number).
class OrderAssignment : public net::Payload {
 public:
  OrderAssignment(GroupId group, std::vector<std::pair<MessageId, uint64_t>> assignments)
      : group_(group), assignments_(std::move(assignments)) {}

  size_t SizeBytes() const override { return assignments_.size() * 20; }
  std::string Describe() const override { return "order"; }

  GroupId group() const { return group_; }
  const std::vector<std::pair<MessageId, uint64_t>>& assignments() const { return assignments_; }

 private:
  GroupId group_;
  std::vector<std::pair<MessageId, uint64_t>> assignments_;
};

// Standalone stability gossip: the sender's delivered-vector.
class AckVector : public net::Payload {
 public:
  AckVector(GroupId group, VectorClock delivered)
      : group_(group), delivered_(std::move(delivered)) {}

  size_t SizeBytes() const override { return delivered_.SizeBytes(); }
  std::string Describe() const override { return "ackvec"; }

  GroupId group() const { return group_; }
  const VectorClock& delivered() const { return delivered_; }

 private:
  GroupId group_;
  VectorClock delivered_;
};

// Tree-aggregated stability traffic for the overlay path (DESIGN.md §11).
// Two directions share the frame: an up-report carries the minimum of the
// sender's own delivered-vector and its children's last up-reports (its
// subtree's delivery floor), sent to its overlay parent; an announcement is
// the root's global minimum flooded down the tree, which every member adopts
// as its release floor. Per gossip round each member sends O(1) of these
// (degree ≤ arity+1), vs. the N ack-vectors of flat gossip.
// Every frame is tagged with the sender's view id: subtree floors are only
// meaningful against the tree both ends computed from the same view, so
// receivers drop mismatches and aggregation restarts from same-view evidence
// after every rewire (overlay_buffer.h).
class StabilityFloor : public net::Payload {
 public:
  StabilityFloor(GroupId group, uint64_t view_id, bool announce, VectorClock floor)
      : group_(group), view_id_(view_id), announce_(announce), floor_(std::move(floor)) {}

  // view id(8) + direction flag(1) + the carried clock.
  size_t SizeBytes() const override { return 9 + floor_.SizeBytes(); }
  std::string Describe() const override { return announce_ ? "floor-announce" : "floor-up"; }

  GroupId group() const { return group_; }
  uint64_t view_id() const { return view_id_; }
  bool announce() const { return announce_; }
  const VectorClock& floor() const { return floor_; }

 private:
  GroupId group_;
  uint64_t view_id_;
  bool announce_;
  VectorClock floor_;
};

// Token for the rotating-sequencer total-order variant. Carries a bounded
// window of recent assignments so the next holder cannot double-assign a
// message whose OrderAssignment broadcast is still in flight — and ordering
// respects causality: each holder sequences every unassigned message it has
// causally delivered, in its local (causal) delivery order.
class OrderToken : public net::Payload {
 public:
  // Assignments arrive sorted by MessageId (the token holder's window is
  // flattened and sorted once per rotation) — the token is re-serialized on
  // every pass, so the window rides as a flat vector rather than a
  // node-per-entry map.
  OrderToken(GroupId group, uint64_t next_total_seq,
             std::vector<std::pair<MessageId, uint64_t>> assignments)
      : group_(group), next_total_seq_(next_total_seq), assignments_(std::move(assignments)) {}

  size_t SizeBytes() const override { return 12 + assignments_.size() * 20; }
  std::string Describe() const override { return "token"; }

  GroupId group() const { return group_; }
  uint64_t next_total_seq() const { return next_total_seq_; }
  const std::vector<std::pair<MessageId, uint64_t>>& assignments() const { return assignments_; }

 private:
  GroupId group_;
  uint64_t next_total_seq_;
  std::vector<std::pair<MessageId, uint64_t>> assignments_;  // sorted by id
};

// --- Membership / flush control -------------------------------------------

class Heartbeat : public net::Payload {
 public:
  Heartbeat(GroupId group, uint64_t view_id) : group_(group), view_id_(view_id) {}
  size_t SizeBytes() const override { return 12; }
  std::string Describe() const override { return "heartbeat"; }
  GroupId group() const { return group_; }
  uint64_t view_id() const { return view_id_; }

 private:
  GroupId group_;
  uint64_t view_id_;
};

// A new process asks to be added to the group; routed to the coordinator,
// which folds the join into a flush so the new view installs consistently.
class JoinRequest : public net::Payload {
 public:
  JoinRequest(GroupId group, MemberId joiner) : group_(group), joiner_(joiner) {}
  size_t SizeBytes() const override { return 8; }
  std::string Describe() const override { return "join-request"; }
  GroupId group() const { return group_; }
  MemberId joiner() const { return joiner_; }

 private:
  GroupId group_;
  MemberId joiner_;
};

class SuspectNotice : public net::Payload {
 public:
  SuspectNotice(GroupId group, MemberId suspect) : group_(group), suspect_(suspect) {}
  size_t SizeBytes() const override { return 8; }
  std::string Describe() const override { return "suspect"; }
  GroupId group() const { return group_; }
  MemberId suspect() const { return suspect_; }

 private:
  GroupId group_;
  MemberId suspect_;
};

class FlushRequest : public net::Payload {
 public:
  FlushRequest(GroupId group, uint64_t new_view_id, std::vector<MemberId> survivors)
      : group_(group), new_view_id_(new_view_id), survivors_(std::move(survivors)) {}
  size_t SizeBytes() const override { return 12 + survivors_.size() * 4; }
  std::string Describe() const override { return "flush-req"; }
  GroupId group() const { return group_; }
  uint64_t new_view_id() const { return new_view_id_; }
  const std::vector<MemberId>& survivors() const { return survivors_; }

 private:
  GroupId group_;
  uint64_t new_view_id_;
  std::vector<MemberId> survivors_;
};

// A member's flush contribution: its delivered-vector plus copies of every
// message it holds that is not yet known stable. The coordinator uses these
// to bring all survivors to a common delivery cut.
class FlushState : public net::Payload {
 public:
  FlushState(GroupId group, uint64_t new_view_id, VectorClock delivered,
             std::vector<GroupDataPtr> unstable,
             std::vector<std::pair<MessageId, uint64_t>> known_assignments,
             uint64_t next_total_deliver)
      : group_(group),
        new_view_id_(new_view_id),
        delivered_(std::move(delivered)),
        unstable_(std::move(unstable)),
        known_assignments_(std::move(known_assignments)),
        next_total_deliver_(next_total_deliver) {}

  size_t SizeBytes() const override;
  std::string Describe() const override { return "flush-state"; }

  GroupId group() const { return group_; }
  uint64_t new_view_id() const { return new_view_id_; }
  const VectorClock& delivered() const { return delivered_; }
  const std::vector<GroupDataPtr>& unstable() const { return unstable_; }
  const std::vector<std::pair<MessageId, uint64_t>>& known_assignments() const {
    return known_assignments_;
  }
  uint64_t next_total_deliver() const { return next_total_deliver_; }

 private:
  GroupId group_;
  uint64_t new_view_id_;
  VectorClock delivered_;
  std::vector<GroupDataPtr> unstable_;
  std::vector<std::pair<MessageId, uint64_t>> known_assignments_;
  uint64_t next_total_deliver_;
};

// Installs the new view; carries any messages a given survivor was missing.
// A joiner's install may additionally carry an application-state snapshot
// from a live member plus the total-order delivery counter the snapshot
// corresponds to (state transfer for crash-recovery rejoin).
class ViewInstall : public net::Payload {
 public:
  ViewInstall(GroupId group, uint64_t view_id, std::vector<MemberId> members,
              std::vector<GroupDataPtr> missing,
              std::vector<std::pair<MessageId, uint64_t>> assignments, uint64_t next_total_seq,
              VectorClock final_cut, uint64_t next_total_deliver = 0,
              net::PayloadPtr app_state = nullptr)
      : group_(group),
        view_id_(view_id),
        members_(std::move(members)),
        missing_(std::move(missing)),
        assignments_(std::move(assignments)),
        next_total_seq_(next_total_seq),
        final_cut_(std::move(final_cut)),
        next_total_deliver_(next_total_deliver),
        app_state_(std::move(app_state)) {}

  size_t SizeBytes() const override;
  std::string Describe() const override { return "view-install"; }

  GroupId group() const { return group_; }
  uint64_t view_id() const { return view_id_; }
  const std::vector<MemberId>& members() const { return members_; }
  const std::vector<GroupDataPtr>& missing() const { return missing_; }
  // Consolidated total-order assignments surviving the view change and the
  // sequence number at which the new view's sequencer continues.
  const std::vector<std::pair<MessageId, uint64_t>>& assignments() const { return assignments_; }
  uint64_t next_total_seq() const { return next_total_seq_; }
  // The common delivery cut: per sender, the count every survivor must reach.
  // Messages from *failed* senders beyond this cut are lost — delivery was
  // atomic but not durable (§2).
  const VectorClock& final_cut() const { return final_cut_; }
  // Total-order delivery counter matching final_cut on a joiner's install
  // (0 = unset; fall back to next_total_seq, the pre-state-transfer rule).
  uint64_t next_total_deliver() const {
    return next_total_deliver_ != 0 ? next_total_deliver_ : next_total_seq_;
  }
  // Application snapshot for a joiner; null on survivor installs or when no
  // state provider is configured.
  const net::PayloadPtr& app_state() const { return app_state_; }

 private:
  GroupId group_;
  uint64_t view_id_;
  std::vector<MemberId> members_;
  std::vector<GroupDataPtr> missing_;
  std::vector<std::pair<MessageId, uint64_t>> assignments_;
  uint64_t next_total_seq_;
  VectorClock final_cut_;
  uint64_t next_total_deliver_ = 0;
  net::PayloadPtr app_state_;
};

}  // namespace catocs

#endif  // REPRO_SRC_CATOCS_MESSAGE_H_
