// The one seam for per-message observability (DESIGN.md §6). Each wait
// point (a HoldReason) and each per-message event (send, stamp, app
// delivery, declared dependency, batch hold) is one HoldTap call, fanned out
// to the member's PipelineStats, the simulator's SpanRecorder and the
// group's obs::ProvenanceRecorder, if attached. Only the tap knows, per
// reason, the span layer (LayerOf), the span a release records, whether the
// wait gates delivery, and that a causal-gap release first marks the
// stage-1 delivery for provenance. Off by default, when every call is one
// branch that builds no strings; on, it only records, so replay is unchanged.

#ifndef REPRO_SRC_CATOCS_HOLD_TAP_H_
#define REPRO_SRC_CATOCS_HOLD_TAP_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/catocs/message.h"
#include "src/catocs/pipeline_stats.h"
#include "src/catocs/types.h"
#include "src/sim/span.h"

namespace sim {
class Simulator;
}

namespace catocs {

class HoldTap {
 public:
  // Events then feed `stats`, the simulator's span recorder (which keeps
  // records only when itself enabled) and `provenance` unless it is null.
  void Enable(sim::Simulator* simulator, MemberId self, PipelineStats* stats,
              obs::ProvenanceRecorder* provenance) {
    simulator_ = simulator;
    self_ = self;
    stats_ = stats;
    provenance_ = provenance;
  }
  bool on() const { return stats_ != nullptr; }
  bool has_provenance() const { return provenance_ != nullptr; }

  // `id` reached the wait point for `reason`; the enter span names the
  // reason unless `blocked` is false (a causal arrival whose gate is open).
  // kStability and kOrderAssign holds are timed by the tap, since their
  // layers keep no queue; a repeated entry is ignored. kFlushBlocked sends
  // have no id yet and record no spans.
  void Enter(HoldReason reason, const MessageId& id, bool blocked = true) {
    if (on()) {
      Entered(reason, id, blocked);
    }
  }
  // `id` left the wait point it entered at `entered`.
  void Release(HoldReason reason, const MessageId& id, sim::TimePoint entered) {
    if (on()) {
      Finish(reason, id, entered, {});
    }
  }
  // The tap-timed releases (no-ops for ids never entered): a retained copy
  // became stable by `cause`, or the total order assigned `id` its `seq`.
  void Stable(const MessageId& id, const char* cause) {
    if (on()) {
      FinishTimed(HoldReason::kStability, id, cause);
    }
  }
  void Assigned(const MessageId& id, uint64_t seq) {
    if (on()) {
      FinishTimed(HoldReason::kOrderAssign, id, "seq=" + std::to_string(seq));
    }
  }
  // `id` was abandoned at the wait point it entered at `entered`.
  void Drop(HoldReason reason, const MessageId& id, sim::TimePoint entered, const char* why);

  void Send(const MessageId& id, OrderingMode mode) {
    if (on()) {
      Span(id, sim::SpanEvent::kSend, "member", ToString(mode));
    }
  }
  void Stamp(const MessageId& id, const char* layer) {
    if (on()) {
      Span(id, sim::SpanEvent::kStamp, layer);
    }
  }
  // App delivery: the message's potential-causality frontier, to provenance.
  void Delivered(const GroupData& data) {
    if (provenance_ != nullptr) {
      RecordFrontier(data);
    }
  }
  void Depends(const MessageId& msg, const MessageId& dep);

  // Sender-side batch hold (span-only; batching is no HoldReason): entry,
  // then either the frame carrying `entries` left or the stopping sender
  // abandoned them.
  void Batched(const MessageId& id) {
    if (on()) {
      Span(id, sim::SpanEvent::kEnter, "batch");
    }
  }
  void Unbatched(const std::vector<GroupDataPtr>& entries, bool sent);

 private:
  void Entered(HoldReason reason, const MessageId& id, bool blocked);
  void RecordFrontier(const GroupData& data);
  void Finish(HoldReason reason, const MessageId& id, sim::TimePoint entered, std::string note);
  void FinishTimed(HoldReason reason, const MessageId& id, std::string note);
  void Span(const MessageId& id, sim::SpanEvent event, const char* layer, std::string note = {});

  sim::Simulator* simulator_ = nullptr;
  MemberId self_ = 0;
  PipelineStats* stats_ = nullptr;  // non-null iff on
  obs::ProvenanceRecorder* provenance_ = nullptr;
  std::array<std::map<MessageId, sim::TimePoint>, kNumHoldReasons> entered_;  // tap-timed
};

}  // namespace catocs

#endif  // REPRO_SRC_CATOCS_HOLD_TAP_H_
