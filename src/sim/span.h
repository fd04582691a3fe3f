// Per-message lifecycle spans, in the style of Dapper-like request tracing:
// each record marks one event in a message's life (send, header stamping,
// entering a layer's wait queue, delivery, stability) together with the
// observing node, the owning layer, and an optional hold reason. Records are
// kept in a bounded ring so long chaos runs retain the most recent history;
// ForKey() reconstructs one message's timeline for post-mortem dumps (e.g.
// `fuzz_chaos --trace` printing the span history of a violating message).
//
// The recorder is disabled by default and Record() is a cheap early-out, so
// instrumented protocol code costs nothing in ordinary runs.

#ifndef REPRO_SRC_SIM_SPAN_H_
#define REPRO_SRC_SIM_SPAN_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace sim {

enum class SpanEvent : uint8_t {
  kSend,     // message handed to the protocol for multicast
  kStamp,    // a layer stamped its header section onto the message
  kEnter,    // message entered a layer's wait queue / retention buffer
  kDeliver,  // message left a layer toward the application
  kStable,   // retention copy released: message known delivered everywhere
  kDrop,     // message abandoned (e.g. failed-sender backlog at a view change)
};

const char* ToString(SpanEvent event);

struct SpanRecord {
  uint64_t key = 0;    // caller-encoded message identity (see catocs::SpanKey)
  uint32_t actor = 0;  // node/member observing the event
  TimePoint when;
  SpanEvent event = SpanEvent::kSend;
  const char* layer = "";  // static string naming the reporting layer
  std::string note;        // hold reason or extra detail; often empty

  std::string ToString() const;
};

// A directed provenance edge between two span keys, rendered as a flow
// arrow (predecessor -> dependent) in the Chrome trace-event export. The
// kind is a static string naming the edge's origin (e.g. "semantic",
// "hidden", "spurious" — see obs::ProvenanceRecorder::FlowEdges()).
struct FlowEdge {
  uint64_t src_key = 0;  // arrow tail: the predecessor message
  uint64_t dst_key = 0;  // arrow head: the dependent message
  const char* kind = "";
};

class SpanRecorder {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Ring bound: once full, the oldest record is evicted per new record.
  void set_capacity(size_t capacity);
  size_t capacity() const { return capacity_; }

  void Record(uint64_t key, uint32_t actor, TimePoint when, SpanEvent event, const char* layer,
              std::string note = {});

  const std::deque<SpanRecord>& records() const { return records_; }
  // Every record ever accepted, including those the ring has since evicted.
  uint64_t total_recorded() const { return total_recorded_; }
  uint64_t evicted() const { return total_recorded_ - records_.size(); }

  // One message's retained timeline, oldest first; at most `max_events` of
  // the most recent events when the timeline is longer.
  std::vector<SpanRecord> ForKey(uint64_t key, size_t max_events = SIZE_MAX) const;

  // Multi-line rendering of a timeline (or of everything retained).
  static std::string Render(const std::vector<SpanRecord>& records);
  std::string ToString() const;

  void Clear();

 private:
  bool enabled_ = false;
  size_t capacity_ = 1 << 16;
  std::deque<SpanRecord> records_;
  uint64_t total_recorded_ = 0;
};

}  // namespace sim

#endif  // REPRO_SRC_SIM_SPAN_H_
