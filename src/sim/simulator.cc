#include "src/sim/simulator.h"

#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>
#include <tuple>
#include <utility>

namespace sim {

Simulator::Simulator(uint64_t seed) : rng_(seed) {}

EventId Simulator::ScheduleAt(TimePoint when, EventFn&& fn) {
  assert(when >= now_ && "cannot schedule in the past");
  return queue_.Schedule(when, std::move(fn));
}

EventId Simulator::ScheduleAfter(Duration delay, EventFn&& fn) {
  assert(delay >= Duration::Zero());
  return queue_.Schedule(now_ + delay, std::move(fn));
}

bool Simulator::Step() {
  if (queue_.Empty()) {
    return false;
  }
  EventQueue::Fired fired = queue_.PopNext();
  assert(fired.when >= now_);
  now_ = fired.when;
  ++events_executed_;
  fired.fn();
  return true;
}

namespace {

void AppendEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
}

// Trace-event timestamps are microseconds; render the nanosecond clock as
// micros with three exact decimal digits (integer arithmetic, no doubles).
void AppendMicros(std::string& out, int64_t nanos) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03d", nanos / 1000,
                static_cast<int>(nanos % 1000));
  out += buf;
}

std::string DefaultName(uint64_t key) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "m%016" PRIx64, key);
  return buf;
}

}  // namespace

std::string Simulator::ExportTraceEvents(const std::vector<FlowEdge>& flows,
                                         const std::function<std::string(uint64_t)>& namer) const {
  auto name_of = [&namer](uint64_t key) { return namer ? namer(key) : DefaultName(key); };

  // Stable small thread ids per layer, in order of first appearance.
  std::map<std::string, int> layer_tid;
  auto tid_of = [&layer_tid](const char* layer) {
    auto [it, inserted] = layer_tid.emplace(layer, 0);
    if (inserted) {
      it->second = static_cast<int>(layer_tid.size());
    }
    return it->second;
  };

  // Flow arrows anchor at each endpoint's first retained record.
  struct Anchor {
    int64_t nanos = 0;
    uint32_t actor = 0;
    int tid = 0;
  };
  std::map<uint64_t, Anchor> anchors;
  std::set<uint64_t> flow_keys;
  for (const FlowEdge& edge : flows) {
    flow_keys.insert(edge.src_key);
    flow_keys.insert(edge.dst_key);
  }

  std::string out;
  out.reserve(spans_.records().size() * 160 + flows.size() * 220 + 64);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first_event = true;
  auto begin_event = [&out, &first_event] {
    if (!first_event) {
      out += ',';
    }
    first_event = false;
    out += '{';
  };
  auto emit_common = [&](const SpanRecord& r, int tid) {
    out += "\"name\":\"";
    AppendEscaped(out, name_of(r.key));
    out += "\",\"cat\":\"";
    AppendEscaped(out, r.layer);
    out += "\",\"pid\":" + std::to_string(r.actor) + ",\"tid\":" + std::to_string(tid);
  };
  auto emit_args = [&out](const SpanRecord& r, const std::string& extra_note) {
    char key_hex[24];
    std::snprintf(key_hex, sizeof(key_hex), "%016" PRIx64, r.key);
    out += ",\"args\":{\"key\":\"";
    out += key_hex;
    out += "\",\"event\":\"";
    out += sim::ToString(r.event);
    out += '"';
    const std::string& note = extra_note.empty() ? r.note : extra_note;
    if (!note.empty()) {
      out += ",\"note\":\"";
      AppendEscaped(out, note);
      out += '"';
    }
    out += '}';
  };

  // Enter->close pairing per (key, actor, layer); closers are the events
  // that take a message out of a wait (deliver/stable/drop).
  struct OpenSlice {
    int64_t nanos = 0;
    std::string note;
  };
  std::map<std::tuple<uint64_t, uint32_t, std::string>, OpenSlice> open;

  for (const SpanRecord& r : spans_.records()) {
    const int tid = tid_of(r.layer);
    if (flow_keys.count(r.key) && !anchors.count(r.key)) {
      anchors.emplace(r.key, Anchor{r.when.nanos(), r.actor, tid});
    }
    const auto slice_key = std::make_tuple(r.key, r.actor, std::string(r.layer));
    if (r.event == SpanEvent::kEnter) {
      open[slice_key] = OpenSlice{r.when.nanos(), r.note};
      continue;
    }
    const bool closer = r.event == SpanEvent::kDeliver || r.event == SpanEvent::kStable ||
                        r.event == SpanEvent::kDrop;
    if (closer) {
      auto it = open.find(slice_key);
      if (it != open.end()) {
        begin_event();
        emit_common(r, tid);
        out += ",\"ph\":\"X\",\"ts\":";
        AppendMicros(out, it->second.nanos);
        out += ",\"dur\":";
        AppendMicros(out, r.when.nanos() - it->second.nanos);
        emit_args(r, it->second.note);
        out += '}';
        open.erase(it);
        continue;
      }
    }
    begin_event();
    emit_common(r, tid);
    out += ",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
    AppendMicros(out, r.when.nanos());
    emit_args(r, {});
    out += '}';
  }
  // Waits still open when recording stopped: shown as instants at entry.
  for (const auto& [slice_key, slice] : open) {
    begin_event();
    out += "\"name\":\"";
    AppendEscaped(out, name_of(std::get<0>(slice_key)));
    out += "\",\"cat\":\"";
    AppendEscaped(out, std::get<2>(slice_key));
    out += "\",\"pid\":" + std::to_string(std::get<1>(slice_key)) +
           ",\"tid\":" + std::to_string(tid_of(std::get<2>(slice_key).c_str()));
    out += ",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
    AppendMicros(out, slice.nanos);
    out += ",\"args\":{\"open\":true}}";
  }

  // Provenance arrows: one s/f pair per edge, anchored at the endpoints'
  // first records. Edges whose endpoints left no span record are skipped.
  uint64_t flow_id = 0;
  for (const FlowEdge& edge : flows) {
    auto src = anchors.find(edge.src_key);
    auto dst = anchors.find(edge.dst_key);
    if (src == anchors.end() || dst == anchors.end()) {
      continue;
    }
    ++flow_id;
    char key_hex[24];
    for (int half = 0; half < 2; ++half) {
      const Anchor& a = half == 0 ? src->second : dst->second;
      begin_event();
      out += "\"name\":\"";
      AppendEscaped(out, edge.kind);
      out += "\",\"cat\":\"";
      AppendEscaped(out, edge.kind);
      out += "\",\"pid\":" + std::to_string(a.actor) + ",\"tid\":" + std::to_string(a.tid);
      out += ",\"ph\":\"";
      out += half == 0 ? 's' : 'f';
      out += "\",\"id\":" + std::to_string(flow_id);
      if (half == 1) {
        out += ",\"bp\":\"e\"";
      }
      out += ",\"ts\":";
      AppendMicros(out, a.nanos);
      std::snprintf(key_hex, sizeof(key_hex), "%016" PRIx64,
                    half == 0 ? edge.src_key : edge.dst_key);
      out += ",\"args\":{\"key\":\"";
      out += key_hex;
      out += "\",\"src_key\":\"";
      std::snprintf(key_hex, sizeof(key_hex), "%016" PRIx64, edge.src_key);
      out += key_hex;
      out += "\",\"dst_key\":\"";
      std::snprintf(key_hex, sizeof(key_hex), "%016" PRIx64, edge.dst_key);
      out += key_hex;
      out += "\"}}";
    }
  }

  // Thread-name metadata so Perfetto shows layer names per lane.
  for (const auto& [layer, tid] : layer_tid) {
    begin_event();
    out += "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(tid);
    out += ",\"args\":{\"name\":\"";
    AppendEscaped(out, layer);
    out += "\"}}";
  }
  out += "]}";
  return out;
}

uint64_t Simulator::Run() { return RunUntil(TimePoint::Max()); }

uint64_t Simulator::RunUntil(TimePoint deadline) {
  stop_requested_ = false;
  uint64_t executed = 0;
  while (!stop_requested_ && !queue_.Empty()) {
    if (queue_.NextTime() > deadline) {
      break;
    }
    if (event_limit_ != 0 && events_executed_ >= event_limit_) {
      break;
    }
    Step();
    ++executed;
  }
  // Advance the clock to the deadline even if the queue drained earlier, so
  // RunFor(d) always moves time forward by d (bounded deadlines only).
  if (deadline != TimePoint::Max() && now_ < deadline) {
    now_ = deadline;
  }
  return executed;
}

PeriodicTimer::PeriodicTimer(Simulator* simulator, Duration period, EventFn fn)
    : simulator_(simulator), period_(period), fn_(std::move(fn)) {}

PeriodicTimer::~PeriodicTimer() { Stop(); }

void PeriodicTimer::Start(Duration first_delay) {
  Stop();
  running_ = true;
  Arm(first_delay);
}

void PeriodicTimer::Stop() {
  if (pending_.valid()) {
    simulator_->Cancel(pending_);
    pending_ = EventId{};
  }
  running_ = false;
}

void PeriodicTimer::Arm(Duration delay) {
  pending_ = simulator_->ScheduleAfter(delay, [this] {
    pending_ = EventId{};
    // Re-arm before running the callback so the callback may Stop() us.
    Arm(period_);
    fn_();
  });
}

}  // namespace sim
