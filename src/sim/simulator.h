// The discrete-event simulation engine.
//
// A Simulator owns the virtual clock, the pending-event set, a deterministic
// RNG, a metrics registry, and a span recorder. Protocol and application
// code never sleeps or reads wall-clock time; it schedules closures and reacts
// when they fire. Runs are exactly reproducible for a given seed and schedule
// order.

#ifndef REPRO_SRC_SIM_SIMULATOR_H_
#define REPRO_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/metrics.h"
#include "src/sim/rng.h"
#include "src/sim/span.h"
#include "src/sim/time.h"

namespace sim {

class Simulator {
 public:
  explicit Simulator(uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const { return now_; }
  Rng& rng() { return rng_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  SpanRecorder& spans() { return spans_; }
  const SpanRecorder& spans() const { return spans_; }

  EventId ScheduleAt(TimePoint when, EventFn&& fn);
  EventId ScheduleAfter(Duration delay, EventFn&& fn);
  void Cancel(EventId id) { queue_.Cancel(id); }

  // Runs until no events remain. Returns the number of events executed.
  uint64_t Run();
  // Runs until the clock would pass `deadline` (events at exactly `deadline`
  // run) or no events remain.
  uint64_t RunUntil(TimePoint deadline);
  uint64_t RunFor(Duration d) { return RunUntil(now_ + d); }
  // Executes exactly one event if any remain. Returns false when idle.
  bool Step();

  // Request that the current Run()/RunUntil() return after the in-flight
  // event completes.
  void RequestStop() { stop_requested_ = true; }

  uint64_t events_executed() const { return events_executed_; }
  size_t pending_events() const { return queue_.size(); }

  // Guard against runaway simulations (e.g. a retransmit loop that never
  // quiesces). 0 disables the limit.
  void set_event_limit(uint64_t limit) { event_limit_ = limit; }

  // Renders the retained span records (plus optional provenance flow edges)
  // as a complete Chrome trace-event JSON document, loadable in Perfetto.
  // Enter->deliver/stable/drop pairs on the same (key, actor, layer) become
  // duration slices; unmatched events become instants; flow edges become
  // s/f arrow pairs anchored at the two messages' first retained records.
  // `namer` labels events from a span key (hex key when omitted). Purely a
  // function of the retained records, so a deterministic run exports a
  // byte-identical document.
  std::string ExportTraceEvents(const std::vector<FlowEdge>& flows = {},
                                const std::function<std::string(uint64_t)>& namer = {}) const;

 private:
  TimePoint now_ = TimePoint::Zero();
  EventQueue queue_;
  Rng rng_;
  MetricsRegistry metrics_;
  SpanRecorder spans_;
  uint64_t events_executed_ = 0;
  uint64_t event_limit_ = 0;
  bool stop_requested_ = false;
};

// Repeating timer helper built on the simulator. Cancellation-safe: the
// object may be destroyed from within its own callback.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator* simulator, Duration period, EventFn fn);
  ~PeriodicTimer();

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void Start(Duration first_delay);
  void Stop();
  bool running() const { return running_; }

 private:
  void Arm(Duration delay);

  Simulator* simulator_;
  Duration period_;
  EventFn fn_;
  EventId pending_{};
  bool running_ = false;
};

}  // namespace sim

#endif  // REPRO_SRC_SIM_SIMULATOR_H_
