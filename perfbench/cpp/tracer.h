// Host-time spans for the traced run. The benchmark's own code opens a span
// around each call it makes into the system — set-up, every send or
// transaction submit, every Simulator::Step, every delivery or commit
// callback — so nothing inside src/ changes. Each span has a name, start,
// end and parent (the span open when it began); spans of one message or
// transaction share its key. Spans stay in memory and are written out once
// the run ends; self time is computed from them afterwards.

#ifndef PERFBENCH_CPP_TRACER_H_
#define PERFBENCH_CPP_TRACER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  enum Name : uint8_t { kSetup = 0, kStep, kSend, kSubmit, kDeliver, kCommit, kNumNames };
  static const char* NameOf(Name name);

  static constexpr uint32_t kNoParent = UINT32_MAX;

  struct Span {
    int64_t start_ns = 0;  // steady clock
    int64_t end_ns = 0;
    uint64_t key = 0;  // catocs::SpanKey of the message, or the transaction id
    uint32_t parent = kNoParent;
    Name name = kStep;
  };

  uint32_t Begin(Name name, uint64_t key = 0);
  void End(uint32_t id);
  void SetKey(uint32_t id, uint64_t key) { spans_[id].key = key; }

  // RAII span that is a no-op without a tracer, so workload code reads the
  // same in both runs.
  class Scope {
   public:
    Scope(Tracer* tracer, Name name, uint64_t key = 0)
        : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name, key) : 0) {}
    ~Scope() {
      if (tracer_ != nullptr) {
        tracer_->End(id_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_key(uint64_t key) {
      if (tracer_ != nullptr) {
        tracer_->SetKey(id_, key);
      }
    }

   private:
    Tracer* tracer_;
    uint32_t id_;
  };

  struct Totals {
    uint64_t count = 0;
    double total_s = 0;  // inclusive
    double self_s = 0;   // minus the time covered by direct children
  };
  // Per-name totals over every recorded span.
  std::vector<Totals> Summarize() const;

  const std::vector<Span>& spans() const { return spans_; }

  // Writes the spans as a small text header plus packed little-endian
  // records (see README.md). False if the file cannot be written.
  bool WriteTo(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CPP_TRACER_H_
