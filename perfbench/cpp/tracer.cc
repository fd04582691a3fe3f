#include "cpp/tracer.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* Tracer::NameOf(Name name) {
  switch (name) {
    case kSetup:
      return "setup";
    case kStep:
      return "step";
    case kSend:
      return "send";
    case kSubmit:
      return "submit";
    case kDeliver:
      return "deliver";
    case kCommit:
      return "commit";
    case kNumNames:
      break;
  }
  return "?";
}

uint32_t Tracer::Begin(Name name, uint64_t key) {
  const uint32_t id = static_cast<uint32_t>(spans_.size());
  Span span;
  span.key = key;
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.name = name;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(id);
  return id;
}

void Tracer::End(uint32_t id) {
  spans_[id].end_ns = NowNs();
  // Scopes nest, so the span ending is the innermost open one.
  open_.pop_back();
}

std::vector<Tracer::Totals> Tracer::Summarize() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::vector<Totals> totals(kNumNames);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const int64_t dur = span.end_ns - span.start_ns;
    Totals& t = totals[span.name];
    ++t.count;
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - child_ns[i]) * 1e-9;
  }
  return totals;
}

bool Tracer::WriteTo(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "perfbench-spans 1 records=%zu names=", spans_.size());
  for (int n = 0; n < kNumNames; ++n) {
    std::fprintf(f, "%s%s", n == 0 ? "" : ",", NameOf(static_cast<Name>(n)));
  }
  std::fprintf(f, " layout=start_ns:i64,end_ns:i64,key:u64,parent:u32,name:u32\n");
  bool ok = true;
  for (const Span& span : spans_) {
    unsigned char rec[32];
    auto put = [&rec](size_t at, uint64_t v, size_t bytes) {
      for (size_t b = 0; b < bytes; ++b) {
        rec[at + b] = static_cast<unsigned char>(v >> (8 * b));
      }
    };
    put(0, static_cast<uint64_t>(span.start_ns), 8);
    put(8, static_cast<uint64_t>(span.end_ns), 8);
    put(16, span.key, 8);
    put(24, span.parent, 4);
    put(28, span.name, 4);
    ok = ok && std::fwrite(rec, sizeof(rec), 1, f) == 1;
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
