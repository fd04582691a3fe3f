#include "cpp/reference.h"

#include <malloc.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

struct Node {
  uint64_t words[8];
};

uint64_t Next(uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

double TimeReferenceKernel() {
  const auto start = std::chrono::steady_clock::now();
  uint64_t x = 88172645463325252ull;
  uint64_t acc = 0;
  // An event-queue-like heap of 16k timers over 8 MB of 64-byte nodes ...
  std::vector<Node> nodes(1 << 17);
  using Entry = std::pair<uint64_t, uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (int i = 0; i < 16384; ++i) {
    heap.push({Next(x) & 0xffffff, static_cast<uint32_t>(x >> 40)});
  }
  for (int i = 0; i < 250000; ++i) {
    const auto [when, id] = heap.top();
    heap.pop();
    Node& node = nodes[id & (nodes.size() - 1)];
    node.words[i & 7] += when;
    acc += node.words[(i + 3) & 7];
    heap.push({when + (Next(x) & 0xffff), static_cast<uint32_t>(x >> 40)});
  }
  // ... and hash-map churn of shared, heap-allocated messages.
  std::unordered_map<uint64_t, std::shared_ptr<Node>> live;
  for (int i = 0; i < 200000; ++i) {
    std::shared_ptr<Node>& slot = live[Next(x) & 0xffff];
    if (slot) {
      acc += slot->words[0];
      slot.reset();
    } else {
      slot = std::make_shared<Node>();
      slot->words[0] = x;
    }
  }
  volatile uint64_t sink = acc + live.size();
  (void)sink;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  live.clear();
  // Hand the kernel's freed heap back, so it never counts as the workload's
  // resident memory.
  malloc_trim(0);
  return elapsed;
}

}  // namespace perfbench
