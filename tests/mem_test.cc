// Raw-speed allocation primitives: the size-class pool and the inline event
// closure. The pool is process-global, so every stats assertion works in
// deltas; pooled behaviour is skipped in passthrough mode (ASan or
// REPRO_MEM_PASSTHROUGH=1) where every call is operator new.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/mem/pool.h"
#include "src/sim/inline_fn.h"

namespace mem {
namespace {

TEST(PoolTest, RecyclesBlocksThroughFreeLists) {
  if (SizeClassPool::passthrough()) {
    GTEST_SKIP() << "pool disabled (ASan / REPRO_MEM_PASSTHROUGH)";
  }
  SizeClassPool& pool = SizeClassPool::Instance();
  const PoolStats before = pool.stats();

  void* a = pool.Allocate(100);  // 128-byte class
  pool.Deallocate(a, 100);
  void* b = pool.Allocate(90);  // same class: must pop the parked block
  EXPECT_EQ(b, a) << "LIFO reuse of the freshly freed block";
  pool.Deallocate(b, 90);

  const PoolStats after = pool.stats();
  EXPECT_EQ(after.allocations - before.allocations, 2u);
  EXPECT_GE(after.pool_hits - before.pool_hits, 1u);
  EXPECT_EQ(after.frees - before.frees, 2u);
  EXPECT_EQ(after.live_blocks, before.live_blocks);
}

TEST(PoolTest, OversizedBlocksBypassTheFreeLists) {
  SizeClassPool& pool = SizeClassPool::Instance();
  const PoolStats before = pool.stats();
  const size_t big = SizeClassPool::kMaxPooledBytes + 1;

  void* p = pool.Allocate(big);
  ASSERT_NE(p, nullptr);
  pool.Deallocate(p, big);

  if (!SizeClassPool::passthrough()) {
    const PoolStats after = pool.stats();
    EXPECT_EQ(after.fresh_blocks - before.fresh_blocks, 1u)
        << "above kMaxPooledBytes every allocation is fresh";
    EXPECT_EQ(after.free_bytes, before.free_bytes) << "oversized frees are not parked";
  }
}

TEST(PoolTest, TrimFreeListsReleasesParkedBytes) {
  if (SizeClassPool::passthrough()) {
    GTEST_SKIP() << "pool disabled (ASan / REPRO_MEM_PASSTHROUGH)";
  }
  SizeClassPool& pool = SizeClassPool::Instance();
  void* p = pool.Allocate(64);
  pool.Deallocate(p, 64);
  EXPECT_GT(pool.stats().free_bytes, 0u);
  pool.TrimFreeLists();
  EXPECT_EQ(pool.stats().free_bytes, 0u);
}

TEST(PoolTest, MakePooledBehavesLikeMakeShared) {
  struct Payload {
    uint64_t a;
    uint64_t b;
  };
  std::shared_ptr<Payload> p = MakePooled<Payload>(Payload{7, 9});
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->a, 7u);
  EXPECT_EQ(p->b, 9u);
  std::weak_ptr<Payload> w = p;
  p.reset();
  EXPECT_TRUE(w.expired());
}

TEST(InlineFnTest, SmallClosureStaysInline) {
  int hits = 0;
  sim::InlineFn fn([&hits] { ++hits; });
  EXPECT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFnTest, MovePreservesTheClosure) {
  int hits = 0;
  sim::InlineFn a([&hits] { ++hits; });
  sim::InlineFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move): moved-from is empty
  b();
  sim::InlineFn c;
  EXPECT_FALSE(static_cast<bool>(c));
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFnTest, OutsizedCaptureFallsBackToHeap) {
  // > kInlineBytes of capture: four shared_ptrs plus an array.
  auto big = std::make_shared<std::vector<int>>(32, 5);
  uint64_t pad[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  uint64_t sum = 0;
  sim::InlineFn fn([big, pad, &sum] {
    for (uint64_t v : pad) {
      sum += v;
    }
    sum += static_cast<uint64_t>(big->at(0));
  });
  static_assert(sizeof(pad) + sizeof(big) + sizeof(&sum) > 64, "capture must exceed inline storage");
  sim::InlineFn moved(std::move(fn));
  moved();
  EXPECT_EQ(sum, 36u + 5u);
  EXPECT_EQ(big.use_count(), 2) << "heap closure owns one reference until destroyed";
  moved = sim::InlineFn{};
  EXPECT_EQ(big.use_count(), 1) << "destroying the closure releases the capture";
}

TEST(InlineFnTest, DestructionRunsCaptureDestructors) {
  auto token = std::make_shared<int>(1);
  {
    sim::InlineFn fn([token] { (void)token; });
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace mem
