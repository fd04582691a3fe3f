#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

namespace sim {

EventQueue::~EventQueue() {
  for (uint32_t slot = 0; slot < fresh_slot_; ++slot) {
    std::destroy_at(&FnAt(slot));
  }
}

uint32_t EventQueue::AllocSlot() {
  if (free_slot_ != kNoSlot) {
    const uint32_t slot = free_slot_;
    free_slot_ = static_cast<uint32_t>(SeqAt(slot) & ~kFreeSlot);
    return slot;
  }
  if (fresh_slot_ == blocks_.size() * kSlotsPerBlock) {
    // Grow the slab by one block (left uninitialized); existing slots stay
    // where they are. The key array starts with room for the first block,
    // so a fresh queue does not regrow it event by event.
    if (blocks_.empty()) {
      heap_.reserve(kSlotsPerBlock);
    }
    blocks_.push_back(std::make_unique_for_overwrite<Block>());
  }
  std::construct_at(&FnAt(fresh_slot_));
  return fresh_slot_++;
}

void EventQueue::FreeSlot(uint32_t slot) {
  SeqAt(slot) = kFreeSlot | free_slot_;
  free_slot_ = slot;
}

void EventQueue::SiftUp(size_t pos, Key key) {
  while (pos > 0) {
    const size_t parent = (pos - 1) / kArity;
    if (!Before(key, heap_[parent])) {
      break;
    }
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = key;
}

void EventQueue::SiftDown(size_t pos, Key key) {
  const size_t n = heap_.size();
  for (;;) {
    const size_t first = pos * kArity + 1;
    if (first >= n) {
      break;
    }
    const size_t last = std::min(first + kArity, n);
    size_t best = first;
    for (size_t child = first + 1; child < last; ++child) {
      if (Before(heap_[child], heap_[best])) {
        best = child;
      }
    }
    if (!Before(heap_[best], key)) {
      break;
    }
    heap_[pos] = heap_[best];
    pos = best;
  }
  heap_[pos] = key;
}

void EventQueue::PopTop() {
  const Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDown(0, last);
  }
}

EventId EventQueue::Schedule(TimePoint when, EventFn&& fn) {
  const uint32_t slot = AllocSlot();
  const Key key{when, next_seq_++, slot};
  SeqAt(slot) = key.seq;
  FnAt(slot) = std::move(fn);
  heap_.push_back(key);
  SiftUp(heap_.size() - 1, key);
  ++live_;
  return EventId{key.seq, slot};
}

bool EventQueue::Cancel(EventId id) {
  // The slot's sequence number is authoritative: an event that already fired
  // or was already cancelled left its slot free (or holding a newer seq after
  // reuse), so a stale handle — including an event cancelling itself from
  // inside its own closure — is always a no-op. Sequence numbers are never
  // reused, so the check can't be fooled; an id from beyond next_seq_ was
  // never issued and could otherwise alias a free-list link.
  if (!id.valid() || id.seq >= next_seq_ || id.slot >= fresh_slot_ ||
      SeqAt(id.slot) != id.seq) {
    return false;
  }
  FnAt(id.slot) = EventFn{};  // free the closure now, not when its key surfaces
  FreeSlot(id.slot);
  --live_;
  // Adaptive compaction: sweep once the dead outnumber the live (never below
  // the small-queue floor). Churn-heavy large runs amortize the rebuild over
  // at least live_ cancellations; small queues never pay at all.
  const size_t dead = heap_.size() - live_;
  if (dead > kCompactMinDead && dead > live_) {
    Compact();
  }
  return true;
}

void EventQueue::Compact() {
  std::erase_if(heap_, [this](const Key& key) { return !IsLive(key); });
  assert(heap_.size() == live_);
  // Floyd's bottom-up heapify over the survivors.
  if (heap_.size() > 1) {
    for (size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) {
      SiftDown(i, heap_[i]);
    }
  }
}

void EventQueue::SkipDead() {
  while (!heap_.empty() && !IsLive(heap_.front())) {
    PopTop();
  }
}

TimePoint EventQueue::NextTime() {
  SkipDead();
  assert(!heap_.empty());
  return heap_.front().when;
}

EventQueue::Fired EventQueue::PopNext() {
  SkipDead();
  assert(!heap_.empty());
  const Key top = heap_.front();
  Fired fired{top.when, std::move(FnAt(top.slot))};
  FreeSlot(top.slot);
  PopTop();
  --live_;
  return fired;
}

}  // namespace sim
