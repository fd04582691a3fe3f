// Pending-event set for the discrete-event simulator.
//
// Events are closures keyed by (fire time, insertion sequence). The sequence
// tiebreak makes (when, seq) a strict total order, so execution order is
// fully deterministic when many events share a timestamp — and independent
// of the heap's internal shape.
//
// The structure is a flat 4-ary min-heap of small (when, seq, slot) keys; the
// closures live apart in a slab of fixed-size blocks, addressed by slot, so
// sifting moves 24-byte keys and never touches (or relocates) a closure. An
// EventId is the event's (seq, slot), so Cancel is O(1): it checks that the
// slot still holds that seq, frees the closure and puts the slot back on the
// free list, which overwrites the seq. The cancelled key stays in the heap.
// Sequence numbers are never reused, so a key whose slot no longer carries
// its seq is recognisably dead when it surfaces at the top, however often the
// slot has been reused since.
// Once dead keys outnumber live ones (above a small floor), a compaction pass
// filters them out and re-heapifies — pop order depends only on (when, seq),
// so compaction never perturbs replay.

#ifndef REPRO_SRC_SIM_EVENT_QUEUE_H_
#define REPRO_SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/inline_fn.h"
#include "src/sim/time.h"

namespace sim {

// Move-only, inline-storage closure: scheduling an event no longer
// heap-allocates for typical captures (see inline_fn.h).
using EventFn = InlineFn;

// Opaque handle for cancelling a scheduled event. The sequence number is the
// identity (never reused); the slot says where its closure lives. A handle
// whose slot has been freed or reused simply fails to cancel, it can never
// cancel the wrong event.
struct EventId {
  uint64_t seq = 0;
  uint32_t slot = 0;

  bool valid() const { return seq != 0; }
};

class EventQueue {
 public:
  EventQueue() = default;
  ~EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules fn to run at `when`. Events scheduled for the same instant run
  // in schedule order.
  EventId Schedule(TimePoint when, EventFn&& fn);

  // Cancels a pending event. Returns false if it already ran or was already
  // cancelled — in particular, an event cancelling itself from inside its own
  // closure (a timeout that fires and then "cancels" its handle) is a no-op.
  bool Cancel(EventId id);

  // True if no live (non-cancelled) events remain.
  bool Empty() const { return live_ == 0; }

  size_t size() const { return live_; }
  // Keys physically in the heap, including lazily cancelled ones (exposed so
  // tests can observe compaction).
  size_t heap_size() const { return heap_.size(); }

  // Fire time of the next live event. Must not be called when Empty().
  TimePoint NextTime();

  // Removes and returns the next live event. Must not be called when Empty().
  struct Fired {
    TimePoint when;
    EventFn fn;
  };
  Fired PopNext();

 private:
  struct Key {
    TimePoint when;
    uint64_t seq;
    uint32_t slot;
  };

  // (when, seq) strict total order: the heap top is always the unique
  // minimum, so pop order equals sorted order regardless of heap shape.
  static bool Before(const Key& a, const Key& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.seq < b.seq;
  }

  static constexpr size_t kArity = 4;
  static constexpr uint32_t kSlotsPerBlockLog2 = 10;
  static constexpr uint32_t kSlotsPerBlock = 1u << kSlotsPerBlockLog2;
  // Never compact below this many dead keys: small queues shouldn't pay for
  // rebuild passes. Above it, compact once the dead outnumber the live —
  // the threshold scales with the live set, so a 10k-process run tolerates
  // proportionally more lazy garbage before sweeping.
  static constexpr size_t kCompactMinDead = 128;
  static constexpr uint64_t kFreeSlot = uint64_t{1} << 63;
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  // One slab block. The seqs sit apart from the closures, so the stale-key
  // check reads a dense array and a slot costs nothing beyond its closure
  // and seq. Closures are constructed only as their slots are first handed
  // out, so a fresh block costs no page touches up front.
  struct Block {
    union Closure {
      Closure() {}
      ~Closure() {}
      EventFn fn;
    };
    // The live event's seq (never reused), or kFreeSlot | the next free
    // slot: live seqs stay far below kFreeSlot, so no key ever matches a
    // free slot.
    uint64_t seq[kSlotsPerBlock];
    Closure closure[kSlotsPerBlock];
  };

  uint64_t& SeqAt(uint32_t slot) {
    return blocks_[slot >> kSlotsPerBlockLog2]->seq[slot & (kSlotsPerBlock - 1)];
  }
  EventFn& FnAt(uint32_t slot) {
    return blocks_[slot >> kSlotsPerBlockLog2]->closure[slot & (kSlotsPerBlock - 1)].fn;
  }
  bool IsLive(const Key& key) { return SeqAt(key.slot) == key.seq; }

  uint32_t AllocSlot();
  void FreeSlot(uint32_t slot);
  void SiftUp(size_t pos, Key key);
  void SiftDown(size_t pos, Key key);
  // Removes the heap top.
  void PopTop();
  // Pops dead keys until the top is live (or the heap is empty).
  void SkipDead();
  // Rebuilds the heap from its live keys only.
  void Compact();

  std::vector<Key> heap_;
  // Closure slab: fixed-size blocks, so a slot never moves once allocated.
  std::vector<std::unique_ptr<Block>> blocks_;
  uint32_t free_slot_ = kNoSlot;  // head of the free list threaded through seq
  uint32_t fresh_slot_ = 0;  // slots below this have been handed out before
  size_t live_ = 0;
  uint64_t next_seq_ = 1;
};

}  // namespace sim

#endif  // REPRO_SRC_SIM_EVENT_QUEUE_H_
