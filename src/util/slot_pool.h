#ifndef SBQA_UTIL_SLOT_POOL_H_
#define SBQA_UTIL_SLOT_POOL_H_

/// \file
/// SlotPool<T>: the slot-versioned object pool behind every hot-path
/// handle in the engine — scheduler events, wall-clock timers, mediator
/// in-flight queries and engine tickets all share this one implementation
/// instead of hand-rolling the same free-list + generation machinery.
///
/// A Handle is (generation << 32) | slot. Generations occupy 31 bits
/// (handles therefore stay positive as int64 — the engine reuses them as
/// model::QueryId), start at 1 and skip 0 on wraparound, so a handle is
/// never 0 and 0 can serve as a universal "none" sentinel. Releasing a
/// slot bumps its generation, which invalidates every handle ever issued
/// for it: a stale handle Resolve()s to null instead of aliasing the
/// slot's next tenant.
///
/// The payload T is NOT destroyed on Release — it stays constructed in the
/// slot so pooled buffers (vectors, small-buffer callables) keep their
/// capacity across reuse. That is the pool's whole point: steady state
/// recycles slots without a single heap allocation. Callers reset whatever
/// fields need resetting after Acquire.
///
/// Thread-compatibility: the pool itself is single-threaded (one owner
/// context, like the executor contract of rt::Runtime). Callers that hand
/// out handles across threads wrap it in their own lock (the engine's
/// ticket table) or confine it to the executor (everything else).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace sbqa::util {

template <typename T>
class SlotPool {
 public:
  /// (generation << 32) | slot; never 0.
  using Handle = uint64_t;

  static constexpr uint32_t kNoSlot = UINT32_MAX;
  /// Generations contribute 31 bits so a handle fits a positive int64.
  static constexpr uint32_t kGenerationMask = 0x7FFFFFFF;

  static uint32_t SlotOf(Handle handle) {
    return static_cast<uint32_t>(handle);
  }
  static uint32_t GenerationOf(Handle handle) {
    return static_cast<uint32_t>(handle >> 32) & kGenerationMask;
  }

  /// Takes a slot from the free list (or builds one more, inside the
  /// provisioned block while it lasts) and marks it live. The payload keeps
  /// whatever state its previous tenant left — reset what matters, reuse
  /// the capacity.
  Handle Acquire() {
    uint32_t slot;
    if (free_head_ != kNoSlot) {
      slot = free_head_;
      free_head_ = entries_[slot].next_free;
      entries_[slot].next_free = kNoSlot;
    } else {
      entries_.emplace_back();
      slot = static_cast<uint32_t>(entries_.size() - 1);
    }
    Entry& entry = entries_[slot];
    entry.live = true;
    ++live_;
    return MakeHandle(entry.generation, slot);
  }

  /// The payload behind `handle`, or null when the handle went stale (its
  /// slot was released, and possibly re-acquired under a new generation).
  T* Resolve(Handle handle) {
    const uint32_t slot = SlotOf(handle);
    if (slot >= entries_.size()) return nullptr;
    Entry& entry = entries_[slot];
    if (!entry.live || entry.generation != GenerationOf(handle)) {
      return nullptr;
    }
    return &entry.value;
  }
  const T* Resolve(Handle handle) const {
    return const_cast<SlotPool*>(this)->Resolve(handle);
  }

  /// Returns `handle`'s slot to the free list and invalidates every handle
  /// ever issued for it. The payload is left constructed (capacity
  /// retention); the slot must currently be live.
  void Release(Handle handle) { ReleaseSlot(SlotOf(handle)); }

  /// Release by raw slot index (for callers that already resolved it).
  void ReleaseSlot(uint32_t slot) {
    Entry& entry = entries_[slot];
    SBQA_CHECK(entry.live);
    entry.live = false;
    if ((++entry.generation & kGenerationMask) == 0) entry.generation = 1;
    entry.generation &= kGenerationMask;
    entry.next_free = free_head_;
    free_head_ = slot;
    --live_;
  }

  /// Direct slot access without the generation check (hot paths that hold
  /// a handle they know is live, heap entries that carry their own
  /// liveness key).
  T& at(uint32_t slot) { return entries_[slot].value; }
  const T& at(uint32_t slot) const { return entries_[slot].value; }
  /// Whether `slot` is currently acquired.
  bool live(uint32_t slot) const {
    return slot < entries_.size() && entries_[slot].live;
  }

  /// Reserves room for `n` slots. Nothing is constructed: Acquire builds
  /// each slot in the reserved block on first use, so a caller whose
  /// concurrent liveness is bounded by `n` (e.g. an admission cap) never
  /// makes the pool reallocate, and Provision costs one allocation
  /// whatever `n` is. A payload that owns buffers of its own allocates
  /// them when its slot is first built, not here.
  void Provision(size_t n) { entries_.reserve(n); }

  /// Slots ever built — the high-water mark of concurrent liveness;
  /// steady-state traffic recycles them without allocating.
  size_t size() const { return entries_.size(); }
  /// Currently acquired slots.
  size_t live_count() const { return live_; }

 private:
  struct Entry {
    T value{};
    uint32_t generation = 1;
    uint32_t next_free = kNoSlot;
    bool live = false;
  };

  static Handle MakeHandle(uint32_t generation, uint32_t slot) {
    return (static_cast<Handle>(generation & kGenerationMask) << 32) | slot;
  }

  std::vector<Entry> entries_;
  uint32_t free_head_ = kNoSlot;
  size_t live_ = 0;
};

}  // namespace sbqa::util

#endif  // SBQA_UTIL_SLOT_POOL_H_
