#ifndef SBQA_UTIL_TIMER_CORE_H_
#define SBQA_UTIL_TIMER_CORE_H_

/// \file
/// TimerCore: the one timed-event engine behind both clocks. The
/// discrete-event scheduler (sim::Scheduler) and the live runtime
/// (rt::WallClockRuntime) used to carry separate priority structures (a
/// 4-ary heap and a hashed timer wheel); both now sit on this core, which
/// pairs the slot-versioned callback pool (util::SlotPool) with the O(1)
/// ladder queue (util::LadderQueue). The 4-ary heap survives only as the
/// test and bench reference util::EventHeap.
///
/// Contract highlights, shared by every consumer:
///   - A Handle is the pool handle, (generation << 32) | slot, never 0.
///     Cancel is O(1): release the slot, leave the queue entry to be
///     skipped lazily on pop (the seq recorded in the entry no longer
///     matches the slot).
///   - Pop order is the strict total order (when, seq): simultaneous
///     events fire in schedule order, the same sequence any correct
///     priority structure over (when, seq) pops — the bit-reproducibility
///     gates depend on it.
///   - Steady state is allocation-free: callbacks are EventFn
///     (small-buffer), the pool recycles slots, and the ladder retains its
///     capacity. Provision() reserves everything for a known in-flight
///     bound, so nothing reallocates below it.
///
/// Thread-compatibility: single owner context, like the structures it
/// unifies (the sim event loop, or the wall-clock executor).

#include <cstdint>
#include <utility>

#include "util/check.h"
#include "util/event_fn.h"
#include "util/ladder_queue.h"
#include "util/slot_pool.h"

namespace sbqa::util {

class TimerCore {
 public:
  /// Pool handle of a scheduled (or unqueued) event; usable with
  /// Cancel/Take. Never 0.
  using Handle = uint64_t;

  static constexpr double kNoDeadline = 1e300;

  TimerCore() = default;
  TimerCore(const TimerCore&) = delete;
  TimerCore& operator=(const TimerCore&) = delete;

  /// Schedules `fn` at absolute time `when` (the caller enforces its own
  /// monotonicity rules against its clock).
  Handle Schedule(double when, EventFn fn) {
    const Handle id = AcquireSlot(std::move(fn));
    const uint32_t slot = SlotPool<Slot>::SlotOf(id);
    const uint64_t key = (pool_.at(slot).seq << kSlotBits) | slot;
    ladder_.Push(when, key);
    return id;
  }

  /// Acquires a slot for `fn` WITHOUT a queue entry — the caller owns the
  /// ordering (e.g. the wall-clock runtime's zero-delay FIFO lane) and
  /// redeems the handle with Take(). Cancel works on it like any other.
  Handle AcquireUnqueued(EventFn fn) { return AcquireSlot(std::move(fn)); }

  /// Cancels a pending event. False when the handle went stale (already
  /// fired, taken, or cancelled — including a recycled slot, which the
  /// generation half rejects). O(1); the queue entry, if any, dies lazily.
  bool Cancel(Handle id) {
    Slot* s = pool_.Resolve(id);
    if (s == nullptr) return false;
    s->fn = EventFn();  // destroy the callable now; the entry goes stale
    pool_.Release(id);
    return true;
  }

  /// Redeems an unqueued handle: moves the callback out and releases the
  /// slot. False when the handle went stale (cancelled before it ran).
  bool Take(Handle id, EventFn* fn) {
    Slot* s = pool_.Resolve(id);
    if (s == nullptr) return false;
    *fn = std::move(s->fn);
    pool_.Release(id);
    return true;
  }

  /// Pops the earliest live event if its time is <= `limit`: moves its
  /// callback into `fn`, stores its time in `when`, and releases the slot
  /// BEFORE returning, so the callback may freely reschedule (and reuse
  /// this very slot). Stale entries encountered on the way are discarded
  /// regardless of `limit`. False when nothing live is due.
  bool PopDue(double limit, EventFn* fn, double* when) {
    while (true) {
      const LadderQueue::Entry* e = ladder_.Front();
      if (e == nullptr) return false;
      const uint32_t slot = static_cast<uint32_t>(e->key & kSlotMask);
      // Live iff the slot is live AND still carries the entry's seq — the
      // pool keeps payloads on release, so the slot-live check is what
      // rejects a fired/cancelled event's leftover entry.
      if (!pool_.live(slot) || pool_.at(slot).seq != e->key >> kSlotBits) {
        ladder_.PopFront();
        continue;
      }
      if (e->when > limit) return false;
      *when = e->when;
      ladder_.PopFront();
      *fn = std::move(pool_.at(slot).fn);
      pool_.ReleaseSlot(slot);
      return true;
    }
  }

  /// Lower bound on the earliest queued entry's time, kNoDeadline when
  /// the queue is empty. Conservative on two counts: a lazily cancelled
  /// entry may report earlier than the next live event, and the ladder
  /// may report a bucket threshold rather than an exact time — never
  /// later than the true minimum, so parking and window-skip decisions
  /// on it are safe. Exact (to the front entry) right after a PopDue
  /// returned false.
  double MinBound() const { return ladder_.MinBound(); }

  /// Live (scheduled or unqueued, not yet fired/cancelled) events.
  size_t pending() const { return pool_.live_count(); }
  /// Queue entries including lazily cancelled ones (unqueued handles are
  /// not counted).
  size_t queue_size() const { return ladder_.size(); }
  /// Slots ever created — the high-water mark of concurrent events.
  size_t slot_capacity() const { return pool_.size(); }

  /// Reserves the pool and the queue for `n` concurrently pending events
  /// (nothing is constructed or touched until used): a caller whose
  /// liveness is bounded by `n` (an admission cap) then never makes them
  /// reallocate.
  void Provision(size_t n) {
    pool_.Provision(n);
    ladder_.Reserve(n);
  }

 private:
  /// One pooled event. `seq` doubles as the queue-entry liveness check:
  /// an entry is live iff its slot is live AND its recorded seq matches
  /// (a recycled slot carries a newer event's seq).
  struct Slot {
    EventFn fn;
    uint64_t seq = 0;
  };

  /// Queue entries pack (seq << kSlotBits) | slot into their key, so the
  /// seq comparison that breaks timestamp ties doubles as the slot
  /// reference. Capacity: 2^24 concurrently pending events, 2^40 events
  /// per core lifetime (both DCHECK-guarded).
  static constexpr uint32_t kSlotBits = 24;
  static constexpr uint64_t kSlotMask = (1u << kSlotBits) - 1;

  Handle AcquireSlot(EventFn fn) {
    const Handle id = pool_.Acquire();
    const uint32_t slot = SlotPool<Slot>::SlotOf(id);
    SBQA_DCHECK_LT(slot, kSlotMask);
    Slot& s = pool_.at(slot);
    s.seq = next_seq_++;
    SBQA_DCHECK_LT(s.seq, uint64_t{1} << (64 - kSlotBits));
    s.fn = std::move(fn);
    return id;
  }

  util::SlotPool<Slot> pool_;
  LadderQueue ladder_;
  uint64_t next_seq_ = 1;
};

}  // namespace sbqa::util

#endif  // SBQA_UTIL_TIMER_CORE_H_
