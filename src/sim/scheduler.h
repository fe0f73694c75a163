#ifndef SBQA_SIM_SCHEDULER_H_
#define SBQA_SIM_SCHEDULER_H_

/// \file
/// Discrete-event scheduler: the heart of the simulation substrate that
/// replaces SimJava from the paper's demo. Events are (time, sequence)
/// ordered, so simultaneous events run in submission order and every run is
/// deterministic.
///
/// The scheduler is a thin clock-and-run loop over util::TimerCore, the
/// unified timer engine shared with the wall-clock runtime: callbacks are
/// EventFn (small-buffer, no heap for the simulator's closures) in a
/// slot-versioned pool, ordered by the O(1) ladder queue — amortized
/// constant Schedule/Step/Cancel even at million-event depths. An EventId
/// is the pool handle, (generation << 32) | slot; Cancel just releases the
/// slot, leaving the queue entry to be discarded lazily on pop, and the
/// generation makes a stale id from a recycled slot harmless.

#include <cstdint>

#include "util/event_fn.h"
#include "util/timer_core.h"

namespace sbqa::sim {

/// Simulated time in seconds.
using Time = double;

/// Handle identifying a scheduled event; usable with Cancel(). Encoded as
/// (generation << 32) | slot; never 0, so 0 can serve as a "no event"
/// sentinel.
using EventId = uint64_t;

/// Discrete-event scheduler with stable FIFO ordering among same-timestamp
/// events, a slot-versioned event pool and lazy queue removal.
class Scheduler {
 public:
  using Callback = util::EventFn;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Schedules `cb` to fire `delay` seconds from now. Requires delay >= 0.
  EventId Schedule(Time delay, util::EventFn cb);

  /// Schedules `cb` at absolute time `when`. Requires when >= now().
  EventId ScheduleAt(Time when, util::EventFn cb);

  /// Cancels a pending event. Returns false when the event already fired or
  /// was cancelled (including when its slot has been recycled by a newer
  /// event — the generation half of the id rejects the stale handle). O(1),
  /// no hashing; the dead queue entry is discarded lazily on pop.
  bool Cancel(EventId id) { return core_.Cancel(id); }

  /// Runs the single next event, if any. Returns false when the queue is
  /// empty (time does not advance in that case).
  bool Step();

  /// Runs all events with timestamp <= `t`, then advances the clock to `t`.
  /// Returns the number of events executed.
  size_t RunUntil(Time t);

  /// RunUntil(now() + d).
  size_t RunFor(Time d);

  /// Runs until the queue drains or `max_events` were executed (a safety
  /// valve against runaway self-scheduling loops). Returns events executed.
  size_t Run(size_t max_events = SIZE_MAX);

  /// Requests Run/RunUntil loops to stop after the current event.
  void RequestStop() { stop_requested_ = true; }

  Time now() const { return now_; }
  bool empty() const { return core_.pending() == 0; }
  /// Lower bound on the next event's timestamp (conservative: a lazily
  /// cancelled entry may report earlier than the next live event, and the
  /// ladder may report a bucket threshold rather than an exact time);
  /// +infinity when nothing is pending. Lets the sharded driver skip
  /// waking workers for windows it can prove empty.
  Time next_event_bound() const {
    const double bound = core_.MinBound();
    return bound >= util::TimerCore::kNoDeadline ? kNoEvent : bound;
  }
  static constexpr Time kNoEvent = 1e300;
  /// Pending (non-cancelled) events.
  size_t pending() const { return core_.pending(); }
  /// Total events executed since construction.
  uint64_t executed() const { return executed_; }
  /// Cancelled events still awaiting lazy removal from the queue (bounded
  /// by the queue size; exposed for leak regression tests).
  size_t cancelled_backlog() const {
    return core_.queue_size() - core_.pending();
  }
  /// Event slots ever created (high-water mark of concurrently pending
  /// events; steady-state scheduling recycles them without allocating).
  size_t slot_capacity() const { return core_.slot_capacity(); }
  /// Pre-sizes the event pool and queue for `n` concurrently pending
  /// events (see util::TimerCore::Provision).
  void Provision(size_t n) { core_.Provision(n); }

 private:
  util::TimerCore core_;
  Time now_ = 0;
  uint64_t executed_ = 0;
  bool stop_requested_ = false;
};

}  // namespace sbqa::sim

#endif  // SBQA_SIM_SCHEDULER_H_
