#ifndef SBQA_RUNTIME_RUNTIME_H_
#define SBQA_RUNTIME_RUNTIME_H_

/// \file
/// The runtime seam: everything the mediation pipeline needs from its
/// execution environment — a clock, one-shot timers, destination-addressed
/// message delivery, latency sampling and RNG-stream splitting — behind one
/// abstract interface, so the identical allocation logic runs inside the
/// discrete-event simulation (sim::SimRuntime, bit-identical to driving
/// the Simulation directly) and against real wall-clock traffic
/// (rt::WallClockRuntime). See src/runtime/README.md for the full
/// contract, threading and determinism rules.
///
/// Execution model (all implementations): tasks are run-to-completion on
/// ONE logical executor thread, in a deterministic order for deterministic
/// runtimes — (time, submission order) for the simulation, (deadline,
/// submission order) per service pass for the wall-clock timer core. A
/// task never runs re-entrantly inside Schedule/SendTo; zero-delay work is
/// deferred to the next dispatch, exactly like the simulator's zero-delay
/// events. Every method except Post and its bounded form TryPost must be
/// called from the executor context (setup before the runtime starts also
/// counts); those two are the thread-safe entry points, through which
/// external driver threads inject work.

#include <cstdint>
#include <utility>

#include "util/event_fn.h"
#include "util/rng.h"

namespace sbqa::rt {

/// Runtime time in seconds. Simulated runtimes advance it event by event;
/// wall-clock runtimes report steady-clock seconds since start.
using Time = double;

/// Handle identifying a scheduled task, usable with Cancel(). Encoded as
/// (generation << 32) | slot by both shipped runtimes; never 0, so 0 can
/// serve as a "no task" sentinel.
using TaskId = uint64_t;

/// The runtime's task callback type (move-only, small-buffer-optimized:
/// scheduling a small closure performs no heap allocation — the contract
/// the allocation-regression gates hold both runtimes to).
using TaskFn = util::EventFn;

/// Handle for a registered delivery endpoint (a mediator inbox, a provider
/// inbox, ...). Dense, assigned by RegisterDestination().
using Destination = uint32_t;
inline constexpr Destination kNoDestination = UINT32_MAX;

/// Abstract execution environment of the mediation pipeline.
class Runtime {
 public:
  virtual ~Runtime() = default;

  /// Current runtime time in seconds.
  virtual Time now() const = 0;

  /// Schedules `fn` to run `delay` seconds from now. Requires delay >= 0.
  /// Returns a handle usable with Cancel().
  virtual TaskId Schedule(Time delay, TaskFn fn) = 0;

  /// Schedules `fn` at absolute time `when` (clamped to now when in the
  /// past). Returns a handle usable with Cancel().
  virtual TaskId ScheduleAt(Time when, TaskFn fn) = 0;

  /// Cancels a pending task. Returns false when the task already ran or
  /// was cancelled (stale handles are harmless). O(1), no hashing.
  virtual bool Cancel(TaskId id) = 0;

  /// Thread-safe enqueue of `fn` at the current time — with TryPost, the
  /// only method external threads may call on a running runtime.
  /// Single-threaded runtimes implement it as Schedule(0, fn).
  virtual void Post(TaskFn fn) = 0;

  /// Bounded Post, thread-safe like it: returns false and destroys `fn`
  /// when the runtime bounds its submit queue and the queue is full.
  /// Runtimes without a bound post and return true.
  virtual bool TryPost(TaskFn fn) {
    Post(std::move(fn));
    return true;
  }

  /// Registers a delivery endpoint for destination-addressed sends.
  virtual Destination RegisterDestination() = 0;

  /// Registers a mediator inbox: the endpoint query submissions and result
  /// fan-in travel to, which must stay lossless for every query to reach a
  /// terminal outcome. A plain destination everywhere except the fault
  /// plane, which never faults it.
  virtual Destination RegisterInbox() { return RegisterDestination(); }

  /// Delivers `fn` to `destination` after one sampled one-way latency
  /// (zero in wall-clock runtimes: real traffic brings its own latency).
  /// Each message is delivered on its own, at its own latency, and is not
  /// cancellable.
  virtual void SendTo(Destination destination, TaskFn fn) = 0;

  /// Samples a one-way message latency without sending (the mediation
  /// protocol computes round-trip fan-out delays from this). Wall-clock
  /// runtimes return 0.
  virtual double SampleLatency() = 0;

  /// Derives an independent random stream for an entity. Deterministic
  /// runtimes must make the split sequence a pure function of the seed.
  /// Call during setup (the executor context), never from a foreign
  /// thread while the runtime is running.
  virtual util::Rng SplitRng() = 0;
};

}  // namespace sbqa::rt

#endif  // SBQA_RUNTIME_RUNTIME_H_
