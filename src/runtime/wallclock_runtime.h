#ifndef SBQA_RUNTIME_WALLCLOCK_RUNTIME_H_
#define SBQA_RUNTIME_WALLCLOCK_RUNTIME_H_

/// \file
/// WallClockRuntime: the live-traffic implementation of the runtime seam.
/// Time is whatever its executor advances it to with RunPass / AdvanceTo —
/// a shard worker of rt::WallClockShardSet feeding it steady-clock seconds
/// since the shard set started, or a test / replay driver feeding it a
/// fake clock. Timers live in the unified timer core (util::TimerCore — the
/// same O(1) ladder queue the simulator runs on); external driver threads
/// inject work through a mutex-guarded MPSC submit queue (Post / TryPost),
/// the only thread-safe entry points. Message latency is zero — real
/// traffic brings its own.
///
/// Like the discrete-event scheduler it mirrors, the steady state is
/// allocation-free: tasks are TaskFn (small-buffer-optimized) in the
/// core's slot-versioned pool, the ladder's buckets and the submit queue
/// retain their capacity, and Cancel is O(1) with lazy queue removal. The
/// engine-facade Submit path is held to 0 heap allocations per query under
/// this runtime by the same counting-allocator gates as the simulation.
///
/// The runtime owns no thread: whoever calls RunPass or AdvanceTo is the
/// executor. A service pass runs at most kPassBatch submissions, so a
/// burst waits in the submit queue as submissions, not as half-run work,
/// and a pass is deterministic given the submissions it finds: timers
/// fire in (due time, submission seq) order, each one's zero-delay
/// follow-ups before any later timer, and the submissions' zero-delay
/// chains settle last, at the pass clock.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "runtime/runtime.h"
#include "util/rng.h"
#include "util/timer_core.h"

namespace sbqa::rt {

/// Tuning knobs of the wall-clock runtime.
struct WallClockOptions {
  /// Seed of the runtime's root RNG stream (SplitRng derivations).
  uint64_t seed = 42;
  /// Test/replay seam, read by rt::WallClockShardSet: no worker threads,
  /// no steady clock — the caller drives lock-step windows and time.
  bool manual_clock = false;
  /// Bound on the submit queue: TryPost rejects (returns false) once this
  /// many tasks are queued, giving callers a deterministic overload signal
  /// instead of an unbounded queue. Submissions the executor already took
  /// from the queue but has not run yet (at most one earlier queue's worth)
  /// are not counted. 0 = unbounded. Post itself is never bounded
  /// (internal control-plane traffic must not be droppable).
  size_t max_queue = 0;
  /// Reserves the timer pool for this many slots at construction (slots
  /// are built on first use). Callers with a hard in-flight bound (the
  /// engine's max_pending admission cap) set it so scheduling never
  /// reallocates the pool under load. 0 = grow on demand.
  size_t reserve_timers = 0;
};

/// rt::Runtime serving wall-clock traffic. One executor at a time (the
/// thread calling RunPass / AdvanceTo); Post is the MPSC entry for
/// everything else.
class WallClockRuntime final : public Runtime {
 public:
  explicit WallClockRuntime(const WallClockOptions& options = {});

  WallClockRuntime(const WallClockRuntime&) = delete;
  WallClockRuntime& operator=(const WallClockRuntime&) = delete;

  // --- Runtime interface (executor context only, except Post) ---------------

  Time now() const override { return now_.load(std::memory_order_relaxed); }
  TaskId Schedule(Time delay, TaskFn fn) override;
  TaskId ScheduleAt(Time when, TaskFn fn) override;
  bool Cancel(TaskId id) override;
  void Post(TaskFn fn) override;
  /// Bounded admission variant of Post: enqueues and returns true unless
  /// options.max_queue > 0 and that many submissions are already waiting,
  /// in which case the task is rejected (returns false, fn destroyed).
  /// Thread-safe like Post; the reject decision is made atomically under
  /// the queue lock, so concurrent submitters shed deterministically by
  /// arrival order at the lock.
  bool TryPost(TaskFn fn) override;
  Destination RegisterDestination() override;
  /// Zero-latency deferred delivery: runs later in the current service
  /// pass (never re-entrantly), preserving send order.
  void SendTo(Destination destination, TaskFn fn) override;
  double SampleLatency() override { return 0.0; }
  util::Rng SplitRng() override;

  // --- Executor --------------------------------------------------------------

  /// Submissions one service pass runs at most. A pass also fires every
  /// timer due at its clock, so a query dispatched in one pass completes in
  /// the next instead of behind a whole burst. The bound keeps a pass well
  /// under one 2 ms barrier tick: at saturation a served query costs
  /// ~1.6 us of CPU, its driver's Submit included (perfbench serve_small's
  /// warm-up blast, every thread on one core of a 4-core VM), so a full
  /// batch settles in ~0.4 ms, and a barrier pull or a due completion
  /// waits at most that. It is still large enough that the per-pass clock
  /// read and park check stay a small share of a pass under load.
  static constexpr size_t kPassBatch = 256;

  /// One service pass at time `t` (monotonic; earlier values clamp to now):
  /// runs at most kPassBatch submissions in post order, fires every timer
  /// due at <= t in (due time, submission seq) order, then settles the
  /// zero-delay chains the submissions started. Zero-delay work is due at
  /// the time of the task that scheduled it: a timer's follow-ups run
  /// before any later timer pops, as in the simulator, and a submission's
  /// hops run at the pass clock, after every due timer. Returns whether
  /// submissions are left or were posted meanwhile: another pass has work
  /// in hand. Shard workers call this with the steady clock, one pass per
  /// clock read.
  bool RunPass(Time t);

  /// Runs passes at `t` until no submission is left: everything posted
  /// and everything due at <= t runs, and zero-delay chains settle, like
  /// the simulator's RunUntil. How manual-clock drivers advance a shard.
  void AdvanceTo(Time t) {
    while (RunPass(t)) {
    }
  }

  /// Parks the calling thread (which must be the executor) until a Post
  /// arrives, WakeExecutor() is called, or `max_wait_seconds` elapsed —
  /// whichever comes first (waits are capped at an hour). Returns
  /// immediately when submissions are left from the last pass, are already
  /// queued, or a wake is pending (a wake that lands before the wait is
  /// not lost). How rt::WallClockShardSet workers idle between barriers.
  void WaitForWork(double max_wait_seconds);

  /// Thread-safe nudge: wakes the executor out of WaitForWork (or makes
  /// its next WaitForWork return at once) without enqueueing a task.
  void WakeExecutor();

  /// Lower bound on the earliest pending timer deadline (kNever when no
  /// timer is armed). Executor context only — this is the parking horizon
  /// the executor itself maintains.
  double next_timer_due() const { return next_due_; }
  static constexpr double kNever = 1e300;

  // --- Telemetry (safe from any thread) --------------------------------------

  /// Tasks executed since construction (timers + posted).
  uint64_t tasks_executed() const {
    return tasks_executed_.load(std::memory_order_relaxed);
  }
  /// Pending timers (scheduled, not yet fired or cancelled).
  size_t pending_timers() const {
    return live_timers_.load(std::memory_order_relaxed);
  }
  /// Whether nothing is pending: no queued or left-over submissions, no
  /// live timers.
  bool idle() const;
  /// Timer slots ever created (high-water mark of concurrently pending
  /// timers; steady-state scheduling recycles them without allocating).
  size_t slot_capacity() const {
    return slot_capacity_.load(std::memory_order_relaxed);
  }

 private:
  /// Refreshes the cross-thread gauges from the (executor-owned) core
  /// after any operation that changed it.
  void SyncTimerGauges() {
    live_timers_.store(timers_.pending(), std::memory_order_relaxed);
    slot_capacity_.store(timers_.slot_capacity(), std::memory_order_relaxed);
  }

  /// Whether the drain buffer still holds submissions to run (it is
  /// emptied as soon as its last one has run).
  bool batch_left() const { return !drain_scratch_.empty(); }
  /// Runs at most kPassBatch submissions (FIFO), refilling the drain
  /// buffer from the submit queue once it is used up.
  void RunSubmissions();
  /// Fires timers due at <= t in (when, seq) order straight off the core,
  /// each followed by its zero-delay chain, then settles the zero-delay
  /// work queued before them.
  void FireDueTimers(Time t);
  /// Runs the zero-delay lane until it is empty (FIFO == seq order).
  void RunImmediate();
  /// Runs one task and counts it.
  void RunTask(TaskFn& fn) {
    fn();
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  }

  WallClockOptions options_;
  util::Rng rng_;

  // Executor-owned state. now_ is atomic only so foreign threads can read
  // the clock (Engine::now); all writes come from the executor.
  std::atomic<double> now_{0};
  /// The unified timer core (ladder queue + slot pool): every timer with a
  /// real deadline is queued here; already-due tasks take the immediate_
  /// lane below with an unqueued slot.
  util::TimerCore timers_;
  /// Zero-delay fast path: tasks due immediately (Schedule(0) chains,
  /// SendTo deliveries) bypass the queue — they are the hot traffic, and
  /// this keeps the ladder's buckets for real timers. Entries are unqueued
  /// core handles, redeemed (or skipped, if cancelled) by Take().
  std::vector<TaskId> immediate_;
  std::vector<TaskId> immediate_scratch_;
  /// The zero-delay work a pass found queued, set aside while the due
  /// timers fire (see FireDueTimers). Empty between passes.
  std::vector<TaskId> pass_immediate_;
  /// Submissions taken from the submit queue in one swap; those from
  /// drain_next_ on wait for a later pass. Executor-owned, so a batch left
  /// over costs no lock.
  std::vector<TaskFn> drain_scratch_;
  size_t drain_next_ = 0;
  Destination next_destination_ = 0;
  /// Lower bound on the earliest pending timer deadline (the executor's
  /// parking horizon). Only ever stale LOW — a too-early wakeup runs an
  /// empty pass and recomputes; never stale high, so no timer oversleeps.
  double next_due_ = kNever;

  // MPSC submit queue + executor parking.
  mutable std::mutex submit_mu_;
  std::condition_variable submit_cv_;
  std::vector<TaskFn> submit_queue_;
  /// Whether submit_queue_ holds tasks: written under submit_mu_ (set by
  /// Post/TryPost, cleared by the drain's swap) and read by the executor
  /// without it, so a service pass with nothing posted takes no lock.
  std::atomic<bool> submit_posted_{false};
  /// A WakeExecutor() not yet consumed by WaitForWork (guarded by
  /// submit_mu_).
  bool wake_pending_ = false;

  // Cross-thread telemetry.
  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<size_t> live_timers_{0};
  std::atomic<size_t> slot_capacity_{0};
  /// The executor is mid-pass or holds a batch left over (idle() reads it).
  std::atomic<bool> busy_{false};
};

}  // namespace sbqa::rt

#endif  // SBQA_RUNTIME_WALLCLOCK_RUNTIME_H_
