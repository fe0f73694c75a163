#include "runtime/wallclock_runtime.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/check.h"

namespace sbqa::rt {

WallClockRuntime::WallClockRuntime(const WallClockOptions& options)
    : options_(options), rng_(options.seed) {
  // Executor scratch: sized for a healthy burst up front so the
  // steady-state service pass never grows them.
  immediate_.reserve(256);
  immediate_scratch_.reserve(256);
  pass_immediate_.reserve(256);
  drain_scratch_.reserve(256);
  submit_queue_.reserve(256);
  if (options_.reserve_timers > 0) {
    timers_.Provision(options_.reserve_timers);
    // The zero-delay lanes scale with the same in-flight bound as the
    // pool itself: a pass can find every provisioned timer due at once.
    immediate_.reserve(options_.reserve_timers);
    immediate_scratch_.reserve(options_.reserve_timers);
    pass_immediate_.reserve(options_.reserve_timers);
  }
}

// --- Runtime interface -------------------------------------------------------

TaskId WallClockRuntime::Schedule(Time delay, TaskFn fn) {
  SBQA_CHECK_GE(delay, 0);
  return ScheduleAt(now() + delay, std::move(fn));
}

TaskId WallClockRuntime::ScheduleAt(Time when, TaskFn fn) {
  if (when < now()) when = now();
  TaskId id;
  if (when <= now()) {
    // Zero-delay fast path: already due, at the time of the task that
    // scheduled it (see FireDueTimers). The slot is unqueued — the
    // immediate_ FIFO owns the ordering.
    id = timers_.AcquireUnqueued(std::move(fn));
    immediate_.push_back(id);
  } else {
    id = timers_.Schedule(when, std::move(fn));
    if (when < next_due_) next_due_ = when;
  }
  SyncTimerGauges();
  return id;
}

bool WallClockRuntime::Cancel(TaskId id) {
  if (!timers_.Cancel(id)) return false;
  SyncTimerGauges();
  return true;
}

void WallClockRuntime::Post(TaskFn fn) {
  {
    std::lock_guard<std::mutex> lock(submit_mu_);
    submit_queue_.push_back(std::move(fn));
    submit_posted_.store(true);
  }
  submit_cv_.notify_one();
}

bool WallClockRuntime::TryPost(TaskFn fn) {
  {
    std::lock_guard<std::mutex> lock(submit_mu_);
    if (options_.max_queue > 0 && submit_queue_.size() >= options_.max_queue) {
      return false;  // reject-newest: fn is destroyed without running
    }
    submit_queue_.push_back(std::move(fn));
    submit_posted_.store(true);
  }
  submit_cv_.notify_one();
  return true;
}

Destination WallClockRuntime::RegisterDestination() {
  return next_destination_++;
}

void WallClockRuntime::SendTo(Destination destination, TaskFn fn) {
  // Zero simulated latency, but still deferred to the next service pass so
  // delivery is never re-entrant (run-to-completion, like the simulator).
  (void)destination;
  Schedule(0, std::move(fn));
}

util::Rng WallClockRuntime::SplitRng() { return rng_.Split(); }

// --- Executor ---------------------------------------------------------------

bool WallClockRuntime::idle() const {
  // All three checks run under the mutex: acquiring it synchronizes with
  // RunSubmissions' release after the swap, so a pass still executing
  // drained tasks is reliably visible through busy_. A pass that ends
  // publishes busy_ with release, so reading it clear also shows the
  // timers that pass left (a left-over batch runs without the mutex).
  std::lock_guard<std::mutex> lock(submit_mu_);
  if (!submit_queue_.empty()) return false;
  if (busy_.load(std::memory_order_acquire)) return false;
  return live_timers_.load(std::memory_order_relaxed) == 0;
}

void WallClockRuntime::RunSubmissions() {
  if (!batch_left()) {
    // A pass with nothing posted takes no lock. A Post racing past this
    // check is not lost: the next pass, or WaitForWork's check under the
    // lock, sees it.
    if (!submit_posted_.load()) return;
    std::lock_guard<std::mutex> lock(submit_mu_);
    drain_scratch_.swap(submit_queue_);  // capacities circulate
    submit_posted_.store(false);
  }
  const size_t end = std::min(drain_scratch_.size(), drain_next_ + kPassBatch);
  while (drain_next_ < end) RunTask(drain_scratch_[drain_next_++]);
  if (drain_next_ == drain_scratch_.size()) {  // used up: release closures
    drain_scratch_.clear();
    drain_next_ = 0;
  }
}

void WallClockRuntime::FireDueTimers(Time t) {
  // Zero-delay work queued before the timers fire (the submissions'
  // hops, deliveries made between passes) is due at the pass clock, after
  // every due timer, so it waits aside. A timer's own zero-delay
  // follow-ups are due at its deadline: they run after the timers due at
  // that same instant (older seqs) and before any later one. The core
  // pops due timers in (when, seq) order directly; PopDue releases each
  // slot before the callback runs, so tasks may freely reschedule, and
  // discards lazily cancelled entries on the way.
  pass_immediate_.swap(immediate_);
  TaskFn fn;
  double when = 0;
  while (timers_.PopDue(t, &fn, &when)) {
    SyncTimerGauges();
    RunTask(fn);
    double tie = 0;
    while (timers_.PopDue(when, &fn, &tie)) {
      SyncTimerGauges();
      RunTask(fn);
    }
    RunImmediate();
  }
  immediate_.swap(pass_immediate_);  // immediate_ was left empty
  RunImmediate();
  SyncTimerGauges();  // stale entries may have been dropped
}

void WallClockRuntime::RunImmediate() {
  TaskFn fn;
  while (!immediate_.empty()) {
    immediate_scratch_.swap(immediate_);  // capacities circulate
    for (TaskId id : immediate_scratch_) {
      if (!timers_.Take(id, &fn)) continue;  // cancelled before it ran
      SyncTimerGauges();
      RunTask(fn);
    }
    immediate_scratch_.clear();
  }
}

bool WallClockRuntime::RunPass(Time t) {
  if (t < now()) t = now();
  busy_.store(true, std::memory_order_relaxed);
  now_.store(t, std::memory_order_relaxed);
  RunSubmissions();
  FireDueTimers(t);
  // Re-anchor the parking horizon. The pass consumed everything due at
  // <= t (including stale entries), so the core's bound now reflects the
  // earliest remaining timer — exact after a PopDue miss, and in any case
  // never later than the true deadline (stale-low only costs one empty
  // pass).
  next_due_ = timers_.MinBound();
  const bool left = batch_left();
  busy_.store(left, std::memory_order_release);
  // Posts made while the pass ran wait in the queue for the next pass.
  return left || submit_posted_.load(std::memory_order_relaxed);
}

void WallClockRuntime::WaitForWork(double max_wait_seconds) {
  if (batch_left()) return;  // never park with submissions in hand
  std::unique_lock<std::mutex> lock(submit_mu_);
  if (!submit_queue_.empty() || wake_pending_) {
    wake_pending_ = false;
    return;
  }
  // A horizon already due returns here: a timed wait on a past deadline
  // still sleeps (served p50 latency went from ~6 to ~46 us when due
  // timers took that path). The hour cap keeps a horizon with no deadline
  // (kNever: no timer, no window edge) a representable steady-clock time.
  if (max_wait_seconds <= 0) return;
  submit_cv_.wait_for(
      lock, std::chrono::duration<double>(std::min(max_wait_seconds, 3600.0)),
      [this] { return !submit_queue_.empty() || wake_pending_; });
  wake_pending_ = false;
}

void WallClockRuntime::WakeExecutor() {
  {
    std::lock_guard<std::mutex> lock(submit_mu_);
    wake_pending_ = true;
  }
  submit_cv_.notify_one();
}

}  // namespace sbqa::rt
