#include "runtime/wallclock_shard_set.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/rng.h"

namespace sbqa::rt {

WallClockShardSet::WallClockShardSet(const WallClockShardOptions& options)
    : BarrierCore(options.barrier_tick, options.outbox_fill_threshold),
      options_(options) {
  SBQA_CHECK_GT(options_.shard_count, 0u);
  const uint32_t n = options_.shard_count;
  shards_.reserve(n);
  std::vector<Runtime*> runtimes;
  for (uint32_t s = 0; s < n; ++s) {
    WallClockOptions rt_options = options_.runtime;
    rt_options.seed = util::Rng::StreamSeed(options_.seed, s);
    shards_.push_back(std::make_unique<WallClockRuntime>(rt_options));
    runtimes.push_back(shards_.back().get());
  }
  Attach(std::move(runtimes));
  control_queue_.reserve(16);
  control_scratch_.reserve(16);
}

WallClockShardSet::~WallClockShardSet() { Stop(); }

double WallClockShardSet::ElapsedSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void WallClockShardSet::Start() {
  if (started_) return;
  started_ = true;
  if (options_.runtime.manual_clock) return;
  epoch_ = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = false;
    stopped_ = false;
    arrived_ = 0;
    window_seq_ = 1;
  }
  barrier_now_requested_.store(false, std::memory_order_relaxed);
  workers_.reserve(shard_count());
  for (uint32_t s = 0; s < shard_count(); ++s) {
    workers_.emplace_back([this, s] { WorkerLoop(s); });
  }
}

void WallClockShardSet::Stop() {
  if (!started_) return;
  if (workers_.empty()) {
    // Manual mode: flush whatever control ops are still queued so
    // RunAtBarrier callers posted-then-stopped are not silently dropped.
    Phase(/*run_hooks=*/true);
    started_ = false;
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  // A pull already pending needs no second wake: its leader reads the stop
  // request and clears the pull under mu_ together, so that barrier is
  // the final one.
  PullBarrier();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  started_ = false;
}

bool WallClockShardSet::PullBarrier() {
  if (barrier_now_requested_.exchange(true, std::memory_order_relaxed)) {
    return false;
  }
  WakeAllShards();
  return true;
}

void WallClockShardSet::OnOutboxFull() {
  if (!workers_.empty() && PullBarrier()) {
    early_barriers_.fetch_add(1, std::memory_order_relaxed);
  }
}

// --- Control plane -----------------------------------------------------------

void WallClockShardSet::PostControl(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    control_queue_.push_back(std::move(fn));
  }
  // Pull the barrier at once: control ops (Stats reads, membership) wait
  // for no window edge.
  if (!workers_.empty()) PullBarrier();
}

void WallClockShardSet::RunAtBarrier(std::function<void()> fn) {
  if (workers_.empty()) {
    // Manual mode, pre-Start or post-Stop: the caller is the quiescent
    // driver context already — run inline, same guarantees.
    fn();
    return;
  }
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  PostControl([&] {
    fn();
    // Notify under the lock: these are stack locals, and the waiter
    // destroys them the moment it observes `done`. Notifying after the
    // unlock would let destruction race the tail of notify_one().
    std::lock_guard<std::mutex> lock(done_mu);
    done = true;
    done_cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return done; });
}

void WallClockShardSet::RunControlOps() {
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    control_scratch_.swap(control_queue_);  // capacities circulate
  }
  for (std::function<void()>& op : control_scratch_) op();
  control_scratch_.clear();
}

// --- Windows -----------------------------------------------------------------

void WallClockShardSet::AdvanceAll(Time t) {
  for (const std::unique_ptr<WallClockRuntime>& rt : shards_) rt->AdvanceTo(t);
}

void WallClockShardSet::WakeAllShards() {
  for (const std::unique_ptr<WallClockRuntime>& rt : shards_) {
    rt->WakeExecutor();
  }
}

void WallClockShardSet::WorkerLoop(uint32_t s) {
  WallClockRuntime& rt = *shards_[s];
  uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = window_seq_;
  }
  Time edge = options_.barrier_tick;
  while (true) {
    // Service the shard until a barrier is pulled: one bounded pass per
    // read of the wall clock, then park until the next deadline, a Post or
    // a pull — unless submissions are left or were posted meanwhile, in
    // which case the next pass starts at once. The window edge closes the
    // window only for a shard with something to exchange (its outbox
    // holds a message or it requested a barrier): such a shard stops at
    // the edge and pulls the barrier for everyone. A dead edge moves a
    // tick on, so a want arising later still waits at most one tick.
    while (true) {
      const double t = ElapsedSeconds();
      if (t >= edge && !WantsBarrier(s)) edge = t + options_.barrier_tick;
      const bool more = rt.RunPass(std::min(t, edge));
      if (barrier_now_requested_.load(std::memory_order_relaxed)) break;
      if (t >= edge) {
        PullBarrier();
        break;
      }
      if (more) continue;
      // Park up to the shard's next timer deadline, and up to the edge
      // once the shard has something to exchange. A Post or a pull that
      // lands between the flag check above and the wait is not lost:
      // WaitForWork returns at once for it.
      double horizon = rt.next_timer_due();
      if (WantsBarrier(s)) horizon = std::min(horizon, edge);
      rt.WaitForWork(horizon - ElapsedSeconds());
    }

    // Rendezvous: the LAST arriver leads the barrier while every other
    // worker is verifiably parked in cv_.wait (a worker holds mu_ from its
    // arrival increment until the wait releases it, so the leader can only
    // observe arrived_ == shard_count with all peers waiting).
    std::unique_lock<std::mutex> lock(mu_);
    if (stopped_) break;  // the final barrier already ran without us
    ++arrived_;
    if (arrived_ == shard_count()) {
      const bool stopping = stop_requested_;
      // Clear the pull BEFORE the phase takes the control queue: a control
      // op queued after that take then sees the flag clear, sets it and
      // wakes the workers again, instead of being stranded until a window
      // edge that a shard with nothing to exchange never stops at.
      barrier_now_requested_.store(false, std::memory_order_relaxed);
      Barrier(ElapsedSeconds());
      arrived_ = 0;
      if (stopping) stopped_ = true;
      ++window_seq_;
      seq = window_seq_;
      lock.unlock();
      cv_.notify_all();
      if (stopping) break;
    } else {
      cv_.wait(lock, [&] { return window_seq_ != seq; });
      seq = window_seq_;
      const bool finished = stopped_;
      lock.unlock();
      if (finished) break;
      // A stop REQUEST alone must not end the loop here: every live
      // worker has to make it back to the rendezvous or the final barrier
      // can never assemble shard_count arrivals (a follower that bailed on
      // the request would strand the eventual leader in cv_.wait — and
      // Stop() in its join — forever). Exit happens only through the
      // barrier that was actually led with the stop flag set.
    }
    edge = now() + options_.barrier_tick;
  }
  // Final service passes: run what the last barrier delivered plus every
  // left-over and still-queued submission. Cross-shard messages produced
  // here are dropped (callers WaitIdle before Stop).
  rt.AdvanceTo(ElapsedSeconds());
}

}  // namespace sbqa::rt
