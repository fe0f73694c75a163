#include "sim/shard_set.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "util/check.h"
#include "util/rng.h"

namespace sbqa::sim {

/// Window hand-off state for the parked worker threads. A worker wakes
/// when `epoch` moves past the one it last completed, runs its shard to
/// `target`, and reports back through `remaining`. All accesses are under
/// `mu`, which also publishes every side effect of a window to the driver
/// (and the driver's mailbox drain back to the workers).
struct ShardSet::Threads {
  std::mutex mu;
  std::condition_variable work;
  std::condition_variable done;
  uint64_t epoch = 0;
  Time target = 0;
  uint32_t remaining = 0;
  bool exit = false;
  /// Shards with events due this window; the rest are advanced inline by
  /// the driver (a shard without due events cannot gain one mid-window —
  /// cross-shard input only lands at barriers).
  std::vector<char> active;
};

ShardSet::ShardSet(const SimulationConfig& config) : config_(config) {
  SBQA_CHECK_GE(config.shard_count, 1u);
  SBQA_CHECK_GT(config.shard_barrier_tick, 0);
  const uint32_t n = config.shard_count;
  shards_.reserve(n);
  for (uint32_t s = 0; s < n; ++s) {
    SimulationConfig shard_config = config;
    shard_config.seed = util::Rng::StreamSeed(config.seed, s);
    shards_.push_back(std::make_unique<Simulation>(shard_config));
  }
  out_.resize(n);
  for (Outbox& box : out_) box.to.resize(n);

  if (config.shard_use_threads && n > 1) {
    threads_ = std::make_unique<Threads>();
    threads_->active.assign(n, 0);
    workers_.reserve(n);
    for (uint32_t s = 0; s < n; ++s) {
      workers_.push_back(
          std::make_unique<std::thread>([this, s] { WorkerLoop(s); }));
    }
  }
}

ShardSet::~ShardSet() {
  if (threads_ != nullptr) {
    {
      std::lock_guard<std::mutex> lock(threads_->mu);
      threads_->exit = true;
    }
    threads_->work.notify_all();
    for (auto& worker : workers_) worker->join();
  }
}

void ShardSet::PostTo(uint32_t src, uint32_t dst, Time deliver_at,
                      EventFn fn) {
  SBQA_DCHECK_LT(src, shard_count());
  SBQA_DCHECK_LT(dst, shard_count());
  Outbox& box = out_[src];
  box.to[dst].push_back(Pending{deliver_at, std::move(fn)});
  ++box.posted;
}

void ShardSet::AddBarrierHook(std::function<void(Time)> hook) {
  hooks_.push_back(std::move(hook));
}

void ShardSet::SetMembershipHook(std::function<void(Time)> hook) {
  SBQA_CHECK(membership_hook_ == nullptr);
  membership_hook_ = std::move(hook);
}

uint64_t ShardSet::cross_shard_messages() const {
  uint64_t total = 0;
  for (const Outbox& box : out_) total += box.posted;
  return total;
}

void ShardSet::WorkerLoop(uint32_t s) {
  uint64_t completed = 0;
  for (;;) {
    Time target;
    {
      std::unique_lock<std::mutex> lock(threads_->mu);
      threads_->work.wait(lock, [this, s, completed] {
        return threads_->exit ||
               (threads_->epoch != completed && threads_->active[s] != 0);
      });
      if (threads_->exit) return;
      completed = threads_->epoch;
      target = threads_->target;
    }
    shards_[s]->RunUntil(target);
    {
      std::lock_guard<std::mutex> lock(threads_->mu);
      if (--threads_->remaining == 0) threads_->done.notify_one();
    }
  }
}

void ShardSet::RunWindow(Time target) {
  if (threads_ != nullptr) {
    const uint32_t n = shard_count();
    uint32_t active = 0;
    {
      std::lock_guard<std::mutex> lock(threads_->mu);
      threads_->target = target;
      for (uint32_t s = 0; s < n; ++s) {
        const bool busy =
            shards_[s]->scheduler().next_event_bound() <= target;
        threads_->active[s] = busy ? 1 : 0;
        if (busy) ++active;
      }
      threads_->remaining = active;
      ++threads_->epoch;
    }
    if (active > 0) threads_->work.notify_all();
    // Idle shards just advance their clocks; they are untouched by any
    // worker this window, so the driver may do it concurrently.
    for (uint32_t s = 0; s < n; ++s) {
      if (threads_->active[s] == 0) shards_[s]->RunUntil(target);
    }
    if (active > 0) {
      std::unique_lock<std::mutex> lock(threads_->mu);
      threads_->done.wait(lock,
                          [this] { return threads_->remaining == 0; });
    }
    return;
  }
  // Serial mode: fixed shard order. Identical traces to threaded mode —
  // shards share no mutable state inside a window.
  for (auto& shard : shards_) shard->RunUntil(target);
}

bool ShardSet::DrainMailboxes() {
  // Fixed (destination, source, FIFO) order: the only place cross-shard
  // effects are sequenced, hence the determinism of the whole protocol.
  const uint32_t n = shard_count();
  bool any_due = false;
  for (uint32_t dst = 0; dst < n; ++dst) {
    Scheduler& scheduler = shards_[dst]->scheduler();
    for (uint32_t src = 0; src < n; ++src) {
      std::vector<Pending>& queue = out_[src].to[dst];
      for (Pending& message : queue) {
        const Time when = std::max(message.deliver_at, barrier_now_);
        if (when <= barrier_now_) any_due = true;
        scheduler.ScheduleAt(when, std::move(message.fn));
      }
      queue.clear();  // keeps capacity: steady-state draining allocates
                      // nothing once the per-pair high-water mark is hit
    }
  }
  return any_due;
}

bool ShardSet::MailboxesNonEmpty() const {
  for (const Outbox& box : out_) {
    for (const std::vector<Pending>& queue : box.to) {
      if (!queue.empty()) return true;
    }
  }
  return false;
}

bool ShardSet::BarrierPhase(bool run_hooks) {
  // Barrier sequence: drain mailboxes -> membership phase -> regular
  // hooks (directory refresh, metrics). Single shard: no cross-shard
  // senders exist, so the mailbox scan is skipped; the membership phase
  // and hooks still run (they drive epoch application and sampling).
  bool settle = false;
  if (shard_count() > 1) settle = DrainMailboxes();
  if (membership_hook_ != nullptr) {
    const auto start = std::chrono::steady_clock::now();
    membership_hook_(barrier_now_);
    membership_apply_ns_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    // Epoch application may post fresh cross-shard messages (a departing
    // provider's borrowed-query outcomes routed home); they need one more
    // drain before the horizon traffic is quiescent.
    if (shard_count() > 1 && MailboxesNonEmpty()) settle = true;
  }
  if (run_hooks) {
    for (const auto& hook : hooks_) hook(barrier_now_);
  }
  return settle;
}

void ShardSet::RunUntil(Time t) {
  // A lone shard with no barrier work has nothing to synchronize: the whole
  // horizon is one window, i.e. exactly Simulation::RunUntil(t).
  const bool one_window = shard_count() == 1 && hooks_.empty() &&
                          membership_hook_ == nullptr;
  bool settle = false;
  const Time tick = config_.shard_barrier_tick;
  while (barrier_now_ < t) {
    const Time window_end = one_window ? t : std::min(t, barrier_now_ + tick);
    RunWindow(window_end);
    barrier_now_ = window_end;
    ++barriers_;
    settle = BarrierPhase(/*run_hooks=*/true);
  }
  // Settlement: messages drained at the final barrier were clamped to
  // exactly t, where the loop above would leave them scheduled but
  // unexecuted. Run zero-width windows until the horizon traffic
  // quiesces, so RunUntil(t) — like Scheduler::RunUntil — leaves no
  // event with timestamp <= t unrun (e.g. a borrowed query's outcome
  // finalized in the last drain window still reaches its home shard's
  // accounting). The membership phase keeps running here (without the
  // regular hooks) so ops queued by horizon events are applied and their
  // follow-up messages drained. Terminates because cross-shard chains are
  // finite (delegation is one hop; network hops have positive latency;
  // membership application only posts finite outcome chains).
  while (settle) {
    RunWindow(barrier_now_);
    settle = BarrierPhase(/*run_hooks=*/false);
  }
}

}  // namespace sbqa::sim
