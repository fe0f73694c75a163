#include "sim/shard_set.h"

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

ShardSet::ShardSet(const SimulationConfig& config)
    : BarrierCore(config.shard_barrier_tick, /*fill_threshold=*/0) {
  SBQA_CHECK_GE(config.shard_count, 1u);
  const uint32_t n = config.shard_count;
  shards_.reserve(n);
  std::vector<rt::Runtime*> runtimes;
  for (uint32_t s = 0; s < n; ++s) {
    SimulationConfig shard_config = config;
    shard_config.seed = util::Rng::StreamSeed(config.seed, s);
    shards_.push_back(std::make_unique<Simulation>(shard_config));
    runtimes.push_back(&shards_.back()->runtime());
  }
  Attach(std::move(runtimes));

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

void ShardSet::AdvanceAll(Time target) {
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

}  // namespace sbqa::sim
