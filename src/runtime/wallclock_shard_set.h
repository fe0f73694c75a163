#ifndef SBQA_RUNTIME_WALLCLOCK_SHARD_SET_H_
#define SBQA_RUNTIME_WALLCLOCK_SHARD_SET_H_

/// \file
/// WallClockShardSet: thread-per-shard wall-clock serving. N
/// WallClockRuntimes, each driven by its own worker thread, joined by the
/// barrier protocol of rt::BarrierCore (src/runtime/README.md, "Barrier
/// core"). This class is the wall-clock window policy: barriers happen on
/// demand. A window ends at a steady-clock edge (`barrier_tick` seconds
/// after the last barrier, or after the last dead edge) only when the
/// shard reaching it has something to exchange (BarrierCore::WantsBarrier:
/// a buffered cross-shard message or a RequestBarrier), when a shard's
/// outbox fills (`outbox_fill_threshold` buffered messages pull the
/// barrier early), or when a control op arrives. A shard with nothing to
/// exchange parks until a Post, its next timer or a pull.
///
/// Within a window each shard services only its own runtime, one bounded
/// pass (WallClockRuntime::RunPass) per read of the steady clock: no
/// locks, no shared mutable state on the hot path. At the rendezvous the
/// LAST arriving worker becomes the barrier leader and, with every other
/// worker parked on the barrier condition variable, runs the core's
/// barrier sequence (its control ops are Stats gathering and post-Start
/// membership), then opens the next window.
///
/// WHICH window a submission or cross-shard message lands in depends on
/// real time, so threaded runs are not bit-reproducible. The manual-clock
/// mode (`runtime.manual_clock`) removes that for tests: no worker
/// threads, the caller drives the core's lock-step windows with
/// RunUntil(), and a run is a pure function of the Post sequence.
///
/// One shard is a valid set and the only way a WallClockRuntime is
/// served. A lone shard has no peer, so it never has anything to
/// exchange: barriers happen only for control ops and Stop. The manual
/// driver cuts every `barrier_tick` window at any shard count, because
/// its edges set the clock its tasks observe and make a run a pure
/// function of the Post sequence.
///
/// The steady state is allocation-free per message: outbox vectors,
/// per-shard timer cores and the control queue all retain their capacity.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/barrier_core.h"
#include "runtime/wallclock_runtime.h"

namespace sbqa::rt {

/// Tuning knobs of the wall-clock shard set.
struct WallClockShardOptions {
  uint32_t shard_count = 1;
  /// Root seed: shard s's runtime RNG stream is StreamSeed(seed, s).
  uint64_t seed = 42;
  /// Barrier window width in wall seconds: how late an exchange lands. A
  /// cross-shard hop, a queued membership op or a published change waits
  /// at most one tick (plus a wake) for its barrier, so keep it small
  /// relative to the latency budget. Threaded edges are not a heartbeat:
  /// an edge becomes a barrier only for a shard with something to
  /// exchange.
  double barrier_tick = 0.002;
  /// Fill trigger: a shard whose buffered outgoing cross-shard messages
  /// reach this count mid-window pulls the barrier early instead of
  /// letting delegated queries ripen a whole tick. 0 disables.
  size_t outbox_fill_threshold = 64;
  /// Per-shard runtime tuning. seed is overridden (shard s gets its own
  /// stream); max_queue bounds each shard's external submit queue (the
  /// Engine's per-shard admission door); manual_clock is the deterministic
  /// test seam — no worker threads, the caller drives lock-step barrier
  /// windows serially with RunUntil()/RunFor().
  WallClockOptions runtime;
};

/// Owns the per-shard runtimes and worker threads.
class WallClockShardSet final : public BarrierCore {
 public:
  explicit WallClockShardSet(const WallClockShardOptions& options);
  ~WallClockShardSet() override;

  /// Shard s's executor. External threads may only Post/TryPost to it;
  /// everything else is shard s's worker context.
  WallClockRuntime& runtime(uint32_t s) { return *shards_[s]; }

  /// Launches the worker threads and anchors t = 0 (no threads under
  /// manual_clock). Wire entities (mediators, hooks) BEFORE calling this.
  void Start();

  /// Final barrier (mailboxes drained, control ops run), then joins the
  /// workers after each has run its shard's remaining submissions.
  /// Cross-shard messages produced by those final passes are dropped —
  /// drain traffic (WaitIdle) before stopping. Idempotent; the destructor
  /// calls it.
  void Stop();

  // --- Control plane (thread-safe once started) ------------------------------

  /// Enqueues `fn` to run on the barrier leader at the next barrier, with
  /// every worker parked (the quiescent window for cross-shard reads and
  /// membership mutations). Returns immediately.
  void PostControl(std::function<void()> fn);

  /// PostControl + block until `fn` ran. In manual_clock mode (and before
  /// Start / after Stop) the caller IS the quiescent driver context, so
  /// `fn` runs inline instead.
  void RunAtBarrier(std::function<void()> fn);

  // --- Manual-mode driver ----------------------------------------------------

  /// The core's lock-step windows up to `t` (manual_clock only).
  void RunUntil(Time t) override {
    SBQA_CHECK(workers_.empty());
    RunWindows(t, /*one_window=*/false);
  }
  /// RunUntil(now() + d).
  void RunFor(Time d) { RunUntil(now() + d); }

  // --- Telemetry -------------------------------------------------------------

  /// Barriers pulled early by the outbox fill trigger.
  uint64_t early_barriers() const {
    return early_barriers_.load(std::memory_order_relaxed);
  }
  bool threaded() const { return !workers_.empty(); }

 private:
  void AdvanceAll(Time t) override;
  void RunControlOps() override;
  void OnOutboxFull() override;

  double ElapsedSeconds() const;
  /// Asks every worker to the rendezvous now. Returns false when a pull
  /// was already pending (this call then changed nothing).
  bool PullBarrier();
  /// Wakes every worker that may be parked inside WaitForWork.
  void WakeAllShards();
  void WorkerLoop(uint32_t s);

  WallClockShardOptions options_;
  std::vector<std::unique_ptr<WallClockRuntime>> shards_;
  std::atomic<uint64_t> early_barriers_{0};

  /// Control queue (thread-safe; drained by the leader at barriers).
  std::mutex control_mu_;
  std::vector<std::function<void()>> control_queue_;
  std::vector<std::function<void()>> control_scratch_;

  /// Worker rendezvous. The mutex guards the window hand-off words below,
  /// never shard state; mailbox visibility rides on its acquire/release
  /// pairs (workers arrive under the lock, the leader drains under it).
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t window_seq_ = 0;
  uint32_t arrived_ = 0;
  bool stop_requested_ = false;
  /// Set by the leader of the barrier that observed stop_requested_ — the
  /// one barrier every worker exits through. A stop REQUEST alone never
  /// ends a worker loop: a worker that bailed early would leave the
  /// rendezvous short of shard_count arrivals forever.
  bool stopped_ = false;
  /// The pull (a want at an edge, the fill trigger, a control op, Stop):
  /// workers go to the rendezvous when set.
  std::atomic<bool> barrier_now_requested_{false};

  std::vector<std::thread> workers_;
  bool started_ = false;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace sbqa::rt

#endif  // SBQA_RUNTIME_WALLCLOCK_SHARD_SET_H_
