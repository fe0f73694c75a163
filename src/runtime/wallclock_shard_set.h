#ifndef SBQA_RUNTIME_WALLCLOCK_SHARD_SET_H_
#define SBQA_RUNTIME_WALLCLOCK_SHARD_SET_H_

/// \file
/// WallClockShardSet: thread-per-shard wall-clock serving. N manual-clock
/// WallClockRuntimes, each driven by its own worker thread, exchange
/// traffic through the same per-(src, dst) single-writer mailbox protocol
/// the simulation's sim::ShardSet proved out — but the barrier windows are
/// cut by the steady clock (every `barrier_tick` seconds) or by outbox
/// fill (a shard buffering `outbox_fill_threshold` cross-shard messages
/// pulls the barrier early), not by virtual time.
///
/// Within a window each shard services only its own runtime: no locks, no
/// shared mutable state on the hot path. At the rendezvous the LAST
/// arriving worker becomes the barrier leader and — with every other
/// worker parked on the barrier condition variable — drains the mailboxes
/// in fixed (destination, source, FIFO) order, runs queued control ops
/// (Stats gathering, post-Start membership), runs the membership hook
/// (Registry::AdvanceEpoch) and the barrier hooks (directory refresh),
/// then opens the next window. That is exactly the simulation's barrier
/// sequence with the driver thread role rotating among the workers.
///
/// Determinism contract (vs. sim::ShardSet): intra-window execution on one
/// shard is still deterministic given its task arrival order, and the
/// barrier drain order is still fixed — but WHICH window a submission or
/// cross-shard message lands in depends on real time, so wall-clock runs
/// are not bit-reproducible. The manual-clock mode
/// (`runtime.manual_clock`) removes that last source of nondeterminism for
/// tests: no worker threads, the caller drives lock-step windows serially
/// with RunUntil(), and a run is a pure function of the Post sequence. See
/// src/runtime/README.md.
///
/// One shard is a valid fabric and the only way a WallClockRuntime is
/// served: its worker is the one loop that drives an executor. A lone
/// shard with no membership phase and no barrier hook has nothing to
/// synchronize, so its worker cuts no windows: it parks until a Post, its
/// next timer, a control op or Stop (the same rule as sim::ShardSet's
/// one-window lone shard), and barriers happen only for control ops and
/// Stop. The manual-clock driver still cuts `barrier_tick` windows, whose
/// edges set the clock its tasks observe.
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

#include "runtime/shard_fabric.h"
#include "runtime/wallclock_runtime.h"

namespace sbqa::rt {

/// Tuning knobs of the wall-clock shard set.
struct WallClockShardOptions {
  uint32_t shard_count = 1;
  /// Root seed: shard s's runtime RNG stream is StreamSeed(seed, s).
  uint64_t seed = 42;
  /// Barrier window width in wall seconds. Cross-shard hops pay at most
  /// one window of extra latency, so keep it small relative to the
  /// latency budget; every barrier costs one rendezvous of all shards.
  /// A threaded lone shard without hooks cuts no windows.
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

/// Owns the per-shard runtimes and worker threads, and runs the barrier
/// protocol. Implements rt::ShardFabric, which is all the mediator sees.
class WallClockShardSet final : public ShardFabric {
 public:
  explicit WallClockShardSet(const WallClockShardOptions& options);
  ~WallClockShardSet() override;

  WallClockShardSet(const WallClockShardSet&) = delete;
  WallClockShardSet& operator=(const WallClockShardSet&) = delete;

  uint32_t shard_count() const override {
    return static_cast<uint32_t>(runtimes_.size());
  }
  /// Shard s's executor. External threads may only Post/TryPost to it;
  /// everything else is shard s's worker context.
  WallClockRuntime& runtime(uint32_t s) { return *runtimes_[s]; }

  /// Launches the worker threads and anchors t = 0 (no threads under
  /// manual_clock). Wire entities (mediators, hooks) BEFORE calling this.
  void Start();

  /// Final barrier (mailboxes drained, control ops run), then joins the
  /// workers after one last service pass each. Cross-shard messages
  /// produced by that final pass are dropped — drain traffic (WaitIdle)
  /// before stopping. Idempotent; the destructor calls it.
  void Stop();

  // --- ShardFabric -----------------------------------------------------------

  /// Buffers `fn` in the (src, dst) outbox; the next barrier delivers it
  /// onto shard dst's runtime at max(deliver_at, barrier time). MUST be
  /// called from shard src's execution context (its worker mid-window, or
  /// the barrier leader) — src is the channel's only writer.
  void PostTo(uint32_t src, uint32_t dst, Time deliver_at,
              TaskFn fn) override;

  // --- Barrier-phase hooks (wire before Start) -------------------------------

  /// Registers a hook run by the barrier leader at every barrier, after
  /// the membership phase, with every worker parked. Hooks run in
  /// registration order and may read any shard's state.
  void AddBarrierHook(std::function<void(Time)> hook);

  /// Installs the membership phase (at most one): runs right after the
  /// mailbox drain and the control ops, every barrier. Typically wraps
  /// Registry::AdvanceEpoch.
  void SetMembershipHook(std::function<void(Time)> hook);

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

  /// Advances every shard to time `t` through lock-step barrier windows
  /// (manual_clock only). Runs control ops, membership and hooks at every
  /// barrier, including the final one at `t`, then settles: extra
  /// zero-width windows drain cross-shard messages due at `t`.
  void RunUntil(Time t);
  /// RunUntil(now() + d).
  void RunFor(Time d) { RunUntil(now() + d); }

  // --- Telemetry -------------------------------------------------------------

  /// Barrier clock: the time every shard has reached together. Individual
  /// shard clocks run ahead of this inside a window.
  Time now() const { return barrier_now_.load(std::memory_order_relaxed); }
  /// Barrier synchronizations performed since Start.
  uint64_t barriers() const {
    return barriers_.load(std::memory_order_relaxed);
  }
  /// Barriers pulled early by the outbox fill trigger.
  uint64_t early_barriers() const {
    return early_barriers_.load(std::memory_order_relaxed);
  }
  /// Cross-shard messages posted since construction (quiescent read:
  /// between windows, at a barrier, or after Stop).
  uint64_t cross_shard_messages() const;
  bool threaded() const { return !workers_.empty(); }

 private:
  struct Pending {
    Time deliver_at;
    TaskFn fn;
  };
  /// One source shard's outboxes (slot d = messages for shard d), padded
  /// so two shards' mailbox bookkeeping never shares a cache line.
  struct alignas(64) Outbox {
    std::vector<std::vector<Pending>> to;
    uint64_t posted = 0;
    /// Messages buffered since the last barrier (the fill trigger's
    /// signal; reset by the leader at every drain).
    size_t buffered = 0;
  };

  double ElapsedSeconds() const;
  /// End of a window opened at `from`: one barrier_tick later, or never
  /// for a windowless lone shard.
  Time WindowEnd(Time from) const;
  /// Drains every (src, dst) outbox onto the destination runtimes in
  /// (destination, source, FIFO) order. Leader/driver only, workers
  /// parked. Returns messages delivered.
  size_t DrainMailboxes(Time barrier_time);
  /// The full barrier sequence: drain -> control ops -> membership ->
  /// hooks. Leader/driver only, workers parked. Returns whether another
  /// settlement pass is warranted (messages delivered, control ops run,
  /// or fresh outbox traffic produced by the phase itself).
  bool BarrierPhase(Time barrier_time);
  bool MailboxesNonEmpty() const;
  bool HasPendingControl();
  /// Wakes every worker that may be parked inside WaitForWork.
  void WakeAllShards();
  void WorkerLoop(uint32_t s);

  WallClockShardOptions options_;
  std::vector<std::unique_ptr<WallClockRuntime>> runtimes_;
  std::vector<Outbox> out_;
  std::vector<std::function<void(Time)>> hooks_;
  std::function<void(Time)> membership_hook_;

  /// Barrier clock; written by the leader at barriers, atomically readable
  /// from any thread.
  std::atomic<double> barrier_now_{0};
  std::atomic<uint64_t> barriers_{0};
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
  /// End of the current window in runtime seconds (leader-written).
  Time window_end_ = 0;
  bool stop_requested_ = false;
  /// Set by the leader of the barrier that observed stop_requested_ — the
  /// one barrier every worker exits through. A stop REQUEST alone never
  /// ends a worker loop: a worker that bailed early would leave the
  /// rendezvous short of shard_count arrivals forever.
  bool stopped_ = false;
  /// Fill trigger / stop nudge: workers cut their window short when set.
  std::atomic<bool> barrier_now_requested_{false};

  std::vector<std::thread> workers_;
  bool started_ = false;
  /// One shard, no membership hook, no barrier hook (fixed at Start): the
  /// worker's window never ends on its own.
  bool windowless_ = false;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace sbqa::rt

#endif  // SBQA_RUNTIME_WALLCLOCK_SHARD_SET_H_
