#ifndef SBQA_RUNTIME_BARRIER_CORE_H_
#define SBQA_RUNTIME_BARRIER_CORE_H_

/// \file
/// BarrierCore: the one barrier protocol of a set of shard executors, and
/// the cross-shard transport the mediation pipeline sees. sim::ShardSet
/// (virtual time) and rt::WallClockShardSet (steady clock, or a manual
/// clock for tests) derive from it and keep only their window policy:
/// how every shard is advanced to a window end (AdvanceAll) and, for the
/// wall clock, the control queue drained at each barrier (RunControlOps).
/// core::Mediator holds a BarrierCore*, never a concrete shard set, which
/// keeps core/ free of sim/ the same way rt::Runtime does.
///
/// The core owns the per-(src, dst) outboxes, their drain, the barrier
/// sequence, horizon settlement and the lock-step window loop. See the
/// "Barrier core" section of src/runtime/README.md for the protocol.

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "runtime/runtime.h"
#include "util/check.h"

namespace sbqa::rt {

class BarrierCore {
 public:
  virtual ~BarrierCore();
  BarrierCore(const BarrierCore&) = delete;
  BarrierCore& operator=(const BarrierCore&) = delete;

  uint32_t shard_count() const {
    return static_cast<uint32_t>(runtimes_.size());
  }
  /// Shard s's executor: the runtime its mediation stack is built on.
  Runtime& shard_runtime(uint32_t s) const { return *runtimes_[s]; }

  /// Barrier clock: the time every shard has reached together. Shard
  /// clocks run ahead of it inside a window. Readable from any thread.
  Time now() const { return barrier_now_.load(std::memory_order_relaxed); }

  /// Driven sets only (the simulator, the manual wall clock): advances
  /// every shard to `t` through barrier windows, then settles the
  /// horizon, so no cross-shard message due at or before `t` is left
  /// unrun. The caller is the driver; on return every shard is quiescent.
  virtual void RunUntil(Time t) = 0;

  /// Buffers `fn` in the (src, dst) outbox; the next barrier schedules it
  /// on shard dst's runtime at max(deliver_at, barrier time). MUST be
  /// called from shard src's execution context (its executor mid-window,
  /// or the driver / barrier leader between windows): src is the
  /// channel's only writer, so the hot path takes no lock.
  void PostTo(uint32_t src, uint32_t dst, Time deliver_at, TaskFn fn) {
    SBQA_DCHECK_LT(src, shard_count());
    SBQA_DCHECK_LT(dst, shard_count());
    Outbox& box = out_[src];
    box.to[dst].push_back(Pending{deliver_at, std::move(fn)});
    ++box.posted;
    if (++box.buffered == fill_threshold_) OnOutboxFull();
  }

  /// Records that source shard `src` has something for the next barrier
  /// phase other than a message: a queued membership op, or a change a
  /// peer reads through the phase (see the wants in src/runtime/README.md,
  /// "Barrier core"). Same context rule as PostTo; the flag clears at the
  /// drain.
  void RequestBarrier(uint32_t src) {
    SBQA_DCHECK_LT(src, shard_count());
    out_[src].wants_barrier = true;
  }

  /// Whether source shard `src` has something to exchange at the next
  /// barrier: a buffered message, or a RequestBarrier since the last drain.
  /// src's context, or quiescent.
  bool WantsBarrier(uint32_t src) const {
    const Outbox& box = out_[src];
    return box.buffered > 0 || box.wants_barrier;
  }

  /// Registers a hook run at every barrier, after the membership phase,
  /// with every shard quiescent. Hooks run in registration order and may
  /// read any shard's state (directory refresh, metrics sampling).
  void AddBarrierHook(std::function<void(Time)> hook);

  /// Installs the membership phase (at most one; a second call aborts).
  /// It runs at every barrier and in every settlement window, after the
  /// drain and the control ops. Typically wraps Registry::AdvanceEpoch.
  void SetMembershipHook(std::function<void(Time)> hook);

  /// Counted barriers (settlement windows are not counted).
  uint64_t barriers() const {
    return barriers_.load(std::memory_order_relaxed);
  }
  /// Cross-shard messages posted since construction (quiescent read).
  uint64_t cross_shard_messages() const;
  /// Wall-clock seconds spent inside the membership hook (the
  /// epoch-apply cost; feeds the bench regression gate).
  double membership_apply_seconds() const {
    return static_cast<double>(membership_apply_ns_) * 1e-9;
  }

 protected:
  /// `tick` is the barrier window width; a source outbox buffering
  /// `fill_threshold` messages since the last drain calls OnOutboxFull
  /// (0 never does).
  BarrierCore(Time tick, size_t fill_threshold);

  /// Adopts the shard executors (shard s = `runtimes[s]`, outliving the
  /// core) and sizes the outboxes. Called once by the derived constructor.
  void Attach(std::vector<Runtime*> runtimes);

  /// One shard, no membership phase, no barrier hook: nothing to
  /// synchronize, so a lock-step window need not end before the horizon.
  bool lone() const {
    return shard_count() == 1 && hooks_.empty() && membership_hook_ == nullptr;
  }

  /// A counted barrier at `at`: moves the barrier clock, then runs the
  /// phase with hooks. Driver / leader only, every shard quiescent.
  /// Returns whether a settlement window is needed.
  bool Barrier(Time at);
  /// The barrier sequence at now(): drain, control ops, membership phase,
  /// then the hooks when `run_hooks`. Returns whether a settlement window
  /// is needed: a drained message was due now, or the control ops or the
  /// membership phase posted fresh cross-shard messages.
  bool Phase(bool run_hooks);
  /// Lock-step windows of `tick` (one window when `one_window`) up to
  /// `t`, a counted barrier after each, then zero-width settlement
  /// windows until nothing is due at `t`.
  void RunWindows(Time t, bool one_window);

  /// Window policy: run every shard to `t`; on return all are quiescent.
  virtual void AdvanceAll(Time t) = 0;
  /// Runs queued control ops at the barrier (none by default).
  virtual void RunControlOps() {}
  /// Fill trigger (see the constructor); may run on any shard's executor.
  virtual void OnOutboxFull() {}

 private:
  struct Pending {
    Time deliver_at;
    TaskFn fn;
  };
  /// One source shard's outboxes (slot d = messages for shard d) and
  /// counters, padded so two sources never share a cache line.
  struct alignas(64) Outbox {
    std::vector<std::vector<Pending>> to;
    uint64_t posted = 0;
    size_t buffered = 0;         ///< since the last drain
    bool wants_barrier = false;  ///< RequestBarrier since the last drain
  };

  /// Schedules every buffered message on its destination in
  /// (destination, source, FIFO) order and clears every source's wants.
  /// Returns whether a message was due at the barrier (clamped to it).
  bool Drain(Time at);
  bool MailboxesNonEmpty() const;

  const Time tick_;
  const size_t fill_threshold_;
  std::vector<Runtime*> runtimes_;
  std::vector<Outbox> out_;
  std::vector<std::function<void(Time)>> hooks_;
  std::function<void(Time)> membership_hook_;
  std::atomic<Time> barrier_now_{0};
  std::atomic<uint64_t> barriers_{0};
  uint64_t membership_apply_ns_ = 0;
};

}  // namespace sbqa::rt

#endif  // SBQA_RUNTIME_BARRIER_CORE_H_
