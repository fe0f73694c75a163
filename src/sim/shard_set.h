#ifndef SBQA_SIM_SHARD_SET_H_
#define SBQA_SIM_SHARD_SET_H_

/// \file
/// Sharded simulation driver: N independent Simulations (one scheduler,
/// network and RNG stream each) advanced in lock-step windows and connected
/// by a deterministic cross-shard mailbox.
///
/// Time is cut into barrier windows of `shard_barrier_tick` seconds. Within
/// a window every shard runs its own event loop with NO shared mutable
/// state — one worker thread per shard, no locks on the hot path. Outgoing
/// cross-shard sends are buffered per (source, destination) pair; at the
/// barrier the driver thread (alone, with every worker parked) drains the
/// mailboxes in a fixed (destination, source, FIFO) order onto the
/// destination schedulers. Because each shard's intra-window execution is
/// deterministic and the drain order is fixed, a run is bit-reproducible
/// for a given (seed, shard_count) — threaded and serial execution produce
/// identical traces — and a 1-shard set reproduces the classic
/// single-engine simulation exactly.
///
/// One shard with no membership phase and no barrier hook has nothing to
/// synchronize, so RunUntil(t) runs it as a single window: the 1-shard set
/// costs what a bare Simulation::RunUntil costs and runs the same trace.
///
/// Shard s's root RNG stream is util::Rng::StreamSeed(seed, s); stream 0
/// is the root seed itself, which is what makes the 1-shard case
/// bit-identical to a standalone Simulation.
///
/// A cross-shard message delivered at barrier time B with a sampled
/// latency that lands inside the elapsed window is clamped to B: the
/// mailbox adds at most one barrier tick of latency to a cross-shard hop,
/// which is why the tick should stay at or below the network latency
/// scale.

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/shard_fabric.h"
#include "sim/event_fn.h"
#include "sim/scheduler.h"
#include "sim/simulation.h"

namespace sbqa::sim {

/// Owns the shards and runs the barrier protocol. Implements the abstract
/// rt::ShardFabric transport, which is all the mediator sees of it.
class ShardSet : public rt::ShardFabric {
 public:
  /// Builds `config.shard_count` shards; shard s is a Simulation seeded
  /// with StreamSeed(config.seed, s). Worker threads (when enabled and
  /// shard_count > 1) are created once here and parked between windows.
  explicit ShardSet(const SimulationConfig& config);
  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;
  ~ShardSet() override;

  uint32_t shard_count() const override {
    return static_cast<uint32_t>(shards_.size());
  }
  Simulation& shard(uint32_t s) { return *shards_[s]; }
  const Simulation& shard(uint32_t s) const { return *shards_[s]; }

  /// Barrier clock: the time every shard has reached together. Individual
  /// shard clocks run ahead of this inside a window.
  Time now() const { return barrier_now_; }

  /// Posts `fn` to shard `dst`'s scheduler, to fire at `deliver_at` (or at
  /// the next barrier, whichever is later). MUST be called from shard
  /// `src`'s execution context (its worker thread mid-window, or the
  /// driver between windows): the (src, dst) outbox is lock-free because
  /// src is its only writer. Delivery order is deterministic: barriers
  /// drain outboxes in (destination, source, FIFO) order.
  void PostTo(uint32_t src, uint32_t dst, Time deliver_at,
              EventFn fn) override;

  /// Registers a hook run by the driver thread at every barrier (all
  /// workers parked, mailboxes already drained and the membership phase
  /// complete). Hooks run in registration order and may safely read any
  /// shard's state — this is where the cross-shard candidate directory
  /// refresh and metrics sampling live.
  void AddBarrierHook(std::function<void(Time)> hook);

  /// Installs the MEMBERSHIP PHASE of the barrier sequence (at most one):
  /// drain mailboxes -> apply membership log -> refresh directory (a
  /// regular hook) -> resume. The hook runs on the driver thread with all
  /// workers parked, at every barrier AND during final-horizon settlement
  /// windows, so membership ops queued in the last window are still
  /// applied and any cross-shard messages the application posts (e.g. a
  /// departing provider's borrowed-query outcomes routed home) are drained
  /// before RunUntil returns. Typically wraps Registry::AdvanceEpoch.
  void SetMembershipHook(std::function<void(Time)> hook);

  /// Driver wall-clock seconds spent inside the membership hook (the
  /// epoch-apply cost; feeds the bench regression gate).
  double membership_apply_seconds() const {
    return static_cast<double>(membership_apply_ns_) * 1e-9;
  }

  /// Advances every shard to `t` through barrier windows (one window when
  /// a lone shard has no hooks). Runs hooks at every barrier, including
  /// the final one at `t`. Like
  /// Scheduler::RunUntil, leaves no event with timestamp <= `t` unrun:
  /// cross-shard messages clamped to the final barrier are settled with
  /// extra zero-width windows before returning.
  void RunUntil(Time t);

  /// Cross-shard messages posted since construction.
  uint64_t cross_shard_messages() const;
  /// Barrier synchronizations performed since construction.
  uint64_t barriers() const { return barriers_; }
  bool threaded() const { return !workers_.empty(); }

 private:
  struct Pending {
    Time deliver_at;
    EventFn fn;
  };
  /// One source shard's outboxes (slot d = messages for shard d) plus its
  /// message counter, padded so two shards' mailbox bookkeeping never
  /// shares a cache line mid-window.
  struct alignas(64) Outbox {
    std::vector<std::vector<Pending>> to;
    uint64_t posted = 0;
  };

  void RunWindow(Time target);
  /// Returns true when a drained message was due at the current barrier
  /// (delivery clamped to now) — the signal for RunUntil's settlement.
  bool DrainMailboxes();
  /// One barrier: drain, membership phase, then (when `run_hooks`) the
  /// regular hooks. Returns whether another settlement window is needed —
  /// a drained message was due now, or the membership phase posted fresh
  /// cross-shard messages.
  bool BarrierPhase(bool run_hooks);
  /// Whether any (src, dst) outbox still holds messages.
  bool MailboxesNonEmpty() const;
  void WorkerLoop(uint32_t s);

  SimulationConfig config_;
  std::vector<std::unique_ptr<Simulation>> shards_;
  std::vector<Outbox> out_;
  std::vector<std::function<void(Time)>> hooks_;
  std::function<void(Time)> membership_hook_;
  Time barrier_now_ = 0;
  uint64_t barriers_ = 0;
  uint64_t membership_apply_ns_ = 0;

  // Worker-thread parking (threaded mode only). The mutex guards only the
  // window hand-off words below, never simulation state.
  struct Threads;
  std::unique_ptr<Threads> threads_;
  std::vector<std::unique_ptr<std::thread>> workers_;
};

}  // namespace sbqa::sim

#endif  // SBQA_SIM_SHARD_SET_H_
