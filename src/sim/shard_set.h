#ifndef SBQA_SIM_SHARD_SET_H_
#define SBQA_SIM_SHARD_SET_H_

/// \file
/// Sharded simulation driver: N independent Simulations (one scheduler,
/// network and RNG stream each) advanced in lock-step windows of
/// `shard_barrier_tick` virtual seconds and joined by the barrier protocol
/// of rt::BarrierCore (src/runtime/README.md, "Barrier core").
///
/// This class is the virtual-time window policy: within a window every
/// shard runs its own event loop with no shared mutable state, one worker
/// thread per busy shard or serially in shard order. Because each shard's
/// intra-window execution is deterministic and the drain order is fixed, a
/// run is bit-reproducible for a given (seed, shard_count): threaded and
/// serial execution produce identical traces, and a 1-shard set with no
/// barrier work runs RunUntil(t) as one window, exactly a bare
/// Simulation::RunUntil(t).
///
/// Shard s's root RNG stream is util::Rng::StreamSeed(seed, s); stream 0
/// is the root seed itself, which is what makes the 1-shard case
/// bit-identical to a standalone Simulation.

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/barrier_core.h"
#include "sim/scheduler.h"
#include "sim/simulation.h"

namespace sbqa::sim {

class ShardSet final : public rt::BarrierCore {
 public:
  /// Builds `config.shard_count` shards; shard s is a Simulation seeded
  /// with StreamSeed(config.seed, s). Worker threads (when enabled and
  /// shard_count > 1) are created once here and parked between windows.
  explicit ShardSet(const SimulationConfig& config);
  ~ShardSet() override;

  Simulation& shard(uint32_t s) { return *shards_[s]; }
  const Simulation& shard(uint32_t s) const { return *shards_[s]; }

  /// Advances every shard to `t` through barrier windows (one window when
  /// the shard is lone), then settles the horizon: like
  /// Scheduler::RunUntil, leaves no cross-shard message due at or before
  /// `t` unrun.
  void RunUntil(Time t) override { RunWindows(t, lone()); }

  bool threaded() const { return !workers_.empty(); }

 private:
  void AdvanceAll(Time target) override;
  void WorkerLoop(uint32_t s);

  std::vector<std::unique_ptr<Simulation>> shards_;

  // Worker-thread parking (threaded mode only). The mutex guards only the
  // window hand-off words below, never simulation state.
  struct Threads;
  std::unique_ptr<Threads> threads_;
  std::vector<std::unique_ptr<std::thread>> workers_;
};

}  // namespace sbqa::sim

#endif  // SBQA_SIM_SHARD_SET_H_
