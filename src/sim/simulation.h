#ifndef SBQA_SIM_SIMULATION_H_
#define SBQA_SIM_SIMULATION_H_

/// \file
/// Top-level simulation context bundling the scheduler, network fabric and
/// the root random stream. Every experiment builds exactly one Simulation —
/// or, in sharded mode, one per shard (see shard_set.h).

#include <cstdint>
#include <memory>

#include "sim/scheduler.h"
#include "sim/sim_runtime.h"
#include "util/rng.h"

namespace sbqa::sim {

class Network;

/// Configuration of the simulation substrate.
struct SimulationConfig {
  uint64_t seed = 42;         ///< root seed; all streams derive from it
  double latency_median = 0.020;  ///< one-way message latency median (s)
  double latency_sigma = 0.35;    ///< log-space spread; 0 = constant latency
  double latency_floor = 0.001;   ///< hard minimum latency (s)
  /// Collect per-phase decision timings (sample / gather / intentions /
  /// score / rank ns) on the method's kernel; surfaced through
  /// RunResult::decision_phases and the JSON report. Off by default (two
  /// steady-clock reads per phase).
  bool decision_timing = false;

  // --- Sharding (consumed by ShardSet and the experiment runner; a
  // --- standalone Simulation ignores these) --------------------------------

  /// Number of independent shards, each with its own scheduler, network,
  /// registry partition and mediator, connected by the deterministic
  /// cross-shard mailbox. 1 = the plain single-engine simulation (one
  /// barrier window per RunUntil when no barrier work is installed).
  uint32_t shard_count = 1;
  /// Width (seconds) of the barrier window: shards run independently for
  /// one window, then exchange cross-shard messages at the barrier. Bounds
  /// the extra latency of a cross-shard hop.
  double shard_barrier_tick = 0.005;
  /// Run one worker thread per shard between barriers. Off = the driver
  /// runs shards sequentially in shard order; both modes produce identical
  /// traces (shards only interact at barriers).
  bool shard_use_threads = true;
};

/// Owns the event scheduler, the network and the root RNG.
class Simulation {
 public:
  explicit Simulation(const SimulationConfig& config = {});
  ~Simulation();

  Scheduler& scheduler() { return scheduler_; }
  Network& network();  // defined out of line (Network is forward-declared)

  /// This simulation's runtime-seam adapter (see sim/sim_runtime.h): the
  /// rt::Runtime face the mediation pipeline runs against. Driving a
  /// mediator through it is bit-identical to the pre-seam engine.
  SimRuntime& runtime() { return runtime_; }

  /// Root random stream (use NewRng() for per-entity streams).
  util::Rng& rng() { return rng_; }

  /// Derives an independent random stream for an entity.
  util::Rng NewRng() { return rng_.Split(); }

  Time now() const { return scheduler_.now(); }
  void RunUntil(Time t) { scheduler_.RunUntil(t); }
  void RunFor(Time d) { scheduler_.RunFor(d); }

  const SimulationConfig& config() const { return config_; }

 private:
  SimulationConfig config_;
  util::Rng rng_;
  Scheduler scheduler_;
  std::unique_ptr<Network> network_;
  SimRuntime runtime_{this};
};

}  // namespace sbqa::sim

#endif  // SBQA_SIM_SIMULATION_H_
