#ifndef SBQA_EXPERIMENTS_RUNNER_H_
#define SBQA_EXPERIMENTS_RUNNER_H_

/// \file
/// Builds a full simulated system from a ScenarioConfig, runs it, and
/// returns the aggregated results. This is the single entry point used by
/// the bench binaries, the examples and the integration tests.

#include <string>
#include <vector>

#include "core/score_kernel.h"
#include "experiments/scenario.h"
#include "metrics/summary.h"
#include "metrics/timeseries.h"

namespace sbqa::experiments {

/// Everything a run produces.
struct RunResult {
  metrics::RunSummary summary;
  metrics::RunSeries series;
  std::vector<metrics::ParticipantSnapshot> consumers;
  std::vector<metrics::ParticipantSnapshot> providers;
  /// Elastic-membership telemetry of sharded runs (zero in single-engine
  /// runs and at shard_count = 1, where membership applies immediately):
  /// applied epochs / ops and the driver wall-clock seconds spent applying
  /// them — the epoch-apply cost the bench regression gate bounds.
  uint64_t membership_epochs = 0;
  uint64_t membership_ops = 0;
  double membership_apply_seconds = 0;
  /// Decision-path telemetry: which scoring kernel ran ("exact"/"batched";
  /// empty when the method is not SbQA-based) and the accumulated per-phase
  /// nanoseconds (all zero unless sim.decision_timing was on; `decisions`
  /// counts regardless). Sharded runs aggregate across shard mediators.
  std::string scoring_kernel;
  core::ScoreKernelPhases decision_phases;
};

/// Runs one scenario to completion (synchronously) and aggregates.
/// Dispatches to the sharded engine when config.sim.shard_count > 1.
RunResult RunScenario(const ScenarioConfig& config);

/// The sharded engine entry point: per-shard schedulers, a partitioned
/// registry and the deterministic cross-shard mailbox (see
/// sim/shard_set.h). RunScenario calls this for shard_count > 1; it is
/// public so tests and benches can also drive shard_count = 1 through the
/// sharded machinery — which is bit-identical to the classic engine — for
/// apples-to-apples comparisons. Supports the full dynamic-population
/// feature set: availability churn and runtime volunteer joins become
/// barrier-applied epoch ops of the registry's membership log, and shared
/// observers are replayed through the collector's deterministic
/// cross-shard mux. mediator_count > 1 runs a mediator GROUP per shard
/// (the first member is the shard's cross-shard gateway). A shard whose
/// pool is dry for a query delegates it one hop to the least-loaded donor
/// shard (see src/core/README.md, "Cross-shard delegation").
RunResult RunShardedScenario(const ScenarioConfig& config);

/// Runs the same scenario once per method, holding everything else equal
/// (including the seed, so populations are identical across techniques).
std::vector<RunResult> CompareMethods(const ScenarioConfig& base,
                                      const std::vector<MethodSpec>& methods);

}  // namespace sbqa::experiments

#endif  // SBQA_EXPERIMENTS_RUNNER_H_
