#ifndef SBQA_EXPERIMENTS_RUNNER_H_
#define SBQA_EXPERIMENTS_RUNNER_H_

/// \file
/// Builds a full simulated system from a ScenarioConfig, runs it, and
/// returns the aggregated results. This is the single entry point used by
/// the bench binaries, the examples and the integration tests.

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
  /// Elastic-membership telemetry of multi-shard runs (zero at
  /// shard_count = 1, where membership applies immediately):
  /// applied epochs / ops and the driver wall-clock seconds spent applying
  /// them — the epoch-apply cost the bench regression gate bounds.
  uint64_t membership_epochs = 0;
  uint64_t membership_ops = 0;
  double membership_apply_seconds = 0;
  /// Decision-path telemetry: the accumulated per-phase nanoseconds (all
  /// zero unless sim.decision_timing was on; `decisions` counts
  /// regardless). Sharded runs aggregate across shard mediators.
  core::ScoreKernelPhases decision_phases;
};

/// Runs one scenario to completion (synchronously) and aggregates. Every
/// run is N >= 1 shards (config.sim.shard_count): per-shard schedulers, a
/// partitioned registry and the deterministic cross-shard mailbox (see
/// sim/shard_set.h), wired by the shared experiments::Assembly. One shard
/// is the plain single-engine simulation: membership applies immediately,
/// metrics sample through scheduled events and the horizon runs as one
/// window. Several shards apply availability churn and volunteer joins as
/// barrier epoch ops of the registry's membership log, replay shared
/// observers through the collector's deterministic cross-shard mux, and
/// delegate a query one hop to the least-loaded donor shard when the home
/// pool is dry (see src/core/README.md, "Cross-shard delegation").
/// mediator_count > 1 runs a mediator GROUP per shard (the first member is
/// the shard's gateway).
RunResult RunScenario(const ScenarioConfig& config);

/// Runs the same scenario once per method, holding everything else equal
/// (including the seed, so populations are identical across techniques).
std::vector<RunResult> CompareMethods(const ScenarioConfig& base,
                                      const std::vector<MethodSpec>& methods);

}  // namespace sbqa::experiments

#endif  // SBQA_EXPERIMENTS_RUNNER_H_
