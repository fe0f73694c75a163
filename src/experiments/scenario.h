#ifndef SBQA_EXPERIMENTS_SCENARIO_H_
#define SBQA_EXPERIMENTS_SCENARIO_H_

/// \file
/// A complete experiment configuration: population, workload, allocation
/// method, environment (captive vs autonomous) and run controls.

#include <cstdint>
#include <functional>

#include "boinc/join.h"
#include "boinc/population.h"
#include "core/departure.h"
#include "core/mediator.h"
#include "experiments/methods.h"
#include "runtime/fault.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "workload/churn.h"

namespace sbqa::experiments {

/// Everything needed to reproduce one run.
struct ScenarioConfig {
  /// Root seed: two runs with equal configs and seeds are bit-identical.
  uint64_t seed = 42;
  /// Simulated run length in seconds.
  double duration = 600.0;
  /// Metrics snapshot interval in seconds.
  double sample_interval = 10.0;

  /// Network latency model (see sim::SimulationConfig).
  sim::SimulationConfig sim;

  /// Participant population (projects + volunteers).
  boinc::BoincSpec population = boinc::DemoBoincSpec();

  /// Allocation technique under test.
  MethodSpec method;

  /// Mediator knobs (network simulation on/off, query timeout, retry
  /// budget, provider health detection).
  core::MediatorConfig mediator;

  /// Deterministic fault injection between each shard's mediators and its
  /// scheduler (dropped/delayed dispatches, provider crash windows,
  /// latency skew). Disabled by default. Shard s's injector streams are
  /// StreamSeed(fault_plan.seed, s) — stream 0 is the root seed. Faults
  /// act on the data plane only (provider dispatches); every mediator's
  /// inbox stays lossless so every query reaches a terminal outcome.
  rt::FaultPlan fault_plan;

  /// Per-query deadline stamped on every generated query, in seconds
  /// after issue (0 = none beyond the mediator's query_timeout). Bounds
  /// retries: no attempt or backoff extends past issued_at + deadline.
  double query_deadline = 0.0;

  /// Mediator group size PER SHARD: a shard's consumers are spread
  /// round-robin over this many mediators, all sharing the registry and
  /// reputation, each with its own RNG stream and (stale) load view. The
  /// first one is the shard's gateway for cross-shard traffic (delegation
  /// targets, membership ops, departure sweeps).
  size_t mediator_count = 1;

  /// Captive (disabled) vs autonomous (enabled) environment.
  core::DepartureConfig departure;

  /// Volunteer availability churn (hosts go offline and return).
  workload::ChurnParams churn;

  /// Runtime volunteer arrivals (open system).
  boinc::VolunteerJoinParams joins;

  /// Optional post-build hook to customize the generated population (e.g.
  /// Scenario 7 plants a scripted participant with hand-picked
  /// preferences). Runs once, right after BuildPopulation.
  std::function<void(core::Registry*, const boinc::BuiltPopulation&,
                     util::Rng*)>
      population_hook;

  /// Extra mediation observers attached for the run (not owned; must
  /// outlive RunScenario). Used by invariant-checking tests and custom
  /// metrics. At one shard they attach to every mediator directly; with
  /// sim.shard_count > 1 they become SHARED observers fed
  /// through the collector's cross-shard mux: every shard buffers its
  /// events single-writer and the barrier driver replays them in fixed
  /// (shard, FIFO) order — deterministic, but delivered at barrier
  /// granularity rather than at event time. Observers needing per-shard
  /// event-time callbacks should use shard_observer_factory instead.
  std::vector<core::MediationObserver*> observers;

  /// Optional factory called once per shard id; the returned observer (not
  /// owned; may be null) is attached to that shard's gateway mediator
  /// only, so it is single-writer by construction and needs no
  /// synchronization. Used by the cross-shard determinism tests to record
  /// per-shard allocation traces.
  std::function<core::MediationObserver*(uint32_t)> shard_observer_factory;
};

/// Marks the environment captive: nobody may leave (paper Scenarios 1, 3).
inline ScenarioConfig WithCaptiveEnvironment(ScenarioConfig config) {
  config.departure.providers_can_leave = false;
  config.departure.consumers_can_leave = false;
  return config;
}

/// Marks the environment autonomous with the paper's Scenario-2 thresholds:
/// providers leave below 0.35, consumers stop below 0.5.
inline ScenarioConfig WithAutonomousEnvironment(ScenarioConfig config) {
  config.departure.providers_can_leave = true;
  config.departure.consumers_can_leave = true;
  config.departure.provider_threshold = 0.35;
  config.departure.consumer_threshold = 0.5;
  return config;
}

/// Swaps every participant to the performance-oriented Scenario-5 policies:
/// consumers only care about response time, providers only about load.
inline ScenarioConfig WithPerformanceOrientedParticipants(
    ScenarioConfig config) {
  for (auto& project : config.population.projects) {
    project.policy = model::ConsumerPolicyKind::kResponseTimeOnly;
  }
  config.population.volunteers.policy =
      model::ProviderPolicyKind::kLoadOnly;
  return config;
}

}  // namespace sbqa::experiments

#endif  // SBQA_EXPERIMENTS_SCENARIO_H_
