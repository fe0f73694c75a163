#ifndef SBQA_TESTS_CLASSIC_SCENARIO_H_
#define SBQA_TESTS_CLASSIC_SCENARIO_H_

// Test-only oracle: the classic single-engine scenario runner, kept as the
// reference that experiments::RunScenario at shard_count = 1 must
// reproduce bit for bit. It wires one Simulation, one mediator group, one
// collector sampling through scheduled events and the immediate-mode
// churn/join processes by hand, exactly as the library did before every
// run became a shard set. It reads no sharding field and attaches
// config.observers only (no per-shard observer factory).
//
// ExpectSameSeries compares two runs' metric time series sample by
// sample, timestamps included, bit for bit.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/sbqa.h"
#include "experiments/methods.h"
#include "experiments/runner.h"
#include "experiments/scenario.h"
#include "metrics/collector.h"
#include "metrics/timeseries.h"
#include "model/reputation.h"
#include "runtime/fault.h"
#include "sim/simulation.h"
#include "util/check.h"
#include "util/rng.h"

namespace sbqa::oracle {

inline experiments::RunResult RunClassicScenario(
    const experiments::ScenarioConfig& config) {
  SBQA_CHECK_GT(config.duration, 0);
  SBQA_CHECK_EQ(config.sim.shard_count, 1u);

  sim::SimulationConfig sim_config = config.sim;
  sim_config.seed = config.seed;
  sim::Simulation simulation(sim_config);

  // Population (identical across methods for a fixed seed: the population
  // stream is split off before any method-dependent randomness).
  core::Registry registry;
  util::Rng population_rng = simulation.NewRng();
  const boinc::BuiltPopulation population =
      boinc::BuildPopulation(config.population, &registry, &population_rng);
  if (config.population_hook) {
    config.population_hook(&registry, population, &population_rng);
  }

  model::ReputationRegistry reputation(registry.provider_count());

  experiments::MethodSpec method = config.method;
  method.sbqa.decision_timing = config.sim.decision_timing;

  // Mediator group, each mediator with its own method instance and, under a
  // fault plan, its own injector (stream m of the plan seed).
  const size_t mediator_count = std::max<size_t>(config.mediator_count, 1);
  std::vector<std::unique_ptr<rt::FaultInjector>> injectors;
  std::vector<std::unique_ptr<core::Mediator>> mediators;
  std::vector<core::Mediator*> mediator_ptrs;
  for (size_t m = 0; m < mediator_count; ++m) {
    rt::Runtime* runtime = &simulation.runtime();
    if (config.fault_plan.enabled()) {
      rt::FaultPlan plan = config.fault_plan;
      plan.seed = util::Rng::StreamSeed(config.fault_plan.seed, m);
      injectors.push_back(std::make_unique<rt::FaultInjector>(runtime, plan));
      runtime = injectors.back().get();
    }
    mediators.push_back(std::make_unique<core::Mediator>(
        runtime, &registry, &reputation, experiments::MakeMethod(method),
        config.mediator));
    mediator_ptrs.push_back(mediators.back().get());
  }
  for (const auto& mediator : mediators) mediator->SetPeers(mediator_ptrs);
  if (config.departure.providers_can_leave ||
      config.departure.consumers_can_leave) {
    for (size_t m = 0; m < mediators.size(); ++m) {
      mediators[m]->SetDepartureModel(config.departure, /*run_sweep=*/m == 0);
    }
  }

  metrics::Collector collector({&simulation}, &registry, mediator_ptrs,
                               config.sample_interval);
  for (core::MediationObserver* observer : config.observers) {
    for (const auto& mediator : mediators) mediator->AddObserver(observer);
  }

  // Workload: one generator per project, spread over the group.
  workload::QueryIdSource ids;
  std::vector<std::unique_ptr<workload::QueryGenerator>> generators;
  for (size_t i = 0; i < population.projects.size(); ++i) {
    const boinc::ProjectSpec& project = config.population.projects[i];
    workload::ArrivalParams arrivals;
    arrivals.rate = project.arrival_rate;
    arrivals.end_time = config.duration;
    arrivals.deadline = config.query_deadline;
    generators.push_back(std::make_unique<workload::QueryGenerator>(
        &simulation, mediator_ptrs[i % mediator_count], &ids,
        population.projects[i], arrivals, project.cost));
    generators.back()->Start();
  }

  // Open-system dynamics, driven through the first mediator.
  const std::vector<std::unique_ptr<workload::ChurnProcess>> churn =
      workload::StartChurn(&simulation, mediator_ptrs.front(),
                           population.volunteers, config.churn);
  std::unique_ptr<boinc::VolunteerJoinProcess> joins;
  if (config.joins.enabled) {
    joins = std::make_unique<boinc::VolunteerJoinProcess>(
        &simulation, mediator_ptrs.front(), &reputation, config.population,
        population.projects, config.joins, config.churn);
    joins->Start();
  }

  collector.Start(config.duration);
  simulation.RunUntil(config.duration);
  // Drain in-flight queries; the horizon covers the full retry budget.
  const core::MediatorConfig& m = config.mediator;
  double lifetime = m.query_timeout;
  if (m.max_retries > 0) {
    lifetime = (m.max_retries + 1) * m.query_timeout +
               m.max_retries * m.retry_backoff_cap *
                   (1.0 + m.retry_backoff_jitter);
  }
  if (config.query_deadline > 0) {
    lifetime = std::min(lifetime, config.query_deadline);
  }
  simulation.RunUntil(config.duration + lifetime);

  experiments::RunResult result;
  result.summary = collector.Summarize(config.duration);
  for (const auto& injector : injectors) {
    result.summary.fault_sends_dropped += injector->stats().sends_dropped;
    result.summary.fault_sends_delayed += injector->stats().sends_delayed;
    result.summary.fault_sends_crashed += injector->stats().sends_crashed;
  }
  result.series = collector.series();
  result.consumers = collector.ConsumerSnapshots();
  result.providers = collector.ProviderSnapshots();
  for (const auto& mediator : mediators) {
    auto* sbqa = dynamic_cast<core::SbqaMethod*>(&mediator->method());
    if (sbqa == nullptr) continue;
    result.decision_phases.Accumulate(sbqa->kernel().phases());
  }
  return result;
}

inline void ExpectSameSeries(const metrics::TimeSeries& a,
                             const metrics::TimeSeries& b, const char* name) {
  ASSERT_EQ(a.size(), b.size()) << name;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a.times()[i]),
              std::bit_cast<uint64_t>(b.times()[i]))
        << name << " sample " << i << ": " << a.times()[i] << " vs "
        << b.times()[i];
    EXPECT_EQ(std::bit_cast<uint64_t>(a.values()[i]),
              std::bit_cast<uint64_t>(b.values()[i]))
        << name << " sample " << i;
  }
}

/// Every series of two runs, sample by sample, bit for bit.
inline void ExpectSameSeries(const metrics::RunSeries& a,
                             const metrics::RunSeries& b) {
  EXPECT_GT(a.consumer_satisfaction.size(), 1u);
  ExpectSameSeries(a.consumer_satisfaction, b.consumer_satisfaction,
                   "consumer_satisfaction");
  ExpectSameSeries(a.provider_satisfaction, b.provider_satisfaction,
                   "provider_satisfaction");
  ExpectSameSeries(a.consumer_adequation, b.consumer_adequation,
                   "consumer_adequation");
  ExpectSameSeries(a.provider_adequation, b.provider_adequation,
                   "provider_adequation");
  ExpectSameSeries(a.alive_providers, b.alive_providers, "alive_providers");
  ExpectSameSeries(a.active_consumers, b.active_consumers,
                   "active_consumers");
  ExpectSameSeries(a.alive_capacity_fraction, b.alive_capacity_fraction,
                   "alive_capacity_fraction");
  ExpectSameSeries(a.mean_backlog, b.mean_backlog, "mean_backlog");
  ExpectSameSeries(a.backlog_gini, b.backlog_gini, "backlog_gini");
  ExpectSameSeries(a.recent_response_time, b.recent_response_time,
                   "recent_response_time");
  ExpectSameSeries(a.throughput, b.throughput, "throughput");
}

}  // namespace sbqa::oracle

#endif  // SBQA_TESTS_CLASSIC_SCENARIO_H_
