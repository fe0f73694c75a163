// Tests for open-system dynamics: availability churn and runtime joins.

#include <memory>

#include <gtest/gtest.h>

#include "boinc/join.h"
#include "core/mediator.h"
#include "core/sbqa.h"
#include "experiments/demo_scenarios.h"
#include "experiments/runner.h"
#include "model/reputation.h"
#include "sim/simulation.h"
#include "workload/churn.h"

namespace sbqa {
namespace {

// --- Mediator availability API ------------------------------------------------

struct AvailabilityHarness {
  AvailabilityHarness() {
    sim::SimulationConfig config;
    config.seed = 21;
    simulation = std::make_unique<sim::Simulation>(config);
    core::ConsumerParams consumer_params;
    consumer_params.policy_kind = model::ConsumerPolicyKind::kPreferenceOnly;
    registry.AddConsumer(consumer_params);
    for (int i = 0; i < 3; ++i) {
      core::ProviderParams params;
      params.capacity = 1.0;
      params.policy_kind = model::ProviderPolicyKind::kPreferenceOnly;
      registry.AddProvider(params);
    }
    reputation = std::make_unique<model::ReputationRegistry>(3);
    core::MediatorConfig mediator_config;
    mediator_config.simulate_network = false;
    mediator = std::make_unique<core::Mediator>(
        simulation.get(), &registry, reputation.get(),
        std::make_unique<core::SbqaMethod>(core::SbqaParams{}),
        mediator_config);
  }

  std::unique_ptr<sim::Simulation> simulation;
  core::Registry registry;
  std::unique_ptr<model::ReputationRegistry> reputation;
  std::unique_ptr<core::Mediator> mediator;
};

TEST(AvailabilityTest, OfflineProviderLeavesCandidateSet) {
  AvailabilityHarness h;
  h.mediator->SetProviderAvailability(1, false);
  model::Query q;
  const auto pq = h.registry.ProvidersFor(q);
  EXPECT_EQ(pq, (std::vector<model::ProviderId>{0, 2}));
  EXPECT_EQ(h.mediator->stats().provider_offline_events, 1);
}

TEST(AvailabilityTest, ReturningProviderIsEligibleAgain) {
  AvailabilityHarness h;
  h.mediator->SetProviderAvailability(1, false);
  h.mediator->SetProviderAvailability(1, true);
  model::Query q;
  EXPECT_EQ(h.registry.ProvidersFor(q).size(), 3u);
  EXPECT_TRUE(h.registry.provider(1).alive());
  EXPECT_FALSE(h.registry.provider(1).departed());
}

TEST(AvailabilityTest, RedundantTransitionsAreNoOps) {
  AvailabilityHarness h;
  h.mediator->SetProviderAvailability(1, true);   // already online
  EXPECT_EQ(h.mediator->stats().provider_offline_events, 0);
  h.mediator->SetProviderAvailability(1, false);
  h.mediator->SetProviderAvailability(1, false);  // already offline
  EXPECT_EQ(h.mediator->stats().provider_offline_events, 1);
}

TEST(AvailabilityTest, DepartedProviderCannotReturn) {
  AvailabilityHarness h;
  h.registry.provider(1).MarkDeparted();
  h.mediator->SetProviderAvailability(1, true);
  EXPECT_FALSE(h.registry.provider(1).alive());
  EXPECT_TRUE(h.registry.provider(1).departed());
}

TEST(AvailabilityTest, GoingOfflineFailsInFlightInstances) {
  AvailabilityHarness h;
  // Query on the (single) provider 0: take the others offline first.
  h.mediator->SetProviderAvailability(1, false);
  h.mediator->SetProviderAvailability(2, false);
  model::Query q;
  q.id = 1;
  q.consumer = 0;
  q.n_results = 1;
  q.cost = 10.0;  // long-running
  h.mediator->SubmitQuery(q);
  h.simulation->RunUntil(1.0);
  ASSERT_EQ(h.mediator->inflight_count(), 1u);
  h.mediator->SetProviderAvailability(0, false);
  h.simulation->RunUntil(2.0);
  // The instance failed, so the query finalized with zero results.
  EXPECT_EQ(h.mediator->inflight_count(), 0u);
  EXPECT_EQ(h.mediator->stats().instances_failed, 1);
  EXPECT_EQ(h.mediator->stats().queries_finalized, 1);
}

TEST(AvailabilityTest, ProcessingEventOfDroppedWorkIsStale) {
  AvailabilityHarness h;
  h.mediator->SetProviderAvailability(1, false);
  h.mediator->SetProviderAvailability(2, false);
  model::Query q;
  q.id = 1;
  q.consumer = 0;
  q.n_results = 1;
  q.cost = 5.0;
  h.mediator->SubmitQuery(q);
  h.simulation->RunUntil(1.0);
  h.mediator->SetProviderAvailability(0, false);
  h.mediator->SetProviderAvailability(0, true);
  // Run past the would-be completion: the stale event must not fire
  // provider accounting (queue epoch changed).
  h.simulation->RunUntil(10.0);
  EXPECT_EQ(h.registry.provider(0).instances_performed(), 0);
  EXPECT_EQ(h.registry.provider(0).outstanding(), 0);
}

// --- ChurnProcess ----------------------------------------------------------------

TEST(ChurnTest, DisabledChurnStartsNothing) {
  AvailabilityHarness h;
  workload::ChurnParams params;
  params.enabled = false;
  const auto processes = workload::StartChurn(
      h.simulation.get(), h.mediator.get(), {0, 1, 2}, params);
  EXPECT_TRUE(processes.empty());
}

TEST(ChurnTest, TogglesAvailabilityOverTime) {
  AvailabilityHarness h;
  workload::ChurnParams params;
  params.enabled = true;
  params.mean_online = 5.0;
  params.mean_offline = 5.0;
  const auto processes = workload::StartChurn(
      h.simulation.get(), h.mediator.get(), {0, 1, 2}, params);
  ASSERT_EQ(processes.size(), 3u);
  h.simulation->RunUntil(200.0);
  // With 5s mean spells over 200s, every provider churned several times.
  for (const auto& process : processes) {
    EXPECT_GT(process->offline_spells(), 3);
  }
  EXPECT_GT(h.mediator->stats().provider_offline_events, 9);
}

TEST(ChurnTest, InitialOfflineFractionRespected) {
  sim::SimulationConfig sim_config;
  sim_config.seed = 5;
  sim::Simulation simulation(sim_config);
  core::Registry registry;
  core::ConsumerParams cp;
  registry.AddConsumer(cp);
  std::vector<model::ProviderId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(registry.AddProvider(core::ProviderParams{}));
  }
  model::ReputationRegistry reputation(200);
  core::MediatorConfig mc;
  mc.simulate_network = false;
  core::Mediator mediator(&simulation, &registry, &reputation,
                          std::make_unique<core::SbqaMethod>(
                              core::SbqaParams{}),
                          mc);
  workload::ChurnParams params;
  params.enabled = true;
  params.initial_online_fraction = 0.5;
  const auto processes =
      workload::StartChurn(&simulation, &mediator, ids, params);
  const size_t online = registry.alive_provider_count();
  EXPECT_NEAR(static_cast<double>(online), 100.0, 25.0);
}

// --- VolunteerJoinProcess -----------------------------------------------------------

TEST(JoinTest, VolunteersJoinAtConfiguredRate) {
  sim::SimulationConfig sim_config;
  sim_config.seed = 31;
  sim::Simulation simulation(sim_config);
  core::Registry registry;
  util::Rng rng(31);
  const boinc::BoincSpec spec = boinc::DemoBoincSpec(20);
  const boinc::BuiltPopulation built =
      boinc::BuildPopulation(spec, &registry, &rng);
  model::ReputationRegistry reputation(registry.provider_count());
  core::MediatorConfig mc;
  mc.simulate_network = false;
  core::Mediator mediator(&simulation, &registry, &reputation,
                          std::make_unique<core::SbqaMethod>(
                              core::SbqaParams{}),
                          mc);

  boinc::VolunteerJoinParams params;
  params.enabled = true;
  params.rate = 0.5;  // one every 2s
  params.max_joins = 1000;
  boinc::VolunteerJoinProcess joins(&simulation, &mediator, &reputation,
                                    spec, built.projects, params);
  joins.Start();
  simulation.RunUntil(100.0);

  EXPECT_NEAR(static_cast<double>(joins.joined()), 50.0, 25.0);
  EXPECT_EQ(registry.provider_count(), 20u + static_cast<size_t>(joins.joined()));
  EXPECT_EQ(reputation.size(), registry.provider_count());
  // Newcomers have popularity-driven preferences for every project: each
  // lies in the interested or the uninterested draw range, neither of
  // which holds the unset default 0.
  const boinc::VolunteerPopulationSpec& vols = spec.volunteers;
  for (model::ProviderId id : joins.joined_ids()) {
    for (model::ConsumerId project : built.projects) {
      const double pref = registry.provider(id).preferences().Get(project);
      const bool interested = pref >= vols.interested_pref_min &&
                              pref <= vols.interested_pref_max;
      const bool uninterested = pref >= vols.uninterested_pref_min &&
                                pref <= vols.uninterested_pref_max;
      EXPECT_TRUE(interested || uninterested)
          << "provider " << id << " project " << project << ": " << pref;
    }
  }
}

TEST(JoinTest, MaxJoinsCapRespected) {
  sim::SimulationConfig sim_config;
  sim_config.seed = 32;
  sim::Simulation simulation(sim_config);
  core::Registry registry;
  util::Rng rng(32);
  const boinc::BoincSpec spec = boinc::DemoBoincSpec(5);
  const boinc::BuiltPopulation built =
      boinc::BuildPopulation(spec, &registry, &rng);
  model::ReputationRegistry reputation(registry.provider_count());
  core::MediatorConfig mc;
  mc.simulate_network = false;
  core::Mediator mediator(&simulation, &registry, &reputation,
                          std::make_unique<core::SbqaMethod>(
                              core::SbqaParams{}),
                          mc);
  boinc::VolunteerJoinParams params;
  params.enabled = true;
  params.rate = 10.0;
  params.max_joins = 7;
  boinc::VolunteerJoinProcess joins(&simulation, &mediator, &reputation,
                                    spec, built.projects, params);
  joins.Start();
  simulation.RunUntil(100.0);
  EXPECT_EQ(joins.joined(), 7);
  EXPECT_EQ(registry.provider_count(), 12u);
}

// --- Full-scenario dynamics -----------------------------------------------------------

TEST(DynamicsScenarioTest, ChurnedSystemStillServesEverything) {
  experiments::ScenarioConfig config = experiments::WithCaptiveEnvironment(
      experiments::BaseDemoConfig(9, /*volunteers=*/60, /*duration=*/180.0));
  config.churn.enabled = true;
  config.churn.mean_online = 120.0;
  config.churn.mean_offline = 30.0;
  config.churn.initial_online_fraction = 0.8;
  const experiments::RunResult result = experiments::RunScenario(config);
  EXPECT_EQ(result.summary.queries_finalized,
            result.summary.queries_submitted);
  EXPECT_GT(result.summary.provider_offline_events, 20);
  // Some queries lost replicas to churn, but the system keeps serving.
  EXPECT_GT(result.summary.fully_served_fraction, 0.7);
}

TEST(DynamicsScenarioTest, JoinsGrowThePopulationAndServeQueries) {
  experiments::ScenarioConfig config = experiments::WithCaptiveEnvironment(
      experiments::BaseDemoConfig(10, /*volunteers=*/40, /*duration=*/240.0));
  config.joins.enabled = true;
  config.joins.rate = 0.25;
  config.joins.max_joins = 200;
  const experiments::RunResult result = experiments::RunScenario(config);
  EXPECT_GT(result.summary.provider_joins, 20);
  EXPECT_EQ(result.providers.size(),
            40u + static_cast<size_t>(result.summary.provider_joins));
  // Latecomers actually get work.
  int64_t late_performed = 0;
  for (size_t i = 40; i < result.providers.size(); ++i) {
    late_performed += result.providers[i].performed;
  }
  EXPECT_GT(late_performed, 0);
}

TEST(DynamicsScenarioTest, JoinsOffsetDeparturesInAutonomousRuns) {
  experiments::ScenarioConfig config = experiments::WithAutonomousEnvironment(
      experiments::BaseDemoConfig(11, /*volunteers=*/60, /*duration=*/400.0));
  config.departure.grace_period = 100.0;
  config.joins.enabled = true;
  config.joins.rate = 0.2;
  config.joins.max_joins = 500;
  const experiments::RunResult result = experiments::RunScenario(config);
  EXPECT_GT(result.summary.provider_joins, 0);
  EXPECT_GT(result.summary.provider_departures, 0);
  // The open system sustains service.
  EXPECT_EQ(result.summary.queries_finalized,
            result.summary.queries_submitted);
}

}  // namespace
}  // namespace sbqa
