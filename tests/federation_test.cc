// Tests for the mediator federation: consumer sharding, aggregated
// statistics and cross-mediator failure propagation.

#include <memory>

#include <gtest/gtest.h>

#include "core/mediator.h"
#include "core/sbqa.h"
#include "experiments/demo_scenarios.h"
#include "experiments/runner.h"
#include "metrics/collector.h"
#include "model/reputation.h"
#include "sim/simulation.h"

namespace sbqa {
namespace {

/// Two mediators sharing three providers and two consumers.
struct FederationHarness {
  FederationHarness() {
    sim::SimulationConfig config;
    config.seed = 77;
    simulation = std::make_unique<sim::Simulation>(config);
    for (int i = 0; i < 2; ++i) {
      core::ConsumerParams params;
      params.policy_kind = model::ConsumerPolicyKind::kPreferenceOnly;
      registry.AddConsumer(params);
    }
    for (int i = 0; i < 3; ++i) {
      core::ProviderParams params;
      params.capacity = 1.0;
      params.policy_kind = model::ProviderPolicyKind::kPreferenceOnly;
      registry.AddProvider(params);
    }
    reputation = std::make_unique<model::ReputationRegistry>(3);
    core::MediatorConfig mediator_config;
    mediator_config.simulate_network = false;
    for (int m = 0; m < 2; ++m) {
      mediators.push_back(std::make_unique<core::Mediator>(
          simulation.get(), &registry, reputation.get(),
          std::make_unique<core::SbqaMethod>(core::SbqaParams{}),
          mediator_config));
    }
    mediators[0]->SetPeers({mediators[0].get(), mediators[1].get()});
    mediators[1]->SetPeers({mediators[0].get(), mediators[1].get()});
  }

  model::Query MakeQuery(model::ConsumerId consumer, double cost = 2.0) {
    model::Query q;
    q.id = ++next_id;
    q.consumer = consumer;
    q.n_results = 1;
    q.cost = cost;
    return q;
  }

  std::unique_ptr<sim::Simulation> simulation;
  core::Registry registry;
  std::unique_ptr<model::ReputationRegistry> reputation;
  std::vector<std::unique_ptr<core::Mediator>> mediators;
  model::QueryId next_id = 0;
};

TEST(FederationTest, MediatorsShareTheProviderPool) {
  FederationHarness h;
  h.mediators[0]->SubmitQuery(h.MakeQuery(0));
  h.mediators[1]->SubmitQuery(h.MakeQuery(1));
  h.simulation->RunUntil(30.0);
  EXPECT_EQ(h.mediators[0]->stats().queries_finalized, 1);
  EXPECT_EQ(h.mediators[1]->stats().queries_finalized, 1);
  int64_t total_performed = 0;
  for (const core::Provider& p : h.registry.providers()) {
    total_performed += p.instances_performed();
  }
  EXPECT_EQ(total_performed, 2);
}

TEST(FederationTest, PeerInstancesFailWhenProviderGoesOffline) {
  FederationHarness h;
  // Only provider 0 stays online so both queries land on it.
  h.mediators[0]->SetProviderAvailability(1, false);
  h.mediators[0]->SetProviderAvailability(2, false);
  h.mediators[0]->SubmitQuery(h.MakeQuery(0, /*cost=*/50.0));
  h.mediators[1]->SubmitQuery(h.MakeQuery(1, /*cost=*/50.0));
  h.simulation->RunUntil(1.0);
  ASSERT_EQ(h.mediators[0]->inflight_count(), 1u);
  ASSERT_EQ(h.mediators[1]->inflight_count(), 1u);

  // Mediator 0 observes the provider going offline; mediator 1's in-flight
  // instance must fail too (peer propagation), finalizing its query.
  h.mediators[0]->SetProviderAvailability(0, false);
  h.simulation->RunUntil(2.0);
  EXPECT_EQ(h.mediators[0]->inflight_count(), 0u);
  EXPECT_EQ(h.mediators[1]->inflight_count(), 0u);
  EXPECT_EQ(h.mediators[1]->stats().instances_failed, 1);
}

TEST(FederationTest, CollectorAggregatesAcrossMediators) {
  FederationHarness h;
  metrics::Collector collector(
      {h.simulation.get()}, &h.registry,
      std::vector<core::Mediator*>{h.mediators[0].get(),
                                   h.mediators[1].get()},
      5.0);
  collector.Start(40.0);
  for (int i = 0; i < 4; ++i) {
    h.mediators[0]->SubmitQuery(h.MakeQuery(0, 0.5));
    h.mediators[1]->SubmitQuery(h.MakeQuery(1, 0.5));
  }
  h.simulation->RunUntil(40.0);
  const metrics::RunSummary summary = collector.Summarize(40.0);
  EXPECT_EQ(summary.queries_submitted, 8);
  EXPECT_EQ(summary.queries_finalized, 8);
  EXPECT_GT(summary.mean_response_time, 0.0);
}

// --- Full-scenario federation ----------------------------------------------------

TEST(FederationScenarioTest, ShardedRunServesEverything) {
  experiments::ScenarioConfig config = experiments::WithCaptiveEnvironment(
      experiments::BaseDemoConfig(13, /*volunteers=*/60, /*duration=*/180.0));
  config.mediator_count = 3;  // one per project
  const experiments::RunResult result = experiments::RunScenario(config);
  EXPECT_EQ(result.summary.queries_finalized,
            result.summary.queries_submitted);
  EXPECT_GT(result.summary.queries_finalized, 100);
  EXPECT_GT(result.summary.consumer_satisfaction, 0.5);
}

TEST(FederationScenarioTest, FederationCloseToSingleMediator) {
  experiments::ScenarioConfig base = experiments::WithCaptiveEnvironment(
      experiments::BaseDemoConfig(14, /*volunteers=*/80, /*duration=*/240.0));
  experiments::ScenarioConfig sharded = base;
  sharded.mediator_count = 3;
  const experiments::RunResult single = experiments::RunScenario(base);
  const experiments::RunResult federated = experiments::RunScenario(sharded);
  // Sharding the mediation must not distort allocation quality much: the
  // load views split but the satisfaction model and method are identical.
  EXPECT_NEAR(federated.summary.consumer_satisfaction,
              single.summary.consumer_satisfaction, 0.05);
  EXPECT_NEAR(federated.summary.provider_satisfaction,
              single.summary.provider_satisfaction, 0.08);
  EXPECT_LT(federated.summary.mean_response_time,
            single.summary.mean_response_time * 1.5);
}

TEST(FederationScenarioTest, AutonomousFederationStillRetainsVolunteers) {
  experiments::ScenarioConfig config = experiments::WithAutonomousEnvironment(
      experiments::BaseDemoConfig(15, /*volunteers=*/80, /*duration=*/420.0));
  config.departure.grace_period = 120.0;
  config.mediator_count = 2;
  config.method = experiments::MethodSpec::Sbqa(
      experiments::DefaultSbqaParams());
  const experiments::RunResult sbqa = experiments::RunScenario(config);
  config.method = experiments::MethodSpec::Capacity();
  const experiments::RunResult capacity = experiments::RunScenario(config);
  EXPECT_GT(sbqa.summary.provider_retention,
            capacity.summary.provider_retention + 0.1);
}

TEST(FederationScenarioTest, DeterministicAcrossRuns) {
  experiments::ScenarioConfig config = experiments::WithCaptiveEnvironment(
      experiments::BaseDemoConfig(16, /*volunteers=*/40, /*duration=*/120.0));
  config.mediator_count = 4;
  const experiments::RunResult a = experiments::RunScenario(config);
  const experiments::RunResult b = experiments::RunScenario(config);
  EXPECT_EQ(a.summary.queries_finalized, b.summary.queries_finalized);
  EXPECT_DOUBLE_EQ(a.summary.mean_response_time, b.summary.mean_response_time);
  EXPECT_DOUBLE_EQ(a.summary.consumer_satisfaction,
                   b.summary.consumer_satisfaction);
}

}  // namespace
}  // namespace sbqa
