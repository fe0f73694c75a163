#ifndef SBQA_TESTS_METHOD_HARNESS_H_
#define SBQA_TESTS_METHOD_HARNESS_H_

// A mediator that runs no queries, so tests can call allocation methods
// directly on crafted provider states (baselines_test,
// baselines_alloc_test).

#include <memory>
#include <vector>

#include "core/mediator.h"
#include "core/sbqa.h"
#include "model/reputation.h"
#include "sim/simulation.h"

namespace sbqa::harness {

/// Harness exposing a mediator without running queries through it, so
/// methods can be called directly with crafted provider states.
struct MethodHarness {
  explicit MethodHarness(int providers, uint64_t seed = 1) {
    sim::SimulationConfig config;
    config.seed = seed;
    simulation = std::make_unique<sim::Simulation>(config);
    core::ConsumerParams consumer_params;
    consumer_params.policy_kind = model::ConsumerPolicyKind::kPreferenceOnly;
    registry.AddConsumer(consumer_params);
    for (int i = 0; i < providers; ++i) {
      core::ProviderParams params;
      params.capacity = 1.0;
      params.policy_kind = model::ProviderPolicyKind::kPreferenceOnly;
      registry.AddProvider(params);
    }
    reputation = std::make_unique<model::ReputationRegistry>(
        registry.provider_count());
    // The mediator's method is irrelevant; we call methods directly.
    mediator = std::make_unique<core::Mediator>(
        &simulation->runtime(), &registry, reputation.get(),
        std::make_unique<core::SbqaMethod>(core::SbqaParams{}));
    for (int i = 0; i < providers; ++i) candidates.push_back(i);
  }

  /// The context Allocate hands a method for the current query.
  core::AllocationContext Context() {
    core::AllocationContext ctx;
    ctx.query = &query;
    ctx.candidates = &candidate_set;
    ctx.mediator = mediator.get();
    ctx.now = simulation->now();
    return ctx;
  }

  /// Sets up the next query (consumer 0).
  void NextQuery(int n_results, double cost) {
    query.id = ++query_id;
    query.consumer = 0;
    query.n_results = n_results;
    query.cost = cost;
  }

  core::AllocationDecision Allocate(core::AllocationMethod& method,
                                    int n_results = 1, double cost = 1.0) {
    NextQuery(n_results, cost);
    core::AllocationDecision decision;
    method.Allocate(Context(), &decision);
    return decision;
  }

  std::unique_ptr<sim::Simulation> simulation;
  core::Registry registry;
  std::unique_ptr<model::ReputationRegistry> reputation;
  std::unique_ptr<core::Mediator> mediator;
  std::vector<model::ProviderId> candidates;
  core::CandidateSet candidate_set{&candidates};
  model::Query query;
  model::QueryId query_id = 0;
};

}  // namespace sbqa::harness

#endif  // SBQA_TESTS_METHOD_HARNESS_H_
