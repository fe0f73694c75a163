// Zero-allocation regression test for the decision hot path: once the
// kernel's SoA planes and the pooled decision vectors are warm, Allocate
// must not touch the heap under either scoring kernel — nor must a whole
// query cycle through the registry's hot block (decision, dispatch with
// proposal recording, arrival, completion). The counting
// allocator replaces global new/delete for this binary (one TU only), so
// keep this test out of the sanitizer ctest filters — sanitizer runtimes
// allocate on their own schedule.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/mediator.h"
#include "core/sbqa.h"
#include "core/score_kernel.h"
#include "model/reputation.h"
#include "sim/simulation.h"
#include "util/counting_alloc.h"

namespace sbqa::core {
namespace {

struct AllocHarness {
  AllocHarness(int providers, ScoreKernelKind kind) {
    sim::SimulationConfig sim_config;
    sim_config.seed = 13;
    simulation = std::make_unique<sim::Simulation>(sim_config);
    ConsumerParams consumer_params;
    consumer_params.policy_kind = model::ConsumerPolicyKind::kReputationTrading;
    registry.AddConsumer(consumer_params);
    for (int i = 0; i < providers; ++i) {
      ProviderParams params;
      params.capacity = 1.0 + 0.1 * i;
      params.policy_kind = model::ProviderPolicyKind::kUtilizationTrading;
      registry.AddProvider(params);
      candidates.push_back(i);
      registry.consumer(0).preferences().Set(i, 0.1 + 0.02 * i);
      registry.provider(i).preferences().Set(0, 0.5 - 0.01 * i);
    }
    reputation =
        std::make_unique<model::ReputationRegistry>(registry.provider_count());
    MediatorConfig config;
    config.scoring_kernel = kind;
    mediator = std::make_unique<Mediator>(
        &simulation->runtime(), &registry, reputation.get(),
        std::make_unique<SbqaMethod>(SbqaParams{}), config);
  }

  /// In-place allocation into the pooled decision (Clear keeps capacity),
  /// over the explicit candidate list or, with `from_index`, over the
  /// registry's candidate index as the mediator draws it.
  void Allocate(SbqaMethod& method, bool from_index = false) {
    query.id = ++next_id;
    query.consumer = 0;
    query.n_results = 2;
    query.cost = 1.0;
    const CandidateSet indexed = registry.CandidatesFor(query, &index_scratch);
    AllocationContext ctx;
    ctx.query = &query;
    ctx.candidates = from_index ? &indexed : &candidate_set;
    ctx.mediator = mediator.get();
    ctx.now = simulation->now();
    decision.Clear();
    method.Allocate(ctx, &decision);
  }

  std::unique_ptr<sim::Simulation> simulation;
  Registry registry;
  std::unique_ptr<model::ReputationRegistry> reputation;
  std::unique_ptr<Mediator> mediator;
  std::vector<model::ProviderId> candidates;
  CandidateSet candidate_set{&candidates};
  std::vector<model::ProviderId> index_scratch;
  model::Query query;
  AllocationDecision decision;
  model::QueryId next_id = 0;
};

TEST(ScoreKernelAllocTest, SteadyStateDecisionPathAllocatesNothing) {
  for (ScoreKernelKind kind :
       {ScoreKernelKind::kExact, ScoreKernelKind::kBatched}) {
    AllocHarness h(32, kind);
    SbqaParams params;
    // k = 0 samples the whole explicit candidate list (a full shuffle);
    // IndexBackedWideDecisionAllocatesNothing below samples off the
    // candidate index, as the mediation hot path does.
    params.knbest = KnBestParams{0, 8};
    params.scoring_kernel = kind;
    // Timing on: the steady-clock brackets must not allocate either.
    params.decision_timing = true;
    SbqaMethod method(params);
    // Warmup grows the kernel planes, the KnBest scratch and the pooled
    // decision vectors to their steady-state capacity.
    for (int i = 0; i < 20; ++i) h.Allocate(method);
    const uint64_t before = util::AllocationCount();
    for (int i = 0; i < 200; ++i) h.Allocate(method);
    const uint64_t allocs = util::AllocationCount() - before;
    EXPECT_EQ(allocs, 0u) << "kernel " << ToString(kind);
    EXPECT_EQ(method.kernel().phases().decisions, 220);
  }
}

TEST(ScoreKernelAllocTest, WarmSamplerAllocatesNothingAtK256) {
  // Both draw rules at k = 256: dense Fisher-Yates (n = 2,000) and Floyd
  // (n = 100,000). Once the stamped scratch covers n and the output holds
  // k, a draw touches only memory it already owns.
  util::Rng rng(37);
  util::SampleScratch stamps;
  std::vector<size_t> out;
  for (size_t n : {size_t{2000}, size_t{100000}}) {
    rng.SampleIndices(n, 256, &stamps, &out);
    const uint64_t before = util::AllocationCount();
    for (int i = 0; i < 100; ++i) rng.SampleIndices(n, 256, &stamps, &out);
    EXPECT_EQ(util::AllocationCount() - before, 0u) << "n=" << n;
    EXPECT_EQ(out.size(), 256u);
  }
}

TEST(ScoreKernelAllocTest, IndexBackedWideDecisionAllocatesNothing) {
  // The mediation hot path's own candidate source at k = 256 / kn = 128
  // over 2,000 providers, where the draw takes the dense-sample rule
  // (k > 64, n < 16k).
  for (ScoreKernelKind kind :
       {ScoreKernelKind::kExact, ScoreKernelKind::kBatched}) {
    AllocHarness h(2000, kind);
    SbqaParams params;
    params.knbest = KnBestParams{256, 128};
    params.scoring_kernel = kind;
    SbqaMethod method(params);
    for (int i = 0; i < 20; ++i) h.Allocate(method, /*from_index=*/true);
    const uint64_t before = util::AllocationCount();
    for (int i = 0; i < 100; ++i) h.Allocate(method, /*from_index=*/true);
    EXPECT_EQ(util::AllocationCount() - before, 0u)
        << "kernel " << ToString(kind);
    EXPECT_EQ(h.decision.consulted.size(), 128u);
  }
}

TEST(ScoreKernelAllocTest, WarmQueryCycleAllocatesNothing) {
  // One query's cycle on the hot block: the decision gathers the consulted
  // providers' planes, Dispatch records the proposal into each consulted
  // provider's arena window, the arrival enqueues on the selected ones and
  // the completion updates their counters. Once the pools and scratch
  // buffers are warm, a cycle must not touch the heap.
  for (ScoreKernelKind kind :
       {ScoreKernelKind::kExact, ScoreKernelKind::kBatched}) {
    AllocHarness h(64, kind);
    SbqaParams params;
    params.knbest = KnBestParams{16, 8};
    params.scoring_kernel = kind;
    MediatorConfig config;
    config.scoring_kernel = kind;
    Mediator mediator(&h.simulation->runtime(), &h.registry, h.reputation.get(),
                      std::make_unique<SbqaMethod>(params), config);
    const auto pump = [&](int queries) {
      for (int i = 0; i < queries; ++i) {
        model::Query query;
        query.id = ++h.next_id;
        query.consumer = 0;
        query.n_results = 2;
        query.cost = 0.5;
        mediator.SubmitQuery(query);
        h.simulation->RunFor(0.05);
      }
      h.simulation->RunFor(600.0);  // drain: every instance completes
    };
    pump(300);
    const int64_t performed_before = mediator.stats().instances_completed;
    const uint64_t before = util::AllocationCount();
    pump(200);
    EXPECT_EQ(util::AllocationCount() - before, 0u)
        << "kernel " << ToString(kind);
    EXPECT_EQ(mediator.inflight_count(), 0u);
    EXPECT_EQ(mediator.stats().instances_completed - performed_before, 400);
    size_t proposals = 0;
    for (uint32_t slot = 0; slot < h.registry.hot().size(); ++slot) {
      proposals += h.registry.hot().proposal_count(slot);
    }
    EXPECT_GT(proposals, 0u);
  }
}

}  // namespace
}  // namespace sbqa::core
