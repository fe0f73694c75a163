// Regression tests for the load-adaptive FIFO timeout ring: a rate step
// (burst far above the steady rate, then a trickle) must not pin the
// ring's backing vector at its burst high-water mark forever. The ring
// tracks its size high water between drains, and a drain that finds the
// capacity far above it (> 4096 slots and > 8x the recent size) re-
// allocates down — off the steady-state path, so the allocation-free
// mediation guarantees elsewhere are untouched, which the stability half
// of the first test pins by requiring the capacity to stay put across
// further trickle rounds, and the paced-traffic test pins with the
// counting global allocator (util/counting_alloc.h; counting only).

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/mediator.h"
#include "core/registry.h"
#include "core/sbqa.h"
#include "engine/engine.h"
#include "model/reputation.h"
#include "sim/simulation.h"
#include "util/counting_alloc.h"
#include "util/rng.h"

namespace sbqa::core {
namespace {

using util::AllocationCount;

struct RingHarness {
  static constexpr int kProviders = 64;

  sim::Simulation simulation;
  Registry registry;
  std::unique_ptr<model::ReputationRegistry> reputation;
  std::unique_ptr<Mediator> mediator;
  model::QueryId next_id = 0;

  RingHarness() : simulation(MakeSimConfig()) {
    ConsumerParams consumer_params;
    consumer_params.policy_kind = model::ConsumerPolicyKind::kReputationTrading;
    consumer_params.n_results = 1;
    registry.AddConsumer(consumer_params);
    util::Rng setup(7);
    for (int i = 0; i < kProviders; ++i) {
      ProviderParams params;
      params.capacity = setup.Uniform(0.5, 2.0);
      registry.AddProvider(params);
      registry.provider(i).preferences().Set(0, setup.Uniform(-1, 1));
      registry.consumer(0).preferences().Set(i, setup.Uniform(-1, 1));
    }
    reputation = std::make_unique<model::ReputationRegistry>(
        registry.provider_count());
    MediatorConfig config;
    // Short safety-net timeout so ring entries go stale (and sweeps fire)
    // quickly after their query completes.
    config.query_timeout = 5.0;
    SbqaParams sbqa_params;
    sbqa_params.knbest = KnBestParams{20, 8};
    mediator = std::make_unique<Mediator>(
        &simulation.runtime(), &registry, reputation.get(),
        std::make_unique<SbqaMethod>(sbqa_params), config);
  }

  static sim::SimulationConfig MakeSimConfig() {
    sim::SimulationConfig config;
    config.seed = 17;
    return config;
  }

  void Submit(int queries) {
    for (int i = 0; i < queries; ++i) {
      model::Query query;
      query.id = ++next_id;
      query.consumer = 0;
      query.query_class = 0;
      query.n_results = 1;
      query.cost = 0.5;
      mediator->SubmitQuery(query);
    }
  }
};

TEST(TimeoutRingTest, RateStepReleasesBurstCapacityThenHoldsSteady) {
  RingHarness harness;

  // Rate step up: a 12000-query burst. Every dispatched query registers
  // a timeout entry before any goes stale, so the ring's backing vector
  // must grow far past the 4096-slot release threshold (some of the
  // burst can end unallocated under this much contention, which is why
  // the burst overshoots the threshold comfortably).
  harness.Submit(12000);
  harness.simulation.RunFor(0.1);  // arrivals dispatched, nothing resolved
  EXPECT_GT(harness.mediator->timeout_ring_size(), 4096u);
  const size_t burst_capacity = harness.mediator->timeout_ring_capacity();
  EXPECT_GT(burst_capacity, 4096u);

  // Drain the burst: completions + timeout sweeps consume every entry.
  harness.simulation.RunFor(1000.0);
  EXPECT_EQ(harness.mediator->inflight_count(), 0u);
  EXPECT_EQ(harness.mediator->timeout_ring_size(),
            harness.mediator->timeout_ring_head());

  // Rate step down: a trickle of single queries with full drains between
  // them. The first post-trickle drain sees the burst capacity at > 8x
  // the trickle's live high water and releases it.
  for (int i = 0; i < 5; ++i) {
    harness.Submit(1);
    harness.simulation.RunFor(20.0);
  }
  EXPECT_EQ(harness.mediator->inflight_count(), 0u);
  const size_t trickle_capacity = harness.mediator->timeout_ring_capacity();
  EXPECT_LE(trickle_capacity, 128u)
      << "burst capacity must be released once the live span collapses";
  EXPECT_LT(trickle_capacity, burst_capacity / 10);

  // Stability: further trickle rounds must not oscillate the capacity
  // (shrink-regrow churn on the steady path would reintroduce per-query
  // allocations).
  for (int i = 0; i < 10; ++i) {
    harness.Submit(1);
    harness.simulation.RunFor(20.0);
  }
  EXPECT_EQ(harness.mediator->timeout_ring_capacity(), trickle_capacity);
  EXPECT_EQ(harness.mediator->inflight_count(), 0u);

  // A moderate second burst (under the release threshold) keeps its
  // capacity: the ladder only releases when the gap is pathological.
  harness.Submit(512);
  harness.simulation.RunFor(1000.0);
  const size_t moderate_capacity = harness.mediator->timeout_ring_capacity();
  EXPECT_GE(moderate_capacity, 512u);
  harness.Submit(1);
  harness.simulation.RunFor(20.0);
  EXPECT_LE(harness.mediator->timeout_ring_capacity(), moderate_capacity);
}

TEST(TimeoutRingTest, PacedTrafficDrainsWithoutShrinkRegrowChurn) {
  // Steady paced traffic whose queries complete long before their
  // timeout: every sweep finds the ring drained, yet between two sweeps
  // the ring holds about rate x query_timeout entries (12,500 here, above
  // the 4096 shrink floor) because only a sweep compacts its stale
  // prefix. A shrink sized on the live span (a handful of entries) would
  // cut the ring back to 64 slots at every drain and regrow it on the
  // query path — dozens of allocations per 100k queries. Sized on the
  // ring's size high water, the drain keeps the capacity.
  EngineOptions options;
  options.mode = EngineMode::kWallClock;
  options.wallclock.manual_clock = true;
  options.seed = 3;
  options.query_timeout = 0.25;
  options.max_pending = 16384;
  Engine engine(std::move(options));
  ConsumerOptions consumer_options;
  consumer_options.n_results = 2;
  const model::ConsumerId consumer = engine.AddConsumer(consumer_options);
  for (int i = 0; i < 32; ++i) {
    ProviderOptions provider;
    provider.capacity = 1.0 + 0.125 * (i % 8);
    const model::ProviderId p = engine.AddProvider(provider);
    engine.SetConsumerPreference(consumer, p, 0.6);
    engine.SetProviderPreference(p, consumer, 0.5);
  }
  engine.Start();

  // 50k queries/s of simulated time; each query's step is split so it
  // completes in the first half and the engine idles through the second.
  constexpr double kStep = 1.0 / 50000;
  int64_t completed = 0;
  const auto pace = [&](int queries) {
    for (int i = 0; i < queries; ++i) {
      engine.Submit({consumer, 0, 2, 1e-6},
                    [&completed](const QueryResult& result) {
                      if (result.results_received > 0) ++completed;
                    });
      engine.RunFor(kStep / 2);
      engine.RunFor(kStep / 2);
    }
  };

  pace(50000);  // 1 s warm-up: four sweep cycles
  const uint64_t before = AllocationCount();
  pace(100000);
  EXPECT_EQ(AllocationCount() - before, 0u)
      << "paced traffic must not shrink and regrow the timeout ring";
  EXPECT_TRUE(engine.WaitIdle(10.0));
  EXPECT_EQ(completed, 150000);
  engine.Stop();
}

}  // namespace
}  // namespace sbqa::core
