// Allocation regression tests for the event engine: a counting global
// allocator asserts that steady-state Schedule/Cancel/Run cycles with
// small callbacks perform ZERO heap allocations (EventFn small-buffer
// optimization + slot-versioned event pool), and that the end-to-end
// mediation pipeline reaches an allocation-free steady state once its
// pools are warm.
//
// Lives in its own test binary because it replaces the global operator
// new/delete (via util/counting_alloc.h; counting only, allocation
// behavior is unchanged).

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/mediator.h"
#include "core/registry.h"
#include "core/sbqa.h"
#include "model/reputation.h"
#include "sim/scheduler.h"
#include "sim/simulation.h"
#include "util/counting_alloc.h"

namespace sbqa::sim {
namespace {

using util::AllocationCount;

TEST(EventFnAllocTest, SmallClosuresAreInline) {
  struct Small {
    void* a;
    double b[5];
    void operator()() {}
  };
  static_assert(sizeof(Small) <= util::EventFn::kInlineSize);
  util::EventFn fn(Small{});
  EXPECT_FALSE(fn.heap_allocated());

  struct Big {
    double payload[16];  // 128 bytes: exceeds the inline buffer
    void operator()() {}
  };
  util::EventFn big(Big{});
  EXPECT_TRUE(big.heap_allocated());
}

TEST(SchedulerAllocTest, SteadyStateScheduleRunIsAllocationFree) {
  Scheduler s;
  uint64_t sink = 0;
  // Warm-up: grow the slot pool and the heap vector once.
  for (int i = 0; i < 64; ++i) {
    s.Schedule(static_cast<double>(i % 7), [&sink] { ++sink; });
  }
  s.Run();

  const uint64_t before = AllocationCount();
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 8; ++i) {
      s.Schedule(static_cast<double>(i % 5), [&sink] { ++sink; });
    }
    s.Run();
  }
  EXPECT_EQ(AllocationCount() - before, 0u)
      << "Schedule/Run with small callbacks must not allocate";
  EXPECT_EQ(sink, 64u + 8000u);
}

TEST(SchedulerAllocTest, SteadyStateScheduleCancelIsAllocationFree) {
  Scheduler s;
  for (int i = 0; i < 32; ++i) s.Schedule(1.0, [] {});
  s.Run();

  const uint64_t before = AllocationCount();
  for (int round = 0; round < 1000; ++round) {
    const EventId keep = s.Schedule(1.0, [] {});
    const EventId kill = s.Schedule(1.0, [] {});
    s.Cancel(kill);
    s.Run();
    (void)keep;
  }
  EXPECT_EQ(AllocationCount() - before, 0u)
      << "Cancel must not allocate (no hash set bookkeeping)";
}

TEST(MediationAllocTest, SteadyStateQueryPathIsAllocationFree) {
  // The full simulate-one-query path — submit, mediate (SbQA), dispatch,
  // process, results, finalize — through the pooled in-flight slots and
  // the SoA load view. After a warm-up phase every pool has reached its
  // high-water mark and the per-query allocation count must be exactly 0.
  sim::SimulationConfig sim_config;
  sim_config.seed = 42;
  sim::Simulation simulation(sim_config);
  core::Registry registry;
  core::ConsumerParams consumer_params;
  consumer_params.policy_kind = model::ConsumerPolicyKind::kReputationTrading;
  consumer_params.n_results = 3;
  registry.AddConsumer(consumer_params);
  util::Rng setup(7);
  for (int i = 0; i < 200; ++i) {
    core::ProviderParams params;
    params.capacity = setup.Uniform(0.5, 2.0);
    registry.AddProvider(params);
    registry.provider(i).preferences().Set(0, setup.Uniform(-1, 1));
    registry.consumer(0).preferences().Set(i, setup.Uniform(-1, 1));
  }
  model::ReputationRegistry reputation(registry.provider_count());
  core::MediatorConfig config;
  core::SbqaParams sbqa_params;
  sbqa_params.knbest = core::KnBestParams{20, 8};
  core::Mediator mediator(&simulation.runtime(), &registry, &reputation,
                          std::make_unique<core::SbqaMethod>(sbqa_params),
                          config);

  model::QueryId next_id = 0;
  auto pump = [&](int queries) {
    for (int i = 0; i < queries; ++i) {
      model::Query query;
      query.id = ++next_id;
      query.consumer = 0;
      query.query_class = 0;
      query.n_results = 3;
      query.cost = 0.5;
      mediator.SubmitQuery(query);
      simulation.RunFor(0.05);
    }
    simulation.RunFor(600.0);  // drain
  };

  pump(300);  // warm-up: pools, scratch buffers, load view all reach size

  const uint64_t before = AllocationCount();
  pump(200);
  EXPECT_EQ(AllocationCount() - before, 0u)
      << "steady-state mediation must be allocation-free";
  EXPECT_EQ(mediator.inflight_count(), 0u);
  EXPECT_GT(mediator.stats().queries_finalized, 400);
}

}  // namespace
}  // namespace sbqa::sim
