// Engine::Start cost gate: starting a 2-shard engine performs a bounded
// number of heap allocations, the same for any admission cap
// (max_pending) and independent of the population size. In-flight slots
// hold their decision inline and every per-in-flight pool is only
// reserved at Start, so neither the cap nor the number of providers
// multiplies the work — and what moves to first use is paid once, not
// at every new concurrency peak. Counted with the counting global
// allocator (util/counting_alloc.h; counting only). Manual clock: Start
// spawns no threads, so the count is exact.

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "util/counting_alloc.h"

namespace sbqa {
namespace {

using util::AllocationCount;

/// Start cost far below what one allocation per provider would cost at
/// 5,000 providers; reserving instead of constructing keeps Start at a
/// few hundred allocations whatever the cap and the population.
constexpr uint64_t kStartAllocationBound = 1000;

struct StartProbe {
  uint64_t allocations = 0;
  int64_t served = 0;
};

/// Builds a 2-shard manual-clock engine with `providers` providers and 8
/// consumers, counts the allocations of Start() alone, then serves a few
/// queries so the started engine is shown to work.
StartProbe ProbeStart(int64_t max_pending, int providers) {
  EngineOptions options;
  options.mode = EngineMode::kWallClock;
  options.wallclock.manual_clock = true;
  options.shards = 2;
  options.seed = 5;
  options.query_timeout = 1.0;
  options.max_pending = max_pending;
  Engine engine(std::move(options));
  std::vector<model::ConsumerId> consumers;
  for (int c = 0; c < 8; ++c) {
    ConsumerOptions consumer;
    consumer.n_results = 2;
    consumers.push_back(engine.AddConsumer(consumer));
  }
  for (int i = 0; i < providers; ++i) {
    ProviderOptions provider;
    provider.capacity = 1.0 + 0.125 * (i % 8);
    const model::ProviderId p = engine.AddProvider(provider);
    if (i < 16) {
      for (model::ConsumerId c : consumers) {
        engine.SetConsumerPreference(c, p, 0.6);
        engine.SetProviderPreference(p, c, 0.5);
      }
    }
  }

  StartProbe probe;
  const uint64_t before = AllocationCount();
  engine.Start();
  probe.allocations = AllocationCount() - before;

  for (int i = 0; i < 40; ++i) {
    engine.Submit({consumers[i % consumers.size()], 0, 2, 1e-4},
                  [&probe](const QueryResult& result) {
                    if (result.results_received > 0) ++probe.served;
                  });
    engine.RunFor(0.001);
  }
  EXPECT_TRUE(engine.WaitIdle(10.0));
  engine.Stop();
  return probe;
}

TEST(EngineStartAllocTest, StartAllocationsDoNotDependOnMaxPending) {
  const StartProbe small_cap = ProbeStart(1024, 32);
  const StartProbe large_cap = ProbeStart(16384, 32);
  EXPECT_EQ(small_cap.allocations, large_cap.allocations)
      << "Start must reserve the per-in-flight pools, not build them";
  EXPECT_EQ(small_cap.served, 40);
  EXPECT_EQ(large_cap.served, 40);
}

TEST(EngineStartAllocTest, StartAllocationsAreBoundedWhateverThePopulation) {
  const StartProbe few = ProbeStart(16384, 32);
  const StartProbe many = ProbeStart(16384, 5000);
  EXPECT_LT(few.allocations, kStartAllocationBound);
  EXPECT_LT(many.allocations, kStartAllocationBound)
      << "Start must not allocate per provider";
  EXPECT_EQ(many.served, 40);
}

TEST(EngineStartAllocTest, BusyProviderListsAllocateOnceUpToTheCap) {
  // What Start no longer reserves is paid on first use, once: a provider
  // whose in-flight list first outgrows its inline handles reserves the
  // whole cap (a provider holds at most one link per live query), so a
  // later, deeper burst finds every pool and list already sized. Growing
  // the list by doubling instead would allocate at each new peak.
  EngineOptions options;
  options.mode = EngineMode::kWallClock;
  options.wallclock.manual_clock = true;
  options.seed = 9;
  options.query_timeout = 100.0;
  options.max_pending = 512;
  Engine engine(std::move(options));
  ConsumerOptions consumer_options;
  consumer_options.n_results = 2;
  const model::ConsumerId consumer = engine.AddConsumer(consumer_options);
  for (int i = 0; i < 2; ++i) {
    const model::ProviderId p = engine.AddProvider(ProviderOptions{});
    engine.SetConsumerPreference(consumer, p, 0.6);
    engine.SetProviderPreference(p, consumer, 0.5);
  }
  engine.Start();

  int64_t served = 0;
  // `queries` dispatched together to both providers, each queued behind
  // the others for 0.1 s of provider work, so every one of them is linked
  // on both providers' lists at once; then drained.
  const auto burst = [&](int queries) {
    for (int i = 0; i < queries; ++i) {
      engine.Submit({consumer, 0, 2, 0.1}, [&served](const QueryResult& r) {
        if (r.results_received == 2) ++served;
      });
    }
    engine.RunFor(0.001);
    EXPECT_TRUE(engine.WaitIdle(1000.0));
  };

  burst(8);  // both lists spill past their 4 inline handles
  const uint64_t before = AllocationCount();
  burst(200);
  const uint64_t deeper = AllocationCount() - before;
  EXPECT_EQ(deeper, 0u) << "a 25x deeper burst must find its lists sized";
  EXPECT_EQ(served, 208);
}

}  // namespace
}  // namespace sbqa
