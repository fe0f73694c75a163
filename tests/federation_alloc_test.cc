// Allocation regression test for the cross-shard borrow path: once the
// pools are warm, a steady state in which a dry shard delegates every one
// of its class-1 queries to the one donor shard (delegate over the
// mailbox, mediate on the donor, re-home the outcome to the origin,
// return the slab slot) performs ZERO heap allocations per query. The
// delegate closure fits the EventFn inline buffer, the re-homing outcome
// rides the pooled outbound slab, and the barrier's consumer-satisfaction
// publish walks change lists reserved for every consumer.
//
// Lives in its own test binary because it replaces the global operator
// new/delete (via util/counting_alloc.h; counting only).

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/mediator.h"
#include "core/registry.h"
#include "core/sbqa.h"
#include "experiments/assembly.h"
#include "model/reputation.h"
#include "sim/shard_set.h"
#include "util/counting_alloc.h"
#include "util/rng.h"

namespace sbqa::core {
namespace {

/// A 4-shard stack wired by the one experiments::Assembly. Shards 0, 1
/// and 3 carry providers restricted to class 0, shard 2 carries
/// generalists: consumer 0's class-1 queries are always delegated 0 -> 2,
/// while consumers 1..3 mediate class 0 locally. Serial shard execution
/// for exact allocation accounting.
struct DelegationHarness {
  static constexpr uint32_t kShards = 4;
  static constexpr size_t kProviders = 60;

  sim::SimulationConfig sim_config;
  std::unique_ptr<sim::ShardSet> shards;
  Registry registry;
  std::unique_ptr<model::ReputationRegistry> reputation;
  std::unique_ptr<experiments::Assembly> assembly;

  DelegationHarness() {
    sim_config.seed = 99;
    sim_config.shard_count = kShards;
    sim_config.shard_use_threads = false;
    shards = std::make_unique<sim::ShardSet>(sim_config);

    util::Rng setup(5);
    ConsumerParams consumer_params;
    consumer_params.n_results = 3;
    for (uint32_t s = 0; s < kShards; ++s) {
      registry.AddConsumer(consumer_params);
    }
    for (size_t i = 0; i < kProviders; ++i) {
      ProviderParams params;
      params.capacity = setup.Uniform(0.5, 2.0);
      const model::ProviderId id = registry.AddProvider(params);
      for (uint32_t c = 0; c < kShards; ++c) {
        registry.provider(id).preferences().Set(static_cast<int32_t>(c),
                                                setup.Uniform(-1, 1));
        registry.consumer(static_cast<model::ConsumerId>(c))
            .preferences()
            .Set(id, setup.Uniform(-1, 1));
      }
    }
    registry.SetShardCount(kShards);
    // Contiguous blocks of 15: dry out every shard but 2 for class 1.
    for (Provider& provider : registry.providers()) {
      if (registry.ProviderShard(provider.id()) != 2) {
        provider.RestrictClasses({model::QueryClassId{0}});
      }
    }

    reputation =
        std::make_unique<model::ReputationRegistry>(registry.provider_count());
    SbqaParams sbqa_params;
    sbqa_params.knbest = KnBestParams{20, 8};
    experiments::AssemblyOptions wiring;
    wiring.registry = &registry;
    wiring.reputation = reputation.get();
    for (uint32_t s = 0; s < kShards; ++s) {
      wiring.runtimes.push_back(&shards->shard(s).runtime());
    }
    wiring.fabric = shards.get();
    wiring.make_method = [sbqa_params] {
      return std::make_unique<SbqaMethod>(sbqa_params);
    };
    assembly = std::make_unique<experiments::Assembly>(std::move(wiring));
    assembly->InstallBarrierPhases(shards.get());
    for (Mediator* m : mediators()) m->ProvisionInflight(256);
  }

  /// One mediator per shard: mediators()[s] is shard s's.
  const std::vector<Mediator*>& mediators() const {
    return assembly->mediators();
  }

  int64_t Sum(int64_t MediatorStats::*counter) const {
    int64_t total = 0;
    for (const Mediator* m : mediators()) total += m->stats().*counter;
    return total;
  }
};

TEST(DelegationAllocTest, SteadyStateDelegateAndRehomeAreAllocationFree) {
  DelegationHarness harness;
  model::QueryId next_id = 0;
  double horizon = 0;

  // One round submits one query per shard: consumer 0's is class 1 and
  // always delegated, the others mediate class 0 locally.
  const auto submit_round = [&] {
    for (uint32_t s = 0; s < DelegationHarness::kShards; ++s) {
      model::Query query;
      query.id = ++next_id;
      query.consumer = static_cast<model::ConsumerId>(s);
      query.query_class = s == 0 ? 1 : 0;
      query.n_results = 3;
      query.cost = 0.4;
      harness.mediators()[s]->SubmitQuery(query);
    }
  };
  // Rounds advance far enough that completions interleave with new
  // arrivals. The 0.2s cadence keeps shard 2 (which serves its own
  // class-0 stream PLUS every delegated class-1 query on 15 providers)
  // under ~65% utilization — an overloaded donor would grow its backlog
  // and pools forever and the steady state could never be
  // allocation-free.
  const auto pump = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      submit_round();
      horizon += 0.2;
      harness.shards->RunUntil(horizon);
    }
    horizon += 700.0;  // drain: results, timeout sweeps, outcome re-homing
    harness.shards->RunUntil(horizon);
  };

  // Burst pre-warm: 200 simultaneous queries per shard push every pool —
  // in-flight slots, the outbound outcome slab, the timeout ring, the
  // scheduler's event pool, the mailboxes — far past any concurrency the
  // paced steady phase can reach, so later growth can only mean a leak,
  // not a late high-water discovery.
  for (int burst = 0; burst < 200; ++burst) submit_round();
  horizon += 700.0;
  harness.shards->RunUntil(horizon);

  pump(300);  // warm-up: every pool reaches its high-water mark

  const int64_t warm_delegated =
      harness.mediators()[0]->stats().queries_delegated;
  const uint64_t steady_allocs = util::AllocationCount();
  pump(150);
  const double per_query =
      static_cast<double>(util::AllocationCount() - steady_allocs) /
      (150.0 * DelegationHarness::kShards);
  EXPECT_EQ(per_query, 0.0)
      << "delegate + re-home must stay allocation-free in steady state";

  // The measured phase really delegated: the origin sent every class-1
  // query to the donor, which borrowed them, and every outcome came home.
  const MediatorStats& origin = harness.mediators()[0]->stats();
  EXPECT_EQ(origin.queries_delegated - warm_delegated, 150);
  EXPECT_EQ(harness.mediators()[2]->stats().queries_borrowed,
            origin.queries_delegated);
  EXPECT_EQ(harness.Sum(&MediatorStats::queries_delegated),
            harness.Sum(&MediatorStats::queries_borrowed));
  EXPECT_EQ(origin.queries_rehomed, origin.queries_delegated);
  for (Mediator* m : harness.mediators()) {
    EXPECT_EQ(m->inflight_count(), 0u);
  }
}

}  // namespace
}  // namespace sbqa::core
