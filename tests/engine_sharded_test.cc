// Thread-per-shard wall-clock serving tests: the rt::WallClockShardSet
// barrier fabric (manual lock-step windows, mailbox FIFO, fill-triggered
// early barriers, control ops), the barrier wants the mediation stack
// records (what makes a threaded window edge a barrier) and the sharded
// sbqa::Engine built on the fabric —
// cross-shard query serving, post-Start membership through the epoch join
// log, the one-shard fabric, and the counting-allocator gate holding
// the sharded Submit path to ZERO heap allocations per query at steady
// state, membership churn included. The sharded kSimulated engine runs
// on the same facade, over a sim::ShardSet.
//
// Lives in its own test binary because it replaces the global operator
// new/delete (via util/counting_alloc.h; counting only, allocation
// behavior is unchanged). The threaded tests double as the TSan targets
// for the rendezvous protocol, and the 3-shard simulated engine for the
// simulated set's worker threads behind the facade.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "experiments/assembly.h"
#include "experiments/methods.h"
#include "runtime/wallclock_shard_set.h"
#include "util/counting_alloc.h"

namespace sbqa {
namespace {

using util::AllocationCount;

// --- WallClockShardSet fabric ------------------------------------------------

rt::WallClockShardOptions ManualFabric(uint32_t shards) {
  rt::WallClockShardOptions options;
  options.shard_count = shards;
  options.runtime.manual_clock = true;
  options.barrier_tick = 0.002;
  return options;
}

TEST(WallClockShardSetTest, ManualWindowsDeliverMailboxesInFifoOrder) {
  rt::WallClockShardSet shards(ManualFabric(2));
  shards.Start();
  std::vector<int> order;
  // Driver context between windows counts as any shard's execution
  // context, so it may write the (0, 1) and (1, 0) channels directly.
  shards.PostTo(0, 1, 0.0, [&order] { order.push_back(1); });
  shards.PostTo(0, 1, 0.0, [&order] { order.push_back(2); });
  shards.PostTo(1, 0, 0.0, [&order] { order.push_back(3); });
  shards.RunUntil(0.01);
  // (destination, source, FIFO) drain: dst 0 gets shard 1's message first.
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
  EXPECT_EQ(shards.cross_shard_messages(), 3u);
  EXPECT_GT(shards.barriers(), 0u);
  EXPECT_EQ(shards.now(), 0.01);
  shards.Stop();
}

TEST(WallClockShardSetTest, ManualCrossShardChainsSettleAtTheHorizon) {
  rt::WallClockShardSet shards(ManualFabric(2));
  shards.Start();
  int hops = 0;
  // A ping-pong chain: each delivery posts the next hop back. RunUntil
  // must settle every hop due at the horizon, not leave them buffered.
  std::function<void(uint32_t)> hop = [&](uint32_t at) {
    if (++hops >= 6) return;
    shards.PostTo(at, 1 - at, shards.runtime(at).now(),
                  [&hop, at] { hop(1 - at); });
  };
  shards.PostTo(0, 1, 0.0, [&hop] { hop(1); });
  shards.RunUntil(0.05);
  EXPECT_EQ(hops, 6);
  shards.Stop();
}

TEST(WallClockShardSetTest, ManualRunAtBarrierRunsInline) {
  rt::WallClockShardSet shards(ManualFabric(2));
  shards.Start();
  bool ran = false;
  shards.RunAtBarrier([&ran] { ran = true; });
  EXPECT_TRUE(ran);  // no workers: the caller IS the quiescent driver
  shards.Stop();
}

TEST(WallClockShardSetTest, ThreadedBarriersDeliverCrossShardTraffic) {
  rt::WallClockShardOptions options;
  options.shard_count = 2;
  options.barrier_tick = 0.001;
  rt::WallClockShardSet shards(options);
  shards.Start();
  std::atomic<int> delivered{0};
  // Cross-shard posts must originate in the source shard's executor
  // context: hop through shard 0's submit queue.
  for (int i = 0; i < 8; ++i) {
    shards.runtime(0).Post([&shards, &delivered] {
      shards.PostTo(0, 1, shards.runtime(0).now(), [&delivered] {
        delivered.fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  for (int spin = 0; spin < 2000 && delivered.load() < 8; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(delivered.load(), 8);
  EXPECT_GT(shards.barriers(), 0u);
  shards.Stop();
}

TEST(WallClockShardSetTest, ThreadedFillThresholdPullsTheBarrierEarly) {
  rt::WallClockShardOptions options;
  options.shard_count = 2;
  options.barrier_tick = 2.0;  // far beyond the test's patience on purpose
  options.outbox_fill_threshold = 4;
  rt::WallClockShardSet shards(options);
  shards.Start();
  std::atomic<int> delivered{0};
  shards.runtime(0).Post([&shards, &delivered] {
    for (int i = 0; i < 4; ++i) {
      shards.PostTo(0, 1, shards.runtime(0).now(), [&delivered] {
        delivered.fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  // Only the fill trigger can deliver these within the 2 s window.
  for (int spin = 0; spin < 2000 && delivered.load() < 4; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(delivered.load(), 4);
  EXPECT_GE(shards.early_barriers(), 1u);
  shards.Stop();
}

TEST(WallClockShardSetTest, ThreadedRunAtBarrierSeesAllShardsParked) {
  rt::WallClockShardOptions options;
  options.shard_count = 4;
  options.barrier_tick = 0.001;
  rt::WallClockShardSet shards(options);
  shards.Start();
  // The control op runs on the barrier leader with every worker parked —
  // reading all four shard clocks here is the quiescent-read contract.
  double clocks = -1;
  shards.RunAtBarrier([&shards, &clocks] {
    clocks = 0;
    for (uint32_t s = 0; s < shards.shard_count(); ++s) {
      clocks += shards.runtime(s).now();
    }
  });
  EXPECT_GE(clocks, 0);
  shards.Stop();
}

// --- Barrier wants of the mediation stack -----------------------------------

/// A manual 2-shard mediation stack. Consumer 0 and providers 0-2 live on
/// shard 0 and serve every class; consumer 1 and providers 3-5 live on
/// shard 1 and serve class 1 only, so consumer 1's class-0 queries are
/// delegated to shard 0. For each finalized query it records whether the
/// query's home shard wanted a barrier at that moment.
struct WantsHarness : core::MediationObserver {
  explicit WantsHarness(const core::DepartureConfig& departure = {})
      : shards(ManualFabric(2)) {
    for (int c = 0; c < 2; ++c) registry.AddConsumer(core::ConsumerParams{});
    for (int i = 0; i < 6; ++i) {
      core::ProviderParams params;
      if (i >= 3) params.allowed_classes = {model::QueryClassId{1}};
      registry.AddProvider(params);
    }
    registry.SetShardCount(2);
    reputation = std::make_unique<model::ReputationRegistry>(
        registry.provider_count());
    experiments::AssemblyOptions wiring;
    wiring.registry = &registry;
    wiring.reputation = reputation.get();
    wiring.shards = &shards;
    wiring.make_method = [] {
      return experiments::MakeMethod(experiments::MethodSpec::RoundRobin());
    };
    wiring.mediator.query_timeout = 5.0;
    wiring.departure = departure;
    assembly = std::make_unique<experiments::Assembly>(std::move(wiring));
    for (core::Mediator* m : assembly->mediators()) m->AddObserver(this);
    assembly->InstallBarrierPhases();
    shards.Start();
  }
  // Stop runs a last barrier, whose phases reach into the assembly.
  ~WantsHarness() override { shards.Stop(); }

  void OnQueryCompleted(const core::QueryOutcome& outcome) override {
    const uint32_t home = registry.ConsumerShard(outcome.query.consumer);
    wanted[outcome.query.id] = shards.WantsBarrier(home);
  }

  /// Submits from the driver, which between manual windows is every
  /// shard's execution context.
  void Submit(model::QueryId id, model::ConsumerId consumer,
              model::QueryClassId query_class, double cost) {
    model::Query query;
    query.id = id;
    query.consumer = consumer;
    query.query_class = query_class;
    query.cost = cost;
    assembly->gateway(registry.ConsumerShard(consumer))->SubmitQuery(query);
  }

  rt::WallClockShardSet shards;
  core::Registry registry;
  std::unique_ptr<model::ReputationRegistry> reputation;
  std::unique_ptr<experiments::Assembly> assembly;
  std::map<model::QueryId, bool> wanted;
};

TEST(BarrierWantsTest, FinalizeWantsABarrierOnlyWhileAQueryIsDelegatedOut) {
  WantsHarness h;
  // Query 1 (consumer 1, class 0) has no candidate on shard 1: it is
  // delegated to shard 0, whose provider works on it for a second.
  h.Submit(1, 1, 0, 1.0);
  h.shards.RunFor(0.01);
  ASSERT_EQ(h.assembly->stats().queries_delegated, 1);
  EXPECT_FALSE(h.shards.WantsBarrier(0));  // the barriers took every want
  EXPECT_FALSE(h.shards.WantsBarrier(1));
  // Query 2 finalizes on shard 1 while query 1 is out, so a donor may read
  // consumer 1's published satisfaction: it wants a barrier. Query 3 is
  // local to shard 0, which has nothing delegated out.
  h.Submit(2, 1, 1, 0.001);
  h.Submit(3, 0, 0, 0.001);
  h.shards.RunFor(0.01);
  // Query 1's outcome comes home; after it nothing of shard 1's is out.
  h.shards.RunFor(2.0);
  h.Submit(4, 1, 1, 0.001);
  h.shards.RunFor(0.01);
  EXPECT_EQ(h.wanted, (std::map<model::QueryId, bool>{
                          {1, false}, {2, true}, {3, false}, {4, false}}));
  EXPECT_EQ(h.assembly->stats().queries_finalized, 4);
}

TEST(BarrierWantsTest, DeferredMembershipOpsWantABarrier) {
  WantsHarness h;
  h.shards.RunFor(0.01);
  ASSERT_FALSE(h.shards.WantsBarrier(0));
  // An availability change queued by shard 0's mediator.
  h.assembly->gateway(0)->SetProviderAvailability(1, false);
  EXPECT_TRUE(h.shards.WantsBarrier(0));
  EXPECT_FALSE(h.shards.WantsBarrier(1));
  h.shards.RunFor(0.002);
  EXPECT_FALSE(h.shards.WantsBarrier(0));
  EXPECT_FALSE(h.registry.provider(1).alive());
  // A join queued by shard 1's mediator.
  h.assembly->gateway(1)->QueueJoin([](core::Registry* registry) {
    return registry->AddProvider(core::ProviderParams{});
  });
  EXPECT_TRUE(h.shards.WantsBarrier(1));
  h.shards.RunFor(0.002);
  EXPECT_FALSE(h.shards.WantsBarrier(1));
  EXPECT_EQ(h.registry.provider_count(), 7u);
}

TEST(BarrierWantsTest, DepartureSweepWantsABarrier) {
  // Every provider is dissatisfied once its 0.05 s grace has passed, and
  // every consumer in the second run: the gateways' first sweep, at
  // t = 0.1, queues departures or retires consumers. A probe right behind
  // the sweep sees the want before the window's barrier takes it.
  for (const bool providers_leave : {true, false}) {
    SCOPED_TRACE(providers_leave);
    core::DepartureConfig departure;
    departure.providers_can_leave = providers_leave;
    departure.consumers_can_leave = !providers_leave;
    departure.provider_threshold = 2.0;
    departure.consumer_threshold = 2.0;
    departure.grace_period = 0.05;
    departure.grace_jitter = 0;
    departure.sweep_interval = 0.1;
    WantsHarness h(departure);
    bool wanted = false;
    h.shards.runtime(0).ScheduleAt(
        0.1, [&h, &wanted] { wanted = h.shards.WantsBarrier(0); });
    h.shards.RunFor(0.099);
    EXPECT_FALSE(h.shards.WantsBarrier(0));
    h.shards.RunFor(0.002);
    EXPECT_TRUE(wanted);
    EXPECT_FALSE(h.shards.WantsBarrier(0));
    if (providers_leave) {
      EXPECT_TRUE(h.registry.provider(0).departed());  // applied at the barrier
    } else {
      EXPECT_FALSE(h.registry.consumer(0).active());
    }
  }
}

// --- Sharded engine ----------------------------------------------------------

EngineOptions ShardedManualOptions(uint64_t seed, uint32_t shards) {
  EngineOptions options;
  options.mode = EngineMode::kWallClock;
  options.wallclock.manual_clock = true;
  options.seed = seed;
  options.shards = shards;
  options.shard_barrier_tick = 0.005;
  options.query_timeout = 5.0;
  return options;
}

/// A population that puts work on every shard: one consumer per shard
/// (consumers go round-robin by id) and 3 providers per shard (contiguous
/// blocks), all mutually interested.
void BuildShardedPopulation(Engine* engine, uint32_t shards,
                            std::vector<model::ConsumerId>* consumers) {
  for (uint32_t s = 0; s < shards; ++s) {
    core::ConsumerParams consumer_params;
    consumer_params.n_results = 2;
    consumer_params.policy_kind = model::ConsumerPolicyKind::kPreferenceOnly;
    consumers->push_back(engine->AddConsumer(consumer_params));
  }
  const uint32_t provider_count = 3 * shards;
  for (uint32_t i = 0; i < provider_count; ++i) {
    core::ProviderParams provider_params;
    provider_params.capacity = 1.0 + 0.25 * (i % 4);
    const model::ProviderId p = engine->AddProvider(provider_params);
    for (model::ConsumerId c : *consumers) {
      engine->SetConsumerPreference(c, p, 0.6);
      engine->SetProviderPreference(p, c, 0.5);
    }
  }
}

struct ShardedRun {
  int64_t callbacks = 0;
  double satisfaction_sum = 0;
  EngineStats stats;
  std::vector<EngineShardStats> shard_stats;
};

ShardedRun RunManualShardedEngine(uint64_t seed, uint32_t shards,
                                  int queries) {
  Engine engine(ShardedManualOptions(seed, shards));
  std::vector<model::ConsumerId> consumers;
  BuildShardedPopulation(&engine, shards, &consumers);
  engine.Start();
  ShardedRun run;
  for (int i = 0; i < queries; ++i) {
    const model::ConsumerId consumer = consumers[i % consumers.size()];
    engine.Submit({consumer, 0, 2, 0.1}, [&run](const QueryResult& result) {
      ++run.callbacks;
      run.satisfaction_sum += result.satisfaction;
    });
    engine.RunFor(0.02);
  }
  EXPECT_TRUE(engine.WaitIdle(30.0));
  run.stats = engine.Stats();
  run.shard_stats = engine.ShardStats();
  return run;
}

TEST(EngineShardedTest, ManualShardedEngineServesEveryShard) {
  const ShardedRun run = RunManualShardedEngine(7, 4, 120);
  EXPECT_EQ(run.callbacks, 120);
  EXPECT_EQ(run.stats.queries_finalized, 120);
  EXPECT_EQ(run.stats.queries_in_flight, 0);
  EXPECT_GT(run.stats.shard_barriers, 0);
  // Outcome taxonomy is conserved across shards.
  EXPECT_EQ(run.stats.queries_satisfied + run.stats.queries_recovered +
                run.stats.queries_failed + run.stats.queries_unallocated +
                run.stats.queries_timed_out,
            run.stats.queries_finalized);
  // The round-robin workload reaches all four shards.
  ASSERT_EQ(run.shard_stats.size(), 4u);
  int64_t total_submitted = 0;
  for (const EngineShardStats& row : run.shard_stats) {
    EXPECT_GT(row.queries_submitted, 0) << "shard " << row.shard;
    total_submitted += row.queries_submitted;
    // One recurring timer per shard stays armed at idle: the mediator's
    // timeout-ring sweep. Anything beyond that would be a leaked query.
    EXPECT_LE(row.pending_timers, 1);
  }
  EXPECT_GE(total_submitted, 120);  // borrows may re-submit on a peer
}

TEST(EngineShardedTest, ManualShardedRunsAreReproducible) {
  const ShardedRun a = RunManualShardedEngine(21, 2, 80);
  const ShardedRun b = RunManualShardedEngine(21, 2, 80);
  EXPECT_EQ(a.callbacks, b.callbacks);
  EXPECT_EQ(a.satisfaction_sum, b.satisfaction_sum);
  EXPECT_EQ(a.stats.mean_response_time, b.stats.mean_response_time);
  EXPECT_EQ(a.stats.queries_satisfied, b.stats.queries_satisfied);
}

TEST(EngineShardedTest, ShardsOneRunsOnAOneShardFabric) {
  // shards == 1 is the same shard set with one worker: same-seed manual
  // runs are bit-equal, barrier windows are cut and counted, and
  // ShardStats reports the one shard.
  const ShardedRun a = RunManualShardedEngine(33, 1, 50);
  const ShardedRun b = RunManualShardedEngine(33, 1, 50);
  EXPECT_EQ(a.callbacks, 50);
  EXPECT_EQ(a.stats.queries_finalized, 50);
  EXPECT_EQ(a.stats.queries_in_flight, 0);
  EXPECT_EQ(a.satisfaction_sum, b.satisfaction_sum);
  EXPECT_EQ(a.stats.mean_response_time, b.stats.mean_response_time);
  EXPECT_EQ(a.stats.queries_satisfied, b.stats.queries_satisfied);
  EXPECT_GT(a.stats.shard_barriers, 0);
  EXPECT_EQ(a.stats.shard_barriers, b.stats.shard_barriers);
  EXPECT_EQ(a.stats.queries_delegated, 0);
  ASSERT_EQ(a.shard_stats.size(), 1u);
  EXPECT_EQ(a.shard_stats[0].shard, 0u);
  EXPECT_EQ(a.shard_stats[0].queries_submitted, 50);
  EXPECT_EQ(a.shard_stats[0].queries_finalized, 50);
  EXPECT_GT(a.shard_stats[0].tasks_executed, 0);
}

// --- Sharded simulated engine ------------------------------------------------

/// A kSimulated run of RunManualShardedEngine's workload. Busy shards run
/// on worker threads inside a window, and a query's outcome lands on its
/// consumer's shard, so each consumer's tally is written by one thread.
struct SimulatedRun {
  std::vector<int64_t> callbacks;
  std::vector<double> satisfaction;
  double last_completed_at = 0;
  double now_after_wait = 0;
  EngineStats stats;
  std::vector<EngineShardStats> shard_stats;
};

SimulatedRun RunSimulatedEngine(uint64_t seed, uint32_t shards, int queries) {
  EngineOptions options;
  options.mode = EngineMode::kSimulated;
  options.seed = seed;
  options.shards = shards;
  options.query_timeout = 5.0;
  Engine engine(std::move(options));
  std::vector<model::ConsumerId> consumers;
  BuildShardedPopulation(&engine, shards, &consumers);
  engine.Start();
  SimulatedRun run;
  run.callbacks.assign(consumers.size(), 0);
  run.satisfaction.assign(consumers.size(), 0);
  std::vector<double> completed_at(consumers.size(), 0);
  for (int i = 0; i < queries; ++i) {
    const size_t c = static_cast<size_t>(i) % consumers.size();
    engine.Submit({consumers[c], 0, 2, 0.1},
                  [&run, &completed_at, c](const QueryResult& result) {
                    ++run.callbacks[c];
                    run.satisfaction[c] += result.satisfaction;
                    completed_at[c] =
                        std::max(completed_at[c], result.completed_at);
                  });
    engine.RunFor(0.02);
  }
  EXPECT_TRUE(engine.WaitIdle(1000.0));
  run.now_after_wait = engine.now();
  for (double t : completed_at) {
    run.last_completed_at = std::max(run.last_completed_at, t);
  }
  run.stats = engine.Stats();
  run.shard_stats = engine.ShardStats();
  return run;
}

TEST(EngineShardedTest, SimulatedEngineShardsAndIsReproducible) {
  const SimulatedRun a = RunSimulatedEngine(13, 3, 90);
  ASSERT_EQ(a.shard_stats.size(), 3u);
  for (const EngineShardStats& row : a.shard_stats) {
    EXPECT_GT(row.queries_submitted, 0) << "shard " << row.shard;
  }
  for (int64_t n : a.callbacks) EXPECT_EQ(n, 30);
  EXPECT_EQ(a.stats.queries_finalized, 90);
  EXPECT_EQ(a.stats.queries_in_flight, 0);
  EXPECT_GT(a.stats.shard_barriers, 0);
  const SimulatedRun b = RunSimulatedEngine(13, 3, 90);
  // Summed in consumer order, so the sums are bit-comparable.
  EXPECT_EQ(std::accumulate(a.satisfaction.begin(), a.satisfaction.end(), 0.0),
            std::accumulate(b.satisfaction.begin(), b.satisfaction.end(), 0.0));
  EXPECT_EQ(a.stats.mean_response_time, b.stats.mean_response_time);
  EXPECT_EQ(a.stats.shard_barriers, b.stats.shard_barriers);
}

TEST(EngineShardedTest, OneShardSimulatedWaitIdleStopsWhenDrained) {
  // One ShardStats row, and WaitIdle returns within one barrier tick of
  // the last outcome instead of running its 1000 s budget.
  const SimulatedRun run = RunSimulatedEngine(17, 1, 20);
  ASSERT_EQ(run.shard_stats.size(), 1u);
  EXPECT_EQ(run.shard_stats[0].queries_finalized, 20);
  EXPECT_EQ(run.callbacks[0], 20);
  EXPECT_GT(run.last_completed_at, 0);
  EXPECT_LE(run.now_after_wait,
            run.last_completed_at + EngineOptions{}.shard_barrier_tick + 1e-9);
}

TEST(EngineShardedTest, PostStartMembershipJoinsThroughTheEpochLog) {
  const uint32_t kShards = 2;
  Engine engine(ShardedManualOptions(5, kShards));
  std::vector<model::ConsumerId> consumers;
  BuildShardedPopulation(&engine, kShards, &consumers);
  engine.Start();
  const size_t base_providers = engine.Snapshot().providers.size();

  int64_t callbacks = 0;
  auto submit = [&engine, &callbacks](model::ConsumerId consumer) {
    engine.Submit({consumer, 0, 2, 0.1},
                  [&callbacks](const QueryResult&) { ++callbacks; });
  };
  // Traffic in flight while membership changes land.
  for (int i = 0; i < 20; ++i) {
    submit(consumers[i % consumers.size()]);
    engine.RunFor(0.01);
  }

  // Mid-traffic joins: a provider (through the epoch join log, applied at
  // a barrier) and a consumer, then preferences wiring the newcomers in.
  core::ProviderParams new_provider_params;
  new_provider_params.capacity = 2.0;
  const model::ProviderId new_provider = engine.AddProvider(new_provider_params);
  EXPECT_EQ(static_cast<size_t>(new_provider), base_providers);
  core::ConsumerParams new_consumer_params;
  new_consumer_params.n_results = 2;
  new_consumer_params.policy_kind = model::ConsumerPolicyKind::kPreferenceOnly;
  const model::ConsumerId new_consumer = engine.AddConsumer(new_consumer_params);
  engine.SetConsumerPreference(new_consumer, new_provider, 0.9);
  for (model::ConsumerId c : consumers) {
    engine.SetConsumerPreference(c, new_provider, 0.7);
  }
  engine.SetProviderPreference(new_provider, new_consumer, 0.8);
  const std::vector<model::ProviderId> existing = [&] {
    std::vector<model::ProviderId> ids;
    for (const ProviderSnapshot& p : engine.Snapshot().providers) {
      ids.push_back(p.id);
    }
    return ids;
  }();
  for (model::ProviderId p : existing) {
    engine.SetProviderPreference(p, new_consumer, 0.5);
  }

  // The newcomers serve and issue traffic.
  for (int i = 0; i < 20; ++i) {
    submit(new_consumer);
    engine.RunFor(0.01);
  }
  EXPECT_TRUE(engine.WaitIdle(30.0));

  // Nothing in flight was lost across the membership epochs.
  EXPECT_EQ(callbacks, 40);
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_finalized, 40);
  EXPECT_EQ(stats.queries_in_flight, 0);
  const EngineSnapshot snapshot = engine.Snapshot();
  EXPECT_EQ(snapshot.providers.size(), base_providers + 1);
  // The joined provider actually worked.
  EXPECT_GT(snapshot.providers.back().instances_performed, 0);
}

TEST(EngineShardedTest, ShardedSteadyStateSubmitPathIsAllocationFree) {
  // The acceptance gate, sharded flavour: submit -> hash-route -> mediate
  // -> (sometimes borrow cross-shard) -> outcome callback performs ZERO
  // heap allocations per query once the pools are warm — including after
  // membership churn (post-Start joins) re-shaped the population. Manual
  // clock: the measurement is single-threaded and exact.
  const uint32_t kShards = 2;
  Engine engine(ShardedManualOptions(42, kShards));
  std::vector<model::ConsumerId> consumers;
  BuildShardedPopulation(&engine, kShards, &consumers);
  engine.Start();
  int64_t callbacks = 0;
  auto pump = [&engine, &callbacks, &consumers](int queries) {
    for (int i = 0; i < queries; ++i) {
      const model::ConsumerId consumer = consumers[i % consumers.size()];
      engine.Submit({consumer, 0, 2, 0.1},
                    [&callbacks](const QueryResult&) { ++callbacks; });
      engine.RunFor(0.02);
    }
    (void)engine.WaitIdle(30.0);
  };

  pump(200);  // warm-up: pools reach their high-water marks

  // Membership churn: joins allocate (the population grows), but must not
  // disturb the per-query steady state that follows.
  for (int i = 0; i < 2; ++i) {
    core::ProviderParams params;
    params.capacity = 1.5;
    const model::ProviderId p = engine.AddProvider(params);
    for (model::ConsumerId c : consumers) {
      engine.SetConsumerPreference(c, p, 0.6);
      engine.SetProviderPreference(p, c, 0.5);
    }
  }

  pump(100);  // re-warm: the grown tables reach their new high-water marks

  const uint64_t before = AllocationCount();
  pump(150);
  EXPECT_EQ(AllocationCount() - before, 0u)
      << "sharded Submit path must not allocate at steady state";
  EXPECT_EQ(callbacks, 450);
}

TEST(EngineShardedTest, DelegatedOutcomeReHomingIsAllocationFree) {
  // Borrow-path flavour of the gate: shard 1's providers only treat class
  // 1 while every query asks class 0, so each of its queries crosses the
  // mailbox twice — delegated out, outcome re-homed through the
  // performer's pooled slab slot — plus the slot-release hop back. The
  // whole round trip must perform ZERO heap allocations per query once
  // the slab, mailboxes and pools are warm.
  const uint32_t kShards = 2;
  Engine engine(ShardedManualOptions(11, kShards));
  std::vector<model::ConsumerId> consumers;
  for (uint32_t s = 0; s < kShards; ++s) {
    core::ConsumerParams consumer_params;
    consumer_params.n_results = 2;
    consumer_params.policy_kind = model::ConsumerPolicyKind::kPreferenceOnly;
    consumers.push_back(engine.AddConsumer(consumer_params));
  }
  // 3 providers per shard (contiguous id blocks). Shard 1's block is
  // class-restricted at AddProvider time: its pool for the class-0
  // traffic is dry from the first directory snapshot on.
  for (uint32_t i = 0; i < 3 * kShards; ++i) {
    core::ProviderParams provider_params;
    provider_params.capacity = 1.0 + 0.25 * (i % 4);
    if (i >= 3) provider_params.allowed_classes = {model::QueryClassId{1}};
    const model::ProviderId p = engine.AddProvider(provider_params);
    for (model::ConsumerId c : consumers) {
      engine.SetConsumerPreference(c, p, 0.6);
      engine.SetProviderPreference(p, c, 0.5);
    }
  }
  engine.Start();
  int64_t callbacks = 0;
  // Consumer 1 lives on shard 1 (consumers go round-robin by id): every
  // query below is mediated there and must borrow shard 0's providers.
  auto pump = [&engine, &callbacks, &consumers](int queries) {
    for (int i = 0; i < queries; ++i) {
      engine.Submit({consumers[1], 0, 2, 0.1},
                    [&callbacks](const QueryResult&) { ++callbacks; });
      engine.RunFor(0.02);
    }
    (void)engine.WaitIdle(30.0);
  };

  pump(150);  // warm-up: slab and mailboxes reach their high-water marks

  const EngineStats warm = engine.Stats();
  ASSERT_GT(warm.queries_delegated, 0);
  ASSERT_EQ(warm.queries_delegated, warm.queries_borrowed);

  const uint64_t before = AllocationCount();
  pump(100);
  EXPECT_EQ(AllocationCount() - before, 0u)
      << "delegated outcome re-homing must not allocate at steady state";
  // Every measured query went over the mailbox: it is the borrow round
  // trip that was held to zero, not a local fallback.
  const EngineStats done = engine.Stats();
  EXPECT_EQ(done.queries_delegated - warm.queries_delegated, 100);
  EXPECT_EQ(callbacks, 250);
}

TEST(EngineShardedTest, ThreadedShardedEngineServesDriverTraffic) {
  // Real worker threads (the TSan target): driver-thread Submit fan-in,
  // cross-shard barriers, a mid-traffic membership join, Stats from a
  // foreign thread — then a clean drain.
  EngineOptions options;
  options.mode = EngineMode::kWallClock;
  options.seed = 9;
  options.shards = 2;
  options.shard_barrier_tick = 0.001;
  options.query_timeout = 5.0;
  Engine engine(std::move(options));
  std::vector<model::ConsumerId> consumers;
  BuildShardedPopulation(&engine, 2, &consumers);
  engine.Start();
  std::atomic<int64_t> callbacks{0};
  constexpr int kQueries = 300;
  std::thread driver([&engine, &callbacks, &consumers] {
    for (int i = 0; i < kQueries; ++i) {
      engine.Submit({consumers[i % consumers.size()], 0, 2, 0.001},
                    [&callbacks](const QueryResult&) {
                      callbacks.fetch_add(1, std::memory_order_relaxed);
                    });
      if (i % 50 == 49) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
  // A membership join races the traffic (it lands at a barrier).
  core::ProviderParams params;
  params.capacity = 2.0;
  const model::ProviderId joined = engine.AddProvider(params);
  for (model::ConsumerId c : consumers) {
    engine.SetConsumerPreference(c, joined, 0.6);
  }
  const EngineStats mid = engine.Stats();  // foreign-thread barrier read
  EXPECT_GE(mid.queries_submitted, 0);
  driver.join();
  EXPECT_TRUE(engine.WaitIdle(10.0));
  EXPECT_EQ(callbacks.load(), kQueries);
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_finalized, kQueries);
  EXPECT_EQ(stats.queries_in_flight, 0);
  EXPECT_GT(stats.shard_barriers, 0);
  const std::vector<EngineShardStats> rows = engine.ShardStats();
  ASSERT_EQ(rows.size(), 2u);
  engine.Stop();
}

}  // namespace
}  // namespace sbqa
