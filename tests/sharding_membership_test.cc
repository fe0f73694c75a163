// Elastic sharded membership — the acceptance gate of the epoch-based
// join/churn/rebalance protocol:
//
//   1. full dynamic-population scenarios (availability churn + runtime
//      volunteer joins + an autonomous environment) are bit-reproducible
//      per (seed, shard_count) at 1, 2 and 4 shards, threaded or serial,
//      with BOTH shared observers (collector mux) and per-shard observers
//      recording identical traces run to run;
//   2. RunScenario at shard_count = 1 matches the classic single-engine
//      oracle (tests/classic_scenario.h) bit for bit, summaries and time
//      series, with joins and churn enabled;
//   3. a provider departing (or churning offline) with queries in flight
//      never leaks an in-flight pool slot, and the availability-churn
//      steady state stays allocation-free (counting allocator + slot
//      audit over a hand-built sharded stack driving the membership log
//      directly).

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/mediator.h"
#include "core/registry.h"
#include "core/sbqa.h"
#include "experiments/assembly.h"
#include "experiments/demo_scenarios.h"
#include "experiments/runner.h"
#include "model/reputation.h"
#include "sim/shard_set.h"
#include "util/counting_alloc.h"

#include "classic_scenario.h"

namespace sbqa::experiments {
namespace {

/// FNV-folding trace recorder (same scheme as sharding_determinism_test).
class TraceRecorder : public core::MediationObserver {
 public:
  void OnMediation(const model::Query& query,
                   const core::AllocationDecision& decision,
                   double now) override {
    Mix(0x11);
    Mix(static_cast<uint64_t>(query.id));
    Mix(std::bit_cast<uint64_t>(now));
    for (model::ProviderId p : decision.selected) {
      Mix(static_cast<uint64_t>(static_cast<uint32_t>(p)));
    }
    ++mediations_;
  }

  void OnQueryCompleted(const core::QueryOutcome& outcome) override {
    Mix(0x22);
    Mix(static_cast<uint64_t>(outcome.query.id));
    Mix(static_cast<uint64_t>(outcome.results_received));
    Mix(std::bit_cast<uint64_t>(outcome.satisfaction));
    Mix(std::bit_cast<uint64_t>(outcome.response_time));
    ++outcomes_;
  }

  void OnProviderDeparted(model::ProviderId provider, double now) override {
    Mix(0x33);
    Mix(static_cast<uint64_t>(static_cast<uint32_t>(provider)));
    Mix(std::bit_cast<uint64_t>(now));
  }

  void OnProviderAvailabilityChanged(model::ProviderId provider,
                                     bool available, double now) override {
    Mix(0x44);
    Mix(static_cast<uint64_t>(static_cast<uint32_t>(provider)));
    Mix(available ? 1 : 0);
    Mix(std::bit_cast<uint64_t>(now));
    ++availability_events_;
  }

  uint64_t hash() const { return hash_; }
  int64_t mediations() const { return mediations_; }
  int64_t outcomes() const { return outcomes_; }
  int64_t availability_events() const { return availability_events_; }

 private:
  void Mix(uint64_t v) { hash_ = (hash_ ^ v) * 1099511628211ull; }

  uint64_t hash_ = 14695981039346656037ull;
  int64_t mediations_ = 0;
  int64_t outcomes_ = 0;
  int64_t availability_events_ = 0;
};

/// One run's recorders: a per-shard set plus one shared observer fed by
/// the collector's cross-shard mux.
struct Traces {
  std::vector<std::unique_ptr<TraceRecorder>> per_shard;
  TraceRecorder shared;

  ScenarioConfig Attach(ScenarioConfig config) {
    per_shard.clear();
    for (uint32_t s = 0; s < config.sim.shard_count; ++s) {
      per_shard.push_back(std::make_unique<TraceRecorder>());
    }
    config.shard_observer_factory = [this](uint32_t s) {
      return per_shard[s].get();
    };
    config.observers.push_back(&shared);
    return config;
  }

  std::vector<uint64_t> hashes() const {
    std::vector<uint64_t> out;
    for (const auto& r : per_shard) out.push_back(r->hash());
    out.push_back(shared.hash());
    return out;
  }
};

/// The full dynamic-population workload: churn + joins + autonomous
/// departures over the demo population.
ScenarioConfig DynamicConfig(uint64_t seed, uint32_t shards, bool threads) {
  ScenarioConfig config = BaseDemoConfig(seed, /*volunteers=*/120,
                                         /*duration=*/90.0);
  config.sim.shard_count = shards;
  config.sim.shard_use_threads = threads;
  config.departure.providers_can_leave = true;
  config.departure.provider_threshold = 0.2;
  config.departure.grace_period = 40.0;
  config.churn.enabled = true;
  config.churn.mean_online = 50.0;
  config.churn.mean_offline = 15.0;
  config.churn.initial_online_fraction = 0.85;
  config.joins.enabled = true;
  config.joins.rate = 0.4;
  config.joins.max_joins = 30;
  config.joins.start_time = 5.0;
  return config;
}

TEST(ShardingMembershipTest, DynamicScenariosAreBitReproduciblePerShardCount) {
  for (uint32_t shards : {1u, 2u, 4u}) {
    Traces first;
    const RunResult a =
        RunScenario(first.Attach(DynamicConfig(17, shards, true)));
    Traces second;
    const RunResult b =
        RunScenario(second.Attach(DynamicConfig(17, shards, true)));

    EXPECT_EQ(first.hashes(), second.hashes()) << shards << " shards";
    EXPECT_EQ(a.summary.queries_finalized, b.summary.queries_finalized);
    EXPECT_EQ(std::bit_cast<uint64_t>(a.summary.consumer_satisfaction),
              std::bit_cast<uint64_t>(b.summary.consumer_satisfaction));
    EXPECT_EQ(std::bit_cast<uint64_t>(a.summary.provider_satisfaction),
              std::bit_cast<uint64_t>(b.summary.provider_satisfaction));
    EXPECT_EQ(a.membership_epochs, b.membership_epochs);
    EXPECT_EQ(a.membership_ops, b.membership_ops);

    // The dynamics actually exercised the protocol.
    EXPECT_GT(a.summary.queries_finalized, 100) << shards << " shards";
    EXPECT_GT(a.summary.provider_joins, 0) << shards << " shards";
    EXPECT_GT(a.summary.provider_offline_events, 0) << shards << " shards";
    EXPECT_EQ(a.summary.queries_submitted, a.summary.queries_finalized);
    if (shards > 1) {
      EXPECT_GT(a.membership_epochs, 0u);
      EXPECT_GT(a.membership_ops, 0u);
    } else {
      // One shard applies membership immediately (classic semantics).
      EXPECT_EQ(a.membership_ops, 0u);
    }
    // The shared observer saw the whole run, merged across shards.
    int64_t per_shard_outcomes = 0;
    for (const auto& r : first.per_shard) {
      per_shard_outcomes += r->outcomes();
    }
    EXPECT_EQ(first.shared.outcomes(), per_shard_outcomes);
    EXPECT_EQ(first.shared.outcomes(), a.summary.queries_finalized);
    EXPECT_GT(first.shared.availability_events(), 0);
  }
}

TEST(ShardingMembershipTest, ThreadedAndSerialDynamicTracesMatch) {
  Traces threaded;
  const RunResult a =
      RunScenario(threaded.Attach(DynamicConfig(23, 3, true)));
  Traces serial;
  const RunResult b =
      RunScenario(serial.Attach(DynamicConfig(23, 3, false)));

  EXPECT_EQ(threaded.hashes(), serial.hashes());
  EXPECT_EQ(a.summary.queries_finalized, b.summary.queries_finalized);
  EXPECT_EQ(a.summary.provider_joins, b.summary.provider_joins);
  EXPECT_EQ(a.summary.provider_offline_events,
            b.summary.provider_offline_events);
  EXPECT_EQ(std::bit_cast<uint64_t>(a.summary.provider_satisfaction),
            std::bit_cast<uint64_t>(b.summary.provider_satisfaction));
}

TEST(ShardingMembershipTest, EpochPathAtOneShardMatchesClassicEngine) {
  // The classic single-engine oracle with joins + churn...
  ScenarioConfig classic_config = DynamicConfig(42, 1, false);
  TraceRecorder classic_trace;
  classic_config.observers.push_back(&classic_trace);
  const RunResult classic = oracle::RunClassicScenario(classic_config);

  // ...vs the same scenario through the one runner at shard_count = 1.
  Traces traces;
  const RunResult sharded =
      RunScenario(traces.Attach(DynamicConfig(42, 1, false)));

  EXPECT_EQ(classic_trace.hash(), traces.shared.hash());
  EXPECT_EQ(classic_trace.hash(), traces.per_shard[0]->hash());
  EXPECT_EQ(classic_trace.mediations(), traces.shared.mediations());

  const metrics::RunSummary& a = classic.summary;
  const metrics::RunSummary& b = sharded.summary;
  EXPECT_EQ(a.queries_submitted, b.queries_submitted);
  EXPECT_EQ(a.queries_finalized, b.queries_finalized);
  EXPECT_EQ(a.queries_fully_served, b.queries_fully_served);
  EXPECT_EQ(a.queries_timed_out, b.queries_timed_out);
  EXPECT_EQ(a.provider_joins, b.provider_joins);
  EXPECT_EQ(a.provider_offline_events, b.provider_offline_events);
  EXPECT_EQ(a.provider_departures, b.provider_departures);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  // Bit-identical accumulation, not just statistical agreement.
  EXPECT_EQ(std::bit_cast<uint64_t>(a.consumer_satisfaction),
            std::bit_cast<uint64_t>(b.consumer_satisfaction));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.provider_satisfaction),
            std::bit_cast<uint64_t>(b.provider_satisfaction));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.mean_response_time),
            std::bit_cast<uint64_t>(b.mean_response_time));
  EXPECT_GT(b.provider_joins, 0);
  EXPECT_GT(b.provider_offline_events, 0);
  oracle::ExpectSameSeries(classic.series, sharded.series);
}

// --- In-flight slot audit under epoch-applied departures/churn --------------

/// A 2-shard stack driven by hand (the sharded pump harness), wired by
/// the one Assembly: direct access to the mediators so the test can audit
/// pool slots and drive the membership log itself.
struct MembershipHarness {
  static constexpr uint32_t kShards = 2;
  static constexpr size_t kProviders = 60;

  sim::SimulationConfig sim_config;
  std::unique_ptr<sim::ShardSet> shards;
  core::Registry registry;
  std::unique_ptr<model::ReputationRegistry> reputation;
  std::unique_ptr<Assembly> assembly;

  MembershipHarness() {
    sim_config.seed = 77;
    sim_config.shard_count = kShards;
    sim_config.shard_use_threads = false;  // exact alloc accounting
    shards = std::make_unique<sim::ShardSet>(sim_config);

    util::Rng setup(5);
    core::ConsumerParams consumer_params;
    consumer_params.n_results = 3;
    for (uint32_t s = 0; s < kShards; ++s) {
      registry.AddConsumer(consumer_params);
    }
    for (size_t i = 0; i < kProviders; ++i) {
      core::ProviderParams params;
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

    reputation =
        std::make_unique<model::ReputationRegistry>(registry.provider_count());
    core::SbqaParams sbqa_params;
    sbqa_params.knbest = core::KnBestParams{20, 8};
    AssemblyOptions wiring;
    wiring.registry = &registry;
    wiring.reputation = reputation.get();
    for (uint32_t s = 0; s < kShards; ++s) {
      wiring.runtimes.push_back(&shards->shard(s).runtime());
    }
    wiring.fabric = shards.get();
    wiring.make_method = [sbqa_params] {
      return std::make_unique<core::SbqaMethod>(sbqa_params);
    };
    assembly = std::make_unique<Assembly>(std::move(wiring));
    assembly->InstallBarrierPhases(shards.get());
  }

  core::Mediator* mediator(uint32_t shard) const {
    return assembly->gateway(shard);
  }
  core::Mediator* owner(model::ProviderId provider) const {
    return assembly->gateway(registry.ProviderShard(provider));
  }
  const std::vector<core::Mediator*>& mediators() const {
    return assembly->mediators();
  }

  size_t TotalInflight() const {
    size_t total = 0;
    for (const core::Mediator* m : mediators()) total += m->inflight_count();
    return total;
  }
};

TEST(ShardingMembershipTest, DepartingProviderNeverLeaksInflightSlots) {
  MembershipHarness harness;
  model::QueryId next_id = 0;
  double horizon = 0;
  int round = 0;

  // Pump queries while yanking providers offline mid-flight through the
  // membership log. The churn is a deterministic PERIODIC rotation (a
  // sliding offline window over the first ten ids of each shard's block),
  // so the warm-up phase explores the same worst-case concurrency the
  // steady phase revisits — a prerequisite for an allocation-free steady
  // state. Victims stay a strict subset of each shard's partition so the
  // candidate pool never runs dry: the borrow fallback (which
  // intentionally allocates) must stay off this path.
  const auto pump = [&](int rounds) {
    for (int i = 0; i < rounds; ++i, ++round) {
      for (uint32_t s = 0; s < MembershipHarness::kShards; ++s) {
        model::Query query;
        query.id = ++next_id;
        query.consumer = static_cast<model::ConsumerId>(s);
        // ~0.3s of work per instance: slow enough that churn keeps
        // hitting providers with instances in flight, light enough that
        // the system is not overloaded (an ever-growing backlog would
        // grow the in-flight pool's high-water mark forever and the
        // steady state would never become allocation-free).
        query.n_results = 3;
        query.cost = 0.4;
        harness.mediator(s)->SubmitQuery(query);
      }
      if (round % 3 == 0) {
        const int k = round / 3;
        // j is a PER-SHARD rotation counter, decoupled from the shard
        // choice: if the local index were derived from k directly, its
        // parity would be locked to the shard's and the victim/revival
        // sets would be disjoint — every provider taken offline would
        // stay offline and the "churn" would degenerate to no-op flips.
        const int j = k / 2;
        const model::ProviderId base = k % 2 == 0 ? 0 : 30;
        const auto victim = static_cast<model::ProviderId>(base + j % 10);
        const auto revived =
            static_cast<model::ProviderId>(base + (j + 5) % 10);
        harness.owner(victim)->SetProviderAvailability(victim, false);
        harness.owner(revived)->SetProviderAvailability(revived, true);
      }
      // A few permanent departures, pinned to warm-up rounds and to ids
      // OUTSIDE the churn window — each lands while the victim has
      // instances in flight (every provider always does at this load).
      if (round == 50 || round == 100 || round == 150 || round == 200) {
        const auto doomed =
            static_cast<model::ProviderId>(round < 125 ? 10 + round / 50
                                                       : 38 + round / 50);
        harness.registry.QueueDeparture(
            harness.registry.ProviderShard(doomed), doomed);
      }
      horizon += 0.05;
      harness.shards->RunUntil(horizon);
    }
    horizon += 700.0;  // full drain: results, timeouts, outcome routing
    harness.shards->RunUntil(horizon);
  };

  // Burst pre-warm: 200 simultaneous queries per shard push the in-flight
  // pool and timeout ring far past any concurrency the churny steady
  // phase can reach (~50), so pool growth after this point can only mean
  // a leaked slot — occasional latency/backlog spikes cannot mimic one.
  for (int burst = 0; burst < 200; ++burst) {
    for (uint32_t s = 0; s < MembershipHarness::kShards; ++s) {
      model::Query query;
      query.id = ++next_id;
      query.consumer = static_cast<model::ConsumerId>(s);
      query.n_results = 3;
      query.cost = 0.4;
      harness.mediator(s)->SubmitQuery(query);
    }
  }
  horizon += 700.0;
  harness.shards->RunUntil(horizon);

  // Warm-up: run the periodic churn long enough that every queue and
  // scratch buffer reaches its per-window high-water mark.
  pump(300);
  EXPECT_EQ(harness.TotalInflight(), 0u);
  EXPECT_GT(harness.registry.membership_epoch(), 0u);
  size_t warm_slots = 0;
  for (const core::Mediator* m : harness.mediators()) {
    warm_slots += m->inflight_slot_capacity();
  }

  // Steady state: churn keeps hitting in-flight providers, yet the
  // mediation path stays allocation-free and every slot is returned.
  const uint64_t steady_allocs = util::AllocationCount();
  pump(150);
  const double per_query =
      static_cast<double>(util::AllocationCount() - steady_allocs) /
      (150.0 * MembershipHarness::kShards);
  EXPECT_EQ(per_query, 0.0)
      << "availability churn must stay allocation-free in steady state";

  // Slot audit: nothing left in flight, and the pool never grew past its
  // warm-up high-water mark — a leaked slot would force fresh ones.
  EXPECT_EQ(harness.TotalInflight(), 0u);
  size_t steady_slots = 0;
  for (const core::Mediator* m : harness.mediators()) {
    steady_slots += m->inflight_slot_capacity();
  }
  EXPECT_EQ(steady_slots, warm_slots);
  // Every dispatched instance was resolved one way or the other (an
  // instance can legitimately count on both sides — completed at the
  // provider, then failed by a churn event racing its result home).
  int64_t dispatched = 0, completed = 0, failed = 0;
  int64_t offline_events = 0, departures = 0;
  for (const core::Mediator* m : harness.mediators()) {
    dispatched += m->stats().instances_dispatched;
    completed += m->stats().instances_completed;
    failed += m->stats().instances_failed;
    offline_events += m->stats().provider_offline_events;
    departures += m->stats().provider_departures;
  }
  EXPECT_LE(dispatched, completed + failed);
  EXPECT_GT(offline_events, 0);
  EXPECT_GT(departures, 0);
}

}  // namespace
}  // namespace sbqa::experiments
