// Cross-shard determinism tests — the acceptance gate of the sharded
// engine:
//
//   1. RunScenario at shard_count = 1 is bit-identical to the classic
//      single-engine oracle (tests/classic_scenario.h): same allocation
//      trace, same counters, same metric time series, on a demo-scenario
//      golden seed;
//   2. a fixed (seed, shard_count) reproduces identical allocation traces
//      run after run, with worker threads on;
//   3. threaded and serial execution produce identical traces;
//   4. the cross-shard borrow path activates when a shard's candidate
//      pool for a class runs dry, stays deterministic, and completes the
//      starved consumer's queries on a peer shard's providers;
//   5. a donor shard scores a borrowed query with the consumer
//      satisfaction published at the last barrier, never with the live
//      memory the consumer's home shard writes in the same window.
//
// Traces are FNV-folded per shard from the mediation observer stream:
// every allocation decision (query id, selected providers) and every
// outcome (query id, results, satisfaction bits). Two runs whose traces
// collide per-shard executed the same allocations in the same order.

#include <bit>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/mediator.h"
#include "core/registry.h"
#include "core/sbqa.h"
#include "core/score.h"
#include "experiments/assembly.h"
#include "experiments/demo_scenarios.h"
#include "experiments/runner.h"
#include "model/reputation.h"
#include "sim/shard_set.h"

#include "classic_scenario.h"

namespace sbqa::experiments {
namespace {

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

  uint64_t hash() const { return hash_; }
  int64_t mediations() const { return mediations_; }
  int64_t outcomes() const { return outcomes_; }

 private:
  void Mix(uint64_t v) { hash_ = (hash_ ^ v) * 1099511628211ull; }

  uint64_t hash_ = 14695981039346656037ull;
  int64_t mediations_ = 0;
  int64_t outcomes_ = 0;
};

/// Recorders for one run: one per shard, owned here, handed to the runner
/// through the per-shard observer factory.
struct ShardTraces {
  std::vector<std::unique_ptr<TraceRecorder>> recorders;

  ScenarioConfig Attach(ScenarioConfig config) {
    const uint32_t shards = config.sim.shard_count;
    recorders.clear();
    for (uint32_t s = 0; s < shards; ++s) {
      recorders.push_back(std::make_unique<TraceRecorder>());
    }
    config.shard_observer_factory = [this](uint32_t s) {
      return recorders[s].get();
    };
    return config;
  }

  std::vector<uint64_t> hashes() const {
    std::vector<uint64_t> out;
    for (const auto& r : recorders) out.push_back(r->hash());
    return out;
  }
};

ScenarioConfig SmallConfig(uint64_t seed, uint32_t shards, bool threads) {
  ScenarioConfig config = BaseDemoConfig(seed, /*volunteers=*/120,
                                         /*duration=*/90.0);
  config.sim.shard_count = shards;
  config.sim.shard_use_threads = threads;
  return config;
}

TEST(ShardingDeterminismTest, ShardCountOneIsBitIdenticalToClassicEngine) {
  // The classic single-engine oracle with a shared trace observer.
  TraceRecorder classic;
  ScenarioConfig legacy = SmallConfig(/*seed=*/42, /*shards=*/1, false);
  legacy.observers.push_back(&classic);
  const RunResult legacy_result = oracle::RunClassicScenario(legacy);

  // The one runner at shard_count = 1.
  ShardTraces traces;
  const ScenarioConfig sharded =
      traces.Attach(SmallConfig(/*seed=*/42, /*shards=*/1, false));
  const RunResult sharded_result = RunScenario(sharded);

  EXPECT_EQ(classic.hash(), traces.recorders[0]->hash());
  EXPECT_EQ(classic.mediations(), traces.recorders[0]->mediations());
  EXPECT_EQ(classic.outcomes(), traces.recorders[0]->outcomes());

  const metrics::RunSummary& a = legacy_result.summary;
  const metrics::RunSummary& b = sharded_result.summary;
  EXPECT_EQ(a.queries_submitted, b.queries_submitted);
  EXPECT_EQ(a.queries_finalized, b.queries_finalized);
  EXPECT_EQ(a.queries_fully_served, b.queries_fully_served);
  EXPECT_EQ(a.queries_timed_out, b.queries_timed_out);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  // Bit-identical accumulation, not just statistical agreement.
  EXPECT_EQ(std::bit_cast<uint64_t>(a.consumer_satisfaction),
            std::bit_cast<uint64_t>(b.consumer_satisfaction));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.provider_satisfaction),
            std::bit_cast<uint64_t>(b.provider_satisfaction));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.mean_response_time),
            std::bit_cast<uint64_t>(b.mean_response_time));
  EXPECT_EQ(b.queries_delegated, 0);
  EXPECT_EQ(b.queries_borrowed, 0);
  oracle::ExpectSameSeries(legacy_result.series, sharded_result.series);
}

TEST(ShardingDeterminismTest, FixedSeedAndShardCountReproducesThreaded) {
  ShardTraces first_traces;
  const RunResult first = RunScenario(
      first_traces.Attach(SmallConfig(/*seed=*/7, /*shards=*/4, true)));
  ShardTraces second_traces;
  const RunResult second = RunScenario(
      second_traces.Attach(SmallConfig(/*seed=*/7, /*shards=*/4, true)));

  EXPECT_EQ(first_traces.hashes(), second_traces.hashes());
  EXPECT_EQ(first.summary.queries_finalized, second.summary.queries_finalized);
  EXPECT_EQ(std::bit_cast<uint64_t>(first.summary.consumer_satisfaction),
            std::bit_cast<uint64_t>(second.summary.consumer_satisfaction));
  // The run did real work.
  EXPECT_GT(first.summary.queries_finalized, 100);
}

TEST(ShardingDeterminismTest, ThreadedAndSerialTracesMatch) {
  ShardTraces threaded_traces;
  const RunResult threaded = RunScenario(
      threaded_traces.Attach(SmallConfig(/*seed=*/11, /*shards=*/3, true)));
  ShardTraces serial_traces;
  const RunResult serial = RunScenario(
      serial_traces.Attach(SmallConfig(/*seed=*/11, /*shards=*/3, false)));

  EXPECT_EQ(threaded_traces.hashes(), serial_traces.hashes());
  EXPECT_EQ(threaded.summary.queries_finalized,
            serial.summary.queries_finalized);
  EXPECT_EQ(std::bit_cast<uint64_t>(threaded.summary.provider_satisfaction),
            std::bit_cast<uint64_t>(serial.summary.provider_satisfaction));
}

TEST(ShardingDeterminismTest, EveryShardMediatesWork) {
  ShardTraces traces;
  const RunResult result = RunScenario(
      traces.Attach(SmallConfig(/*seed=*/5, /*shards=*/3, true)));
  // Three projects round-robin onto three shards: every shard has a
  // consumer and its own provider block, so every shard mediates.
  for (const auto& recorder : traces.recorders) {
    EXPECT_GT(recorder->mediations(), 0);
  }
  EXPECT_EQ(result.summary.queries_submitted,
            result.summary.queries_finalized);
}

TEST(ShardingDeterminismTest, BorrowPathServesStarvedShardDeterministically) {
  auto starved_config = [](bool threads) {
    ScenarioConfig config = SmallConfig(/*seed=*/21, /*shards=*/4, threads);
    // Starve shard 1: restrict its whole provider block (contiguous ids
    // [block, 2*block)) to class 0. Project 1 (query class 1) lives on
    // shard 1 and must borrow candidates from its peers for every query.
    config.population_hook = [](core::Registry* registry,
                                const boinc::BuiltPopulation& population,
                                util::Rng*) {
      const size_t count = population.volunteers.size();
      const size_t block = (count + 3) / 4;
      for (size_t i = block; i < std::min(count, 2 * block); ++i) {
        registry->provider(population.volunteers[i])
            .RestrictClasses({model::QueryClassId{0}});
      }
    };
    return config;
  };

  ShardTraces traces;
  const RunResult result =
      RunScenario(traces.Attach(starved_config(true)));

  // Shard 1's pool for class 1 is dry -> its queries went over the
  // mailbox and were mediated (borrowed) elsewhere, and still completed.
  EXPECT_GT(result.summary.queries_delegated, 0);
  EXPECT_EQ(result.summary.queries_delegated, result.summary.queries_borrowed);
  EXPECT_EQ(result.summary.queries_submitted,
            result.summary.queries_finalized);
  // The starved project's queries were not simply dropped: unallocated
  // stays a small minority of the delegated stream (a few can still land
  // in churn-empty moments).
  EXPECT_LT(result.summary.queries_unallocated,
            result.summary.queries_delegated / 4 + 1);

  // And the borrow protocol is deterministic, threaded or serial.
  ShardTraces repeat_traces;
  RunScenario(repeat_traces.Attach(starved_config(true)));
  EXPECT_EQ(traces.hashes(), repeat_traces.hashes());
  ShardTraces serial_traces;
  RunScenario(serial_traces.Attach(starved_config(false)));
  EXPECT_EQ(traces.hashes(), serial_traces.hashes());
}

// --- Barrier-published consumer satisfaction --------------------------------

/// What the donor shard decided for the borrowed query, with the inputs
/// the scorer used (recorded on the donor's own context).
struct DonorDecision : core::MediationObserver {
  model::QueryId query = 0;
  model::ProviderId picked = model::kInvalidId;
  double decided_at = -1;
  std::vector<double> provider_intentions;
  std::vector<double> consumer_intentions;
  std::vector<double> provider_satisfactions;
  std::vector<model::ProviderId> consulted;
  const core::Registry* registry = nullptr;

  void OnMediation(const model::Query& q,
                   const core::AllocationDecision& decision,
                   double now) override {
    if (q.id != query) return;
    ASSERT_EQ(decision.selected.size(), 1u);
    picked = decision.selected[0];
    decided_at = now;
    consulted.assign(decision.consulted.begin(), decision.consulted.end());
    provider_intentions.assign(decision.provider_intentions.begin(),
                               decision.provider_intentions.end());
    consumer_intentions.assign(decision.consumer_intentions.begin(),
                               decision.consumer_intentions.end());
    provider_satisfactions.clear();
    for (model::ProviderId p : consulted) {
      provider_satisfactions.push_back(registry->provider(p).satisfaction());
    }
  }

  /// The provider Definition 3 ranks first for consumer satisfaction
  /// `consumer_satisfaction` (Equation 2's adaptive omega, default
  /// epsilon).
  model::ProviderId Pick(double consumer_satisfaction) const {
    const double epsilon = core::SbqaParams{}.epsilon;
    model::ProviderId best = model::kInvalidId;
    double best_score = 0;
    for (size_t i = 0; i < consulted.size(); ++i) {
      const double omega = core::AdaptiveOmega(consumer_satisfaction,
                                               provider_satisfactions[i]);
      const double score = core::ProviderScore(
          provider_intentions[i], consumer_intentions[i], omega, epsilon);
      if (best == model::kInvalidId || score > best_score) {
        best = consulted[i];
        best_score = score;
      }
    }
    return best;
  }
};

/// The home shard's view of the local query that lands mid-window.
struct HomeOutcome : core::MediationObserver {
  model::QueryId query = 0;
  double completed_at = -1;
  double satisfaction_after = -1;
  const core::Registry* registry = nullptr;

  void OnQueryCompleted(const core::QueryOutcome& outcome) override {
    if (outcome.query.id != query) return;
    completed_at = outcome.completed_at;
    satisfaction_after = registry->consumer(outcome.query.consumer)
                             .satisfaction();
  }
};

/// Two shards, one barrier per simulated second. Consumer 0 lives on
/// shard 0, whose providers 0 and 1 only serve class 0; shard 1's
/// providers 2 and 3 serve everything. Consumer 0 issues a class-1 query
/// at t = 0, delegated to shard 1 and scored there at t = 1, and a local
/// class-0 query at t = 1.2 that completes on shard 0 in the same window.
/// Intentions are plain preferences, chosen so the donor's pick flips
/// with the consumer satisfaction it scores with: provider 2 at the
/// cold-start 0.5 the barrier published, provider 3 at the ~0.98 the
/// local query leaves in the live memory.
void RunBorrowedScoring(bool threads, DonorDecision* donor,
                        HomeOutcome* home) {
  sim::SimulationConfig sim_config;
  sim_config.seed = 5;
  sim_config.shard_count = 2;
  sim_config.shard_use_threads = threads;
  sim_config.shard_barrier_tick = 1.0;
  sim_config.latency_median = 0;  // zero-latency hops
  sim_config.latency_sigma = 0;
  sim::ShardSet shards(sim_config);

  core::Registry registry;
  core::ConsumerParams consumer_params;
  consumer_params.policy_kind = model::ConsumerPolicyKind::kPreferenceOnly;
  const model::ConsumerId consumer = registry.AddConsumer(consumer_params);
  const double consumer_pref[4] = {0.96, 0.96, 0.95, 0.1};
  const double provider_pref[4] = {0.5, 0.5, 0.5, 0.6};
  for (int i = 0; i < 4; ++i) {
    core::ProviderParams params;
    params.policy_kind = model::ProviderPolicyKind::kPreferenceOnly;
    const model::ProviderId p = registry.AddProvider(params);
    registry.consumer(consumer).preferences().Set(p, consumer_pref[i]);
    registry.provider(p).preferences().Set(consumer, provider_pref[i]);
  }
  registry.SetShardCount(2);
  registry.provider(0).RestrictClasses({model::QueryClassId{0}});
  registry.provider(1).RestrictClasses({model::QueryClassId{0}});

  model::ReputationRegistry reputation(registry.provider_count());
  core::SbqaParams sbqa;
  sbqa.knbest = core::KnBestParams{0, 0};  // consult every candidate
  experiments::AssemblyOptions wiring;
  wiring.registry = &registry;
  wiring.reputation = &reputation;
  wiring.shards = &shards;
  wiring.make_method = [sbqa] {
    return std::make_unique<core::SbqaMethod>(sbqa);
  };
  experiments::Assembly assembly(std::move(wiring));
  assembly.InstallBarrierPhases();
  const std::vector<core::Mediator*>& mediators = assembly.mediators();
  donor->registry = &registry;
  home->registry = &registry;
  mediators[1]->AddObserver(donor);
  mediators[0]->AddObserver(home);

  model::Query borrowed;
  borrowed.id = donor->query = 1;
  borrowed.consumer = consumer;
  borrowed.query_class = 1;
  borrowed.cost = 0.1;
  mediators[0]->SubmitQuery(borrowed);
  model::Query local = borrowed;
  local.id = home->query = 2;
  local.query_class = 0;
  core::Mediator* origin = mediators[0];
  shards.shard(0).scheduler().ScheduleAt(
      1.2, [origin, local] { origin->SubmitQuery(local); });
  shards.RunUntil(3.0);
}

TEST(ShardingDeterminismTest, DonorScoresWithBarrierPublishedSatisfaction) {
  for (const bool threads : {false, true}) {
    SCOPED_TRACE(threads ? "threaded" : "serial");
    DonorDecision donor;
    HomeOutcome home;
    RunBorrowedScoring(threads, &donor, &home);

    // The donor (shard 1, above the origin) scored the borrowed query at
    // the t = 1 barrier; the home shard's local query completed later in
    // the same window and changed the consumer's live memory.
    ASSERT_EQ(donor.decided_at, 1.0);
    ASSERT_GT(home.completed_at, donor.decided_at);
    ASSERT_GT(home.satisfaction_after, 0.9);
    const model::ProviderId with_barrier_value =
        donor.Pick(core::SbqaParams{}.cold_start_consumer_satisfaction);
    const model::ProviderId with_live_value =
        donor.Pick(home.satisfaction_after);
    ASSERT_NE(with_barrier_value, with_live_value);

    EXPECT_EQ(donor.picked, with_barrier_value);
  }
}

}  // namespace
}  // namespace sbqa::experiments
