// Chaos suite — the acceptance gate of the fault plane and the hardened
// query lifecycle:
//
//   1. FaultInjector semantics: a disabled plan is a draw-free
//      pass-through, inboxes are never faulted, and every
//      fault pattern (drops, delays, crash windows, latency skew) is a
//      pure function of FaultPlan::seed;
//   2. mediator recovery: a mid-flight provider loss re-mediates the
//      query onto an untried provider; an exhausted retry budget ends in
//      a terminal outcome with nothing leaked; a late result from an
//      abandoned attempt never double-finalizes; the health detector
//      suspends a consecutively failing provider and probes it back;
//   3. chaos end-to-end: a scenario under ~10% provider crash downtime
//      plus 5% dropped sends completes EVERY query terminally and is
//      bit-reproducible per (seed, shard_count), threaded or serial, and
//      mediator groups lose no query under drops or crashes;
//   4. graceful degradation: the engine sheds deterministically at
//      max_pending (and at the wall-clock submit queue bound);
//   5. allocation gates: the retry ladder and the shed path perform zero
//      heap allocations per query at steady state.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/mediator.h"
#include "core/sbqa.h"
#include "engine/engine.h"
#include "experiments/demo_scenarios.h"
#include "experiments/runner.h"
#include "model/reputation.h"
#include "runtime/fault.h"
#include "sim/simulation.h"
#include "util/counting_alloc.h"

#include "classic_scenario.h"

namespace sbqa {
namespace {

// --- FaultInjector units -----------------------------------------------------

/// A bare simulation whose runtime the injector wraps; destination sends
/// record which messages got through.
struct InjectorHarness {
  explicit InjectorHarness(const rt::FaultPlan& plan, uint64_t sim_seed = 1) {
    sim::SimulationConfig config;
    config.seed = sim_seed;
    config.latency_sigma = 0;  // constant latency: FIFO delivery
    simulation = std::make_unique<sim::Simulation>(config);
    injector =
        std::make_unique<rt::FaultInjector>(&simulation->runtime(), plan);
    control = injector->RegisterInbox();     // 0: never faulted
    data = injector->RegisterDestination();  // 1: faultable
  }

  /// Sends `count` numbered messages to `destination` and returns the
  /// delivery mask after draining.
  std::vector<bool> SendBatch(rt::Destination destination, int count) {
    std::vector<bool> delivered(static_cast<size_t>(count), false);
    for (int i = 0; i < count; ++i) {
      injector->SendTo(destination,
                       [&delivered, i] { delivered[static_cast<size_t>(i)] =
                                             true; });
    }
    simulation->RunUntil(simulation->now() + 120.0);
    return delivered;
  }

  std::unique_ptr<sim::Simulation> simulation;
  std::unique_ptr<rt::FaultInjector> injector;
  rt::Destination control = rt::kNoDestination;
  rt::Destination data = rt::kNoDestination;
};

TEST(FaultInjectorTest, DisabledPlanIsPassThrough) {
  rt::FaultPlan plan;  // all defaults: no faults
  ASSERT_FALSE(plan.enabled());
  InjectorHarness h(plan);
  const std::vector<bool> delivered = h.SendBatch(h.data, 50);
  EXPECT_EQ(std::count(delivered.begin(), delivered.end(), true), 50);
  // A disabled injector never even counts: the faultable branch is off.
  EXPECT_EQ(h.injector->stats().sends_seen, 0);
  EXPECT_EQ(h.injector->stats().sends_dropped, 0);
}

TEST(FaultInjectorTest, InboxesAreNeverFaulted) {
  rt::FaultPlan plan;
  plan.drop_send_prob = 1.0;  // drop everything faultable
  InjectorHarness h(plan);
  // A mediator group shares one runtime: the second member's inbox is
  // registered after the first member's provider destinations, and is
  // exempt by identity all the same.
  const rt::Destination second_inbox = h.injector->RegisterInbox();
  ASSERT_GT(second_inbox, h.data);
  const std::vector<bool> control = h.SendBatch(h.control, 30);
  const std::vector<bool> second = h.SendBatch(second_inbox, 30);
  const std::vector<bool> data = h.SendBatch(h.data, 30);
  // The control plane (mediator inboxes) is lossless; the data plane lost
  // every send.
  EXPECT_EQ(std::count(control.begin(), control.end(), true), 30);
  EXPECT_EQ(std::count(second.begin(), second.end(), true), 30);
  EXPECT_EQ(std::count(data.begin(), data.end(), true), 0);
  EXPECT_EQ(h.injector->stats().sends_seen, 30);
  EXPECT_EQ(h.injector->stats().sends_dropped, 30);
}

TEST(FaultInjectorTest, DropPatternIsSeededAndReproducible) {
  rt::FaultPlan plan;
  plan.seed = 7;
  plan.drop_send_prob = 0.5;
  const std::vector<bool> first = InjectorHarness(plan).SendBatch(1, 200);
  const std::vector<bool> second = InjectorHarness(plan).SendBatch(1, 200);
  EXPECT_EQ(first, second);  // same plan seed: identical pattern
  const int survivors =
      static_cast<int>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(survivors, 0);
  EXPECT_LT(survivors, 200);

  plan.seed = 8;
  const std::vector<bool> other = InjectorHarness(plan).SendBatch(1, 200);
  EXPECT_NE(first, other);  // the pattern is a function of the seed
}

TEST(FaultInjectorTest, CrashWindowsAreDeterministicPerDestination) {
  rt::FaultPlan plan;
  plan.seed = 11;
  plan.crash_rate = 0.5;          // mean 2s up
  plan.mean_crash_duration = 2.0;  // mean 2s down
  auto sample = [&plan](rt::Destination d) {
    InjectorHarness h(plan);
    std::vector<bool> down;
    for (double t = 0; t < 100.0; t += 0.25) {
      down.push_back(h.injector->DestinationDown(d, t));
    }
    return down;
  };
  const std::vector<bool> first = sample(1);
  EXPECT_EQ(first, sample(1));  // pure function of (seed, destination, t)
  EXPECT_NE(first, sample(2));  // independent stream per destination
  // The process alternates: both phases appear over 100s of 50/50 windows.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST(FaultInjectorTest, CrashedDestinationDiscardsSends) {
  rt::FaultPlan plan;
  plan.seed = 3;
  plan.crash_rate = 1.0;           // mean 1s up
  plan.mean_crash_duration = 1.0;  // mean 1s down
  InjectorHarness h(plan);
  // Spread sends over 60s so both up and down windows are hit.
  int delivered = 0;
  for (int i = 0; i < 120; ++i) {
    h.injector->Schedule(0.5 * i, [&h, &delivered] {
      h.injector->SendTo(h.data, [&delivered] { ++delivered; });
    });
  }
  h.simulation->RunUntil(120.0);
  const rt::FaultStats& stats = h.injector->stats();
  EXPECT_EQ(stats.sends_seen, 120);
  EXPECT_GT(stats.sends_crashed, 0);
  EXPECT_GT(stats.crash_windows, 0);
  EXPECT_EQ(delivered, 120 - static_cast<int>(stats.sends_crashed));
}

TEST(FaultInjectorTest, DelayedSendsAreCountedAndEventuallyDelivered) {
  rt::FaultPlan plan;
  plan.delay_send_prob = 1.0;
  plan.delay_mean = 0.05;
  InjectorHarness h(plan);
  const std::vector<bool> delivered = h.SendBatch(h.data, 50);
  // Delay is a fault, not a loss: everything still arrives.
  EXPECT_EQ(std::count(delivered.begin(), delivered.end(), true), 50);
  EXPECT_EQ(h.injector->stats().sends_delayed, 50);
  EXPECT_EQ(h.injector->stats().sends_dropped, 0);
}

TEST(FaultInjectorTest, LatencySkewMultipliesInnerSamples) {
  rt::FaultPlan skewed_plan;
  skewed_plan.latency_skew = 0.5;
  rt::FaultPlan plain_plan;  // disabled
  // Same simulation seed: the inner latency streams are identical draws.
  InjectorHarness skewed(skewed_plan, /*sim_seed=*/5);
  InjectorHarness plain(plain_plan, /*sim_seed=*/5);
  for (int i = 0; i < 100; ++i) {
    const double raw = plain.injector->SampleLatency();
    EXPECT_DOUBLE_EQ(skewed.injector->SampleLatency(), raw * 1.5);
  }
  EXPECT_EQ(skewed.injector->stats().latency_skews, 100);
  EXPECT_EQ(plain.injector->stats().latency_skews, 0);
}

// --- Mediator recovery -------------------------------------------------------

/// Observer recording outcomes and per-attempt allocation decisions.
struct ChaosObserver : core::MediationObserver {
  void OnMediation(const model::Query&,
                   const core::AllocationDecision& decision, double) override {
    selections.emplace_back(decision.selected.begin(),
                            decision.selected.end());
  }
  void OnQueryCompleted(const core::QueryOutcome& outcome) override {
    outcomes.push_back(outcome);
  }
  std::vector<std::vector<model::ProviderId>> selections;
  std::vector<core::QueryOutcome> outcomes;
};

/// TestSystem with the fault plane interposed: preference-only policies,
/// capacity-1 providers, n_results=1 consumer, the mediator built over a
/// FaultInjector wrapping the simulation runtime.
struct ChaosSystem {
  explicit ChaosSystem(int providers, const rt::FaultPlan& plan = {},
                       uint64_t seed = 1) {
    sim::SimulationConfig sim_config;
    sim_config.seed = seed;
    sim_config.latency_median = 0.001;
    sim_config.latency_sigma = 0;  // constant latency for exact arithmetic
    simulation = std::make_unique<sim::Simulation>(sim_config);
    injector =
        std::make_unique<rt::FaultInjector>(&simulation->runtime(), plan);

    core::ConsumerParams consumer_params;
    consumer_params.policy_kind = model::ConsumerPolicyKind::kPreferenceOnly;
    consumer_params.n_results = 1;
    consumer = registry.AddConsumer(consumer_params);
    for (int i = 0; i < providers; ++i) {
      core::ProviderParams params;
      params.capacity = 1.0;
      params.policy_kind = model::ProviderPolicyKind::kPreferenceOnly;
      registry.AddProvider(params);
    }
    reputation = std::make_unique<model::ReputationRegistry>(
        registry.provider_count());
  }

  void Start(core::MediatorConfig config, bool observe = true) {
    // Faults ride destination sends: network simulation must be on for the
    // dispatch path to be faultable. Fault-free recovery tests keep it off
    // for exact zero-latency timing.
    config.simulate_network = injector->plan().enabled();
    mediator = std::make_unique<core::Mediator>(
        injector.get(), &registry, reputation.get(),
        std::make_unique<core::SbqaMethod>(core::SbqaParams{}), config);
    if (observe) mediator->AddObserver(&observer);
  }

  model::Query MakeQuery(int n_results = 1, double cost = 2.0) {
    model::Query q;
    q.id = next_query_id++;
    q.consumer = consumer;
    q.n_results = n_results;
    q.cost = cost;
    return q;
  }

  std::unique_ptr<sim::Simulation> simulation;
  std::unique_ptr<rt::FaultInjector> injector;
  core::Registry registry;
  std::unique_ptr<model::ReputationRegistry> reputation;
  std::unique_ptr<core::Mediator> mediator;
  ChaosObserver observer;
  model::ConsumerId consumer = 0;
  model::QueryId next_query_id = 1;
};

TEST(MediatorRecoveryTest, RetryRecoversFromMidFlightProviderLoss) {
  ChaosSystem sys(2);
  sys.registry.consumer(0).preferences().Set(0, 1.0);
  sys.registry.consumer(0).preferences().Set(1, 0.5);
  sys.registry.provider(0).preferences().Set(0, 1.0);
  sys.registry.provider(1).preferences().Set(0, 1.0);
  core::MediatorConfig config;
  config.max_retries = 2;
  config.retry_backoff_jitter = 0;  // exact backoff timing
  sys.Start(config);

  // Cost 2 on capacity 1: provider 0 would finish at t=2. At t=1 it goes
  // offline mid-flight, failing the pending instance with zero results.
  sys.mediator->SubmitQuery(sys.MakeQuery());
  sys.injector->Schedule(1.0, [&sys] {
    sys.mediator->SetProviderAvailability(0, false);
  });
  sys.simulation->RunUntil(20.0);

  ASSERT_EQ(sys.observer.outcomes.size(), 1u);
  const core::QueryOutcome& outcome = sys.observer.outcomes.front();
  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_EQ(outcome.results_received, 1);
  EXPECT_FALSE(outcome.timed_out);
  EXPECT_EQ(core::ClassifyOutcome(outcome), core::OutcomeKind::kRetried);
  // The re-mediation went to the untried provider.
  ASSERT_EQ(sys.observer.selections.size(), 2u);
  EXPECT_EQ(sys.observer.selections[0], std::vector<model::ProviderId>{0});
  EXPECT_EQ(sys.observer.selections[1], std::vector<model::ProviderId>{1});
  ASSERT_EQ(outcome.performers.size(), 1u);
  EXPECT_EQ(outcome.performers[0], 1);
  // Retry completed at flip(1.0) + backoff(0.05) + cost(2.0).
  EXPECT_NEAR(outcome.completed_at, 3.05, 1e-9);

  const core::MediatorStats& stats = sys.mediator->stats();
  EXPECT_EQ(stats.queries_finalized, 1);
  EXPECT_EQ(stats.queries_recovered, 1);
  EXPECT_EQ(stats.queries_satisfied, 0);
  EXPECT_EQ(stats.retry_attempts, 1);
  EXPECT_EQ(stats.instances_failed, 1);
  EXPECT_EQ(sys.mediator->inflight_count(), 0u);
}

TEST(MediatorRecoveryTest, ExhaustedRetryBudgetIsTerminalFailure) {
  rt::FaultPlan plan;
  plan.drop_send_prob = 1.0;  // no dispatch ever arrives
  ChaosSystem sys(1, plan);
  core::MediatorConfig config;
  config.query_timeout = 0.5;
  config.max_retries = 2;
  sys.Start(config);

  sys.mediator->SubmitQuery(sys.MakeQuery());
  sys.simulation->RunUntil(30.0);

  // Attempt 1 was dropped and timed out; attempts 2 and 3 found only the
  // already-tried provider and burned the budget to a terminal failure.
  ASSERT_EQ(sys.observer.outcomes.size(), 1u);
  const core::QueryOutcome& outcome = sys.observer.outcomes.front();
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_EQ(outcome.results_received, 0);
  EXPECT_FALSE(outcome.unallocated);
  EXPECT_EQ(core::ClassifyOutcome(outcome), core::OutcomeKind::kFailed);

  const core::MediatorStats& stats = sys.mediator->stats();
  EXPECT_EQ(stats.queries_finalized, 1);
  EXPECT_EQ(stats.queries_failed, 1);
  EXPECT_EQ(stats.retry_attempts, 2);
  EXPECT_EQ(stats.instances_abandoned, 1);
  EXPECT_EQ(stats.queries_timed_out, 0);  // retried attempts are not terminal
  EXPECT_EQ(sys.mediator->inflight_count(), 0u);
  EXPECT_EQ(sys.injector->stats().sends_seen, 1);
  EXPECT_EQ(sys.injector->stats().sends_dropped, 1);
}

TEST(MediatorRecoveryTest, LateResultFromAbandonedAttemptNeverDoubleFinalizes) {
  ChaosSystem sys(1);
  // A second, faster provider (capacity 2) for the retry to land on.
  core::ProviderParams fast;
  fast.capacity = 2.0;
  fast.policy_kind = model::ProviderPolicyKind::kPreferenceOnly;
  ASSERT_EQ(sys.registry.AddProvider(fast), 1);
  sys.reputation = std::make_unique<model::ReputationRegistry>(
      sys.registry.provider_count());
  sys.registry.consumer(0).preferences().Set(0, 1.0);
  sys.registry.consumer(0).preferences().Set(1, 0.5);
  sys.registry.provider(0).preferences().Set(0, 1.0);
  sys.registry.provider(1).preferences().Set(0, 1.0);
  core::MediatorConfig config;
  config.query_timeout = 1.0;
  config.max_retries = 1;
  config.retry_backoff_jitter = 0;
  sys.Start(config);

  // Cost 1.5 on capacity-1 provider 0: its result lands at t=1.5, but the
  // attempt times out at t=1 and re-mediates onto provider 1 (capacity 2,
  // done at 1.05 + 0.75 = 1.8) — so provider 0's ORIGINAL result arrives
  // at t=1.5 while the retried query is still live in the SAME in-flight
  // slot. It must be dropped, not treated as the retry attempt's result
  // (and never finalize the query twice).
  sys.mediator->SubmitQuery(sys.MakeQuery(/*n_results=*/1, /*cost=*/1.5));
  sys.simulation->RunUntil(30.0);

  ASSERT_EQ(sys.observer.outcomes.size(), 1u);
  const core::QueryOutcome& outcome = sys.observer.outcomes.front();
  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_EQ(outcome.results_received, 1);
  ASSERT_EQ(outcome.performers.size(), 1u);
  EXPECT_EQ(outcome.performers[0], 1);
  EXPECT_EQ(core::ClassifyOutcome(outcome), core::OutcomeKind::kRetried);
  // Retry finished at timeout(1.0) + backoff(0.05) + cost/capacity(0.75).
  EXPECT_NEAR(outcome.completed_at, 1.8, 1e-9);
  // Both providers did the work; only the live attempt's result counted.
  EXPECT_EQ(sys.mediator->stats().instances_completed, 2);
  EXPECT_EQ(sys.mediator->stats().queries_finalized, 1);
  EXPECT_EQ(sys.mediator->inflight_count(), 0u);
}

TEST(MediatorRecoveryTest, HealthDetectorSuspendsAndProbesBack) {
  rt::FaultPlan plan;
  plan.drop_send_prob = 1.0;  // the provider never responds
  ChaosSystem sys(1, plan);
  core::MediatorConfig config;
  config.query_timeout = 1.0;
  config.failure_threshold = 2;
  config.probe_delay = 5.0;
  sys.Start(config);

  // Two unresponsive queries trip the threshold; the third finds the
  // provider suspended; the fourth, after the probe, finds it back.
  sys.mediator->SubmitQuery(sys.MakeQuery());
  sys.mediator->SubmitQuery(sys.MakeQuery());
  sys.injector->Schedule(2.0, [&sys] {
    EXPECT_TRUE(sys.mediator->provider_suspected(0));
    EXPECT_FALSE(sys.registry.provider(0).alive());
    sys.mediator->SubmitQuery(sys.MakeQuery());
  });
  sys.injector->Schedule(8.0, [&sys] {
    EXPECT_FALSE(sys.mediator->provider_suspected(0));
    EXPECT_TRUE(sys.registry.provider(0).alive());
    sys.mediator->SubmitQuery(sys.MakeQuery());
  });
  sys.simulation->RunUntil(30.0);

  ASSERT_EQ(sys.observer.outcomes.size(), 4u);
  const core::MediatorStats& stats = sys.mediator->stats();
  EXPECT_EQ(stats.providers_suspected, 1);
  EXPECT_EQ(stats.providers_probed, 1);
  EXPECT_EQ(stats.queries_unallocated, 1);  // the one during suspension
  EXPECT_EQ(stats.queries_timed_out, 3);
  EXPECT_EQ(stats.queries_finalized, 4);
  EXPECT_EQ(sys.mediator->inflight_count(), 0u);
}

// --- Chaos end-to-end --------------------------------------------------------

/// FNV-folded per-shard allocation/outcome trace (same scheme as the
/// sharding determinism suite).
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
  }
  void OnQueryCompleted(const core::QueryOutcome& outcome) override {
    Mix(0x22);
    Mix(static_cast<uint64_t>(outcome.query.id));
    Mix(static_cast<uint64_t>(outcome.results_received));
    Mix(static_cast<uint64_t>(outcome.attempts));
    Mix(std::bit_cast<uint64_t>(outcome.satisfaction));
    Mix(std::bit_cast<uint64_t>(outcome.response_time));
  }
  void OnProviderDeparted(model::ProviderId provider, double now) override {
    Mix(0x33);
    Mix(static_cast<uint64_t>(static_cast<uint32_t>(provider)));
    Mix(std::bit_cast<uint64_t>(now));
  }
  uint64_t hash() const { return hash_; }

 private:
  void Mix(uint64_t v) { hash_ = (hash_ ^ v) * 1099511628211ull; }
  uint64_t hash_ = 14695981039346656037ull;
};

struct ShardTraces {
  std::vector<std::unique_ptr<TraceRecorder>> recorders;

  experiments::ScenarioConfig Attach(experiments::ScenarioConfig config) {
    recorders.clear();
    for (uint32_t s = 0; s < config.sim.shard_count; ++s) {
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

/// The acceptance chaos mix: ~10% provider crash downtime (mean 45s up,
/// 5s down), 5% dropped dispatches, a dash of delay and skew, with the
/// hardened lifecycle on (deadline, retries, health detection).
experiments::ScenarioConfig ChaosConfig(uint64_t seed, uint32_t shards,
                                        bool threads) {
  experiments::ScenarioConfig config = experiments::BaseDemoConfig(
      seed, /*volunteers=*/120, /*duration=*/60.0);
  config.sim.shard_count = shards;
  config.sim.shard_use_threads = threads;
  config.fault_plan.seed = 9;
  config.fault_plan.drop_send_prob = 0.05;
  config.fault_plan.delay_send_prob = 0.05;
  config.fault_plan.delay_mean = 0.1;
  config.fault_plan.latency_skew = 0.25;
  config.fault_plan.crash_rate = 1.0 / 45.0;
  config.fault_plan.mean_crash_duration = 5.0;
  config.query_deadline = 20.0;
  config.mediator.query_timeout = 5.0;
  config.mediator.max_retries = 2;
  config.mediator.failure_threshold = 3;
  config.mediator.probe_delay = 10.0;
  return config;
}

/// Every submitted query reached exactly one terminal outcome, and the
/// taxonomy partitions them.
void ExpectAllTerminal(const metrics::RunSummary& s) {
  EXPECT_GT(s.queries_submitted, 0);
  EXPECT_EQ(s.queries_submitted, s.queries_finalized);
  EXPECT_EQ(s.queries_satisfied + s.queries_recovered + s.queries_timed_out +
                s.queries_failed + s.queries_unallocated,
            s.queries_finalized);
}

TEST(ChaosScenarioTest, ChaosRunCompletesEveryQueryTerminally) {
  const experiments::RunResult result =
      experiments::RunScenario(ChaosConfig(/*seed=*/42, /*shards=*/1, false));
  ExpectAllTerminal(result.summary);
  // The fault plane was really in the path.
  EXPECT_GT(result.summary.fault_sends_dropped, 0);
  EXPECT_GT(result.summary.fault_sends_delayed, 0);
  EXPECT_GT(result.summary.fault_sends_crashed, 0);
}

TEST(ChaosScenarioTest, ChaosTraceIsBitReproduciblePerShardCount) {
  for (uint32_t shards : {1u, 2u, 4u}) {
    ShardTraces first_traces;
    const experiments::RunResult first = experiments::RunScenario(
        first_traces.Attach(ChaosConfig(/*seed=*/7, shards, true)));
    ShardTraces second_traces;
    const experiments::RunResult second = experiments::RunScenario(
        second_traces.Attach(ChaosConfig(/*seed=*/7, shards, true)));

    EXPECT_EQ(first_traces.hashes(), second_traces.hashes())
        << "shards=" << shards;
    EXPECT_EQ(first.summary.queries_finalized,
              second.summary.queries_finalized);
    EXPECT_EQ(std::bit_cast<uint64_t>(first.summary.consumer_satisfaction),
              std::bit_cast<uint64_t>(second.summary.consumer_satisfaction));
    ExpectAllTerminal(first.summary);
    ExpectAllTerminal(second.summary);
  }
}

TEST(ChaosScenarioTest, ChaosThreadedMatchesSerial) {
  ShardTraces threaded_traces;
  const experiments::RunResult threaded = experiments::RunScenario(
      threaded_traces.Attach(ChaosConfig(/*seed=*/11, /*shards=*/3, true)));
  ShardTraces serial_traces;
  const experiments::RunResult serial = experiments::RunScenario(
      serial_traces.Attach(ChaosConfig(/*seed=*/11, /*shards=*/3, false)));

  EXPECT_EQ(threaded_traces.hashes(), serial_traces.hashes());
  EXPECT_EQ(threaded.summary.queries_finalized,
            serial.summary.queries_finalized);
  ExpectAllTerminal(threaded.summary);
}

TEST(ChaosScenarioTest, ShardCountOneChaosMatchesClassicEngine) {
  // StreamSeed(seed, 0) == seed: the single-shard injector replays the
  // classic oracle's fault schedule exactly.
  TraceRecorder classic;
  experiments::ScenarioConfig legacy =
      ChaosConfig(/*seed=*/21, /*shards=*/1, false);
  legacy.observers.push_back(&classic);
  const experiments::RunResult legacy_result =
      oracle::RunClassicScenario(legacy);

  ShardTraces traces;
  const experiments::RunResult sharded_result =
      experiments::RunScenario(
          traces.Attach(ChaosConfig(/*seed=*/21, /*shards=*/1, false)));

  EXPECT_EQ(classic.hash(), traces.recorders[0]->hash());
  EXPECT_EQ(legacy_result.summary.queries_finalized,
            sharded_result.summary.queries_finalized);
  EXPECT_EQ(legacy_result.summary.retry_attempts,
            sharded_result.summary.retry_attempts);
  EXPECT_EQ(legacy_result.summary.fault_sends_dropped,
            sharded_result.summary.fault_sends_dropped);
  EXPECT_EQ(legacy_result.summary.fault_sends_crashed,
            sharded_result.summary.fault_sends_crashed);
  oracle::ExpectSameSeries(legacy_result.series, sharded_result.series);
}

TEST(ChaosScenarioTest, MediatorGroupsLoseNoQueryUnderFaults) {
  // Every group member's inbox (submissions and result fan-in) stays
  // lossless; only provider dispatches are faulted.
  for (const char* profile : {"drops", "crashes"}) {
    for (uint32_t shards : {1u, 2u}) {
      for (size_t group : {2u, 3u}) {
        experiments::ScenarioConfig config = experiments::BaseDemoConfig(
            /*seed=*/5, /*volunteers=*/120, /*duration=*/120.0);
        config.sim.shard_count = shards;
        config.sim.shard_use_threads = false;
        config.mediator_count = group;
        ASSERT_TRUE(rt::FaultProfileByName(profile, &config.fault_plan));
        config.mediator.max_retries = 2;
        config.query_deadline = 60.0;
        const experiments::RunResult result = experiments::RunScenario(config);
        SCOPED_TRACE(::testing::Message() << profile << " shards=" << shards
                                          << " group=" << group);
        ExpectAllTerminal(result.summary);
        EXPECT_GT(result.summary.fault_sends_dropped +
                      result.summary.fault_sends_crashed,
                  0);
      }
    }
  }
}

// --- Engine shedding ---------------------------------------------------------

EngineOptions SmallEngineOptions() {
  EngineOptions options;
  options.mode = EngineMode::kSimulated;
  options.seed = 4;
  options.simulate_network = false;
  return options;
}

void BuildSmallPopulation(Engine* engine, model::ConsumerId* consumer) {
  ConsumerOptions consumer_options;
  consumer_options.n_results = 1;
  *consumer = engine->AddConsumer(consumer_options);
  ProviderOptions provider_options;
  provider_options.capacity = 1.0;
  const model::ProviderId p = engine->AddProvider(provider_options);
  engine->SetConsumerPreference(*consumer, p, 1.0);
  engine->SetProviderPreference(p, *consumer, 1.0);
}

TEST(EngineSheddingTest, MaxPendingShedsNewestDeterministically) {
  EngineOptions options = SmallEngineOptions();
  options.max_pending = 4;
  Engine engine(std::move(options));
  model::ConsumerId consumer = 0;
  BuildSmallPopulation(&engine, &consumer);
  engine.Start();

  QueryRequest request;
  request.consumer = consumer;
  request.n_results = 1;
  request.cost = 0.5;

  std::vector<QueryResult> results;
  std::vector<uint64_t> tickets;
  for (int i = 0; i < 10; ++i) {
    tickets.push_back(engine.Submit(
        request, OutcomeCallback([&results](const QueryResult& r) {
          results.push_back(r);
        })));
  }
  // Admission is reject-newest and synchronous: the first four got
  // tickets, the last six were shed before any time passed.
  ASSERT_EQ(results.size(), 6u);
  for (int i = 0; i < 4; ++i) EXPECT_NE(tickets[static_cast<size_t>(i)], 0u);
  for (int i = 4; i < 10; ++i) EXPECT_EQ(tickets[static_cast<size_t>(i)], 0u);
  for (const QueryResult& r : results) {
    EXPECT_TRUE(r.shed);
    EXPECT_EQ(r.ticket, 0u);
    EXPECT_EQ(r.outcome, core::OutcomeKind::kShed);
    EXPECT_EQ(r.results_received, 0);
  }

  EXPECT_TRUE(engine.WaitIdle(60.0));
  ASSERT_EQ(results.size(), 10u);
  int satisfied = 0;
  for (const QueryResult& r : results) {
    if (r.outcome == core::OutcomeKind::kSatisfied) ++satisfied;
  }
  EXPECT_EQ(satisfied, 4);

  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_shed, 6);
  EXPECT_EQ(stats.queries_submitted, 4);
  EXPECT_EQ(stats.queries_finalized, 4);
  EXPECT_EQ(stats.queries_in_flight, 0);
}

TEST(EngineSheddingTest, WallClockSubmitQueueBoundSheds) {
  EngineOptions options;
  options.mode = EngineMode::kWallClock;
  options.seed = 4;
  options.wallclock.manual_clock = true;  // deterministic: no worker thread
  options.wallclock.max_queue = 2;
  Engine engine(std::move(options));
  model::ConsumerId consumer = 0;
  BuildSmallPopulation(&engine, &consumer);
  engine.Start();

  QueryRequest request;
  request.consumer = consumer;
  request.n_results = 1;
  request.cost = 0.001;

  int shed = 0, done = 0;
  std::vector<uint64_t> tickets;
  for (int i = 0; i < 5; ++i) {
    tickets.push_back(engine.Submit(
        request, OutcomeCallback([&shed, &done](const QueryResult& r) {
          r.shed ? ++shed : ++done;
        })));
  }
  // The bounded submit queue held two; the other three were shed at the
  // door with ticket 0.
  EXPECT_EQ(shed, 3);
  EXPECT_EQ(tickets[2], 0u);
  EXPECT_TRUE(engine.WaitIdle(10.0));
  EXPECT_EQ(done, 2);
  EXPECT_EQ(engine.Stats().queries_shed, 3);
  EXPECT_EQ(engine.Stats().queries_finalized, 2);
}

// --- Allocation gates --------------------------------------------------------

TEST(ChaosAllocationTest, RetryLadderIsAllocationFreeAtSteadyState) {
  rt::FaultPlan plan;
  plan.drop_send_prob = 1.0;  // every query burns the full retry ladder
  ChaosSystem sys(2, plan);
  core::MediatorConfig config;
  config.query_timeout = 0.5;
  config.max_retries = 2;
  sys.Start(config, /*observe=*/false);

  constexpr int kBatch = 25;
  auto run_batch = [&sys] {
    for (int i = 0; i < kBatch; ++i) {
      sys.mediator->SubmitQuery(sys.MakeQuery());
    }
    sys.simulation->RunUntil(sys.simulation->now() + 10.0);
  };
  run_batch();  // warm every pool (slots, ring, tried lists, scheduler)
  const int64_t warm_finalized = sys.mediator->stats().queries_finalized;
  ASSERT_EQ(warm_finalized, kBatch);

  const uint64_t before = util::AllocationCount();
  run_batch();
  EXPECT_EQ(util::AllocationCount() - before, 0u)
      << "retry/timeout path allocated";
  EXPECT_EQ(sys.mediator->stats().queries_finalized, 2 * kBatch);
  EXPECT_EQ(sys.mediator->stats().retry_attempts, 2 * 2 * kBatch);
  EXPECT_EQ(sys.mediator->inflight_count(), 0u);
}

TEST(ChaosAllocationTest, ShedPathIsAllocationFree) {
  EngineOptions options = SmallEngineOptions();
  options.max_pending = 1;
  Engine engine(std::move(options));
  model::ConsumerId consumer = 0;
  BuildSmallPopulation(&engine, &consumer);
  engine.Start();

  QueryRequest request;
  request.consumer = consumer;
  request.n_results = 1;
  request.cost = 0.5;

  int64_t shed = 0;
  auto shed_counter = [&shed](const QueryResult& r) {
    if (r.shed) ++shed;
  };
  // Fill the single admission slot, then warm the shed path.
  EXPECT_NE(engine.Submit(request, OutcomeCallback(shed_counter)), 0u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(engine.Submit(request, OutcomeCallback(shed_counter)), 0u);
  }

  const uint64_t before = util::AllocationCount();
  for (int i = 0; i < 200; ++i) {
    engine.Submit(request, OutcomeCallback(shed_counter));
  }
  EXPECT_EQ(util::AllocationCount() - before, 0u) << "shed path allocated";
  EXPECT_EQ(shed, 210);
  EXPECT_TRUE(engine.WaitIdle(60.0));
  EXPECT_EQ(engine.Stats().queries_shed, 210);
}

}  // namespace
}  // namespace sbqa
