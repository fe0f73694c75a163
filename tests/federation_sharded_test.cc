// Scenario-level tests of cross-shard delegation — the one path a query
// takes when its origin shard's candidate pool is dry for its class:
//
//   1. delegation stats invariants: every delegated query is borrowed by
//      exactly one donor shard (mediated there or reported unallocated),
//      and every borrow is one hop, so mean_borrow_hops recomposes the
//      delegated count — with and without churn invalidating the
//      barrier-stale directory;
//   2. when every shard is dry for a class, nothing is delegated and every
//      starved query finalizes unallocated at home (terminal
//      completeness);
//   3. per-shard mediator groups (mediator_count > 1 with shard_count >
//      1) complete every query and reproduce run-over-run, threaded or
//      serial;
//   4. the 8-shard single-donor scarcity workload: scarce queries from
//      every shard reach the one donor shard, and every one of them is
//      served.

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "experiments/demo_scenarios.h"
#include "experiments/runner.h"
#include "util/string_util.h"

namespace sbqa::experiments {
namespace {

/// FNV-folded allocation trace, one recorder per shard (same scheme as
/// sharding_determinism_test.cc): colliding hashes mean the runs made
/// the same decisions in the same order.
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
    Mix(std::bit_cast<uint64_t>(outcome.satisfaction));
    Mix(static_cast<uint64_t>(outcome.hops));
  }

  uint64_t hash() const { return hash_; }

 private:
  void Mix(uint64_t v) { hash_ = (hash_ ^ v) * 1099511628211ull; }
  uint64_t hash_ = 14695981039346656037ull;
};

struct ShardTraces {
  std::vector<std::unique_ptr<TraceRecorder>> recorders;

  ScenarioConfig Attach(ScenarioConfig config) {
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

/// Starved sharded scenario: shard 1's whole provider block is restricted
/// to class 0, so project 1's queries (class 1) must borrow off-shard.
ScenarioConfig StarvedConfig(uint64_t seed, uint32_t shards, bool threads) {
  ScenarioConfig config = BaseDemoConfig(seed, /*volunteers=*/120,
                                         /*duration=*/90.0);
  config.sim.shard_count = shards;
  config.sim.shard_use_threads = threads;
  config.population_hook = [shards](core::Registry* registry,
                                    const boinc::BuiltPopulation& population,
                                    util::Rng*) {
    const size_t count = population.volunteers.size();
    const size_t block = (count + shards - 1) / shards;
    for (size_t i = block; i < std::min(count, 2 * block); ++i) {
      registry->provider(population.volunteers[i])
          .RestrictClasses({model::QueryClassId{0}});
    }
  };
  return config;
}

/// The counter reconciliation every drained sharded run must satisfy.
/// Every delegated query is borrowed by one donor, mediated there or
/// reported unallocated, and its outcome re-homes. A borrow is one hop,
/// so hop_weight = mean_borrow_hops * finalized counts the delegated
/// queries.
void ExpectDelegationStatsConsistent(const metrics::RunSummary& s) {
  EXPECT_EQ(s.queries_submitted, s.queries_finalized);
  EXPECT_EQ(s.queries_delegated, s.queries_borrowed);
  const double hop_weight =
      s.mean_borrow_hops * static_cast<double>(s.queries_finalized);
  EXPECT_EQ(std::llround(hop_weight), s.queries_delegated);
}

TEST(FederationShardedTest, DelegationStatsReconcile) {
  const RunResult starved =
      RunScenario(StarvedConfig(/*seed=*/21, /*shards=*/4, true));
  EXPECT_GT(starved.summary.queries_delegated, 0);
  ExpectDelegationStatsConsistent(starved.summary);

  // Churn keeps invalidating the barrier-stale directory, so some borrows
  // land on shards that went dry after the snapshot and must report
  // unallocated home. The invariants hold anyway, and the run reproduces.
  auto churn_config = [] {
    ScenarioConfig config = StarvedConfig(/*seed=*/33, /*shards=*/4, true);
    config.churn.enabled = true;
    config.churn.mean_online = 60;
    config.churn.mean_offline = 30;
    return config;
  };
  ShardTraces first;
  const RunResult churned = RunScenario(first.Attach(churn_config()));
  EXPECT_GT(churned.summary.queries_delegated, 0);
  ExpectDelegationStatsConsistent(churned.summary);
  ShardTraces second;
  RunScenario(second.Attach(churn_config()));
  EXPECT_EQ(first.hashes(), second.hashes());
}

TEST(FederationShardedTest, DelegationTerminatesWhenEveryShardIsDry) {
  // Restrict EVERY provider to class 0: classes 1 and 2 have no capacity
  // anywhere, so the directory reports no donor, nothing is delegated and
  // every starved query must finalize unallocated at home.
  ScenarioConfig config = StarvedConfig(/*seed=*/9, /*shards=*/4, true);
  config.population_hook = [](core::Registry* registry,
                              const boinc::BuiltPopulation& population,
                              util::Rng*) {
    for (model::ProviderId v : population.volunteers) {
      registry->provider(v).RestrictClasses({model::QueryClassId{0}});
    }
  };
  const RunResult result = RunScenario(std::move(config));

  const metrics::RunSummary& s = result.summary;
  EXPECT_EQ(s.queries_submitted, s.queries_finalized);
  EXPECT_GT(s.queries_unallocated, 0);
  EXPECT_EQ(s.queries_delegated, 0);
  EXPECT_EQ(s.queries_borrowed, 0);
  EXPECT_EQ(s.mean_borrow_hops, 0.0);
}

TEST(FederationShardedTest, MediatorGroupsPerShardCompleteAndReproduce) {
  // Two mediators per shard on four shards; delegated queries land on
  // each donor shard's gateway.
  auto group_config = [](bool threads) {
    ScenarioConfig config = StarvedConfig(/*seed=*/17, /*shards=*/4, threads);
    config.mediator_count = 2;
    return config;
  };

  ShardTraces first;
  const RunResult a = RunScenario(first.Attach(group_config(true)));
  EXPECT_GT(a.summary.queries_delegated, 0);
  ExpectDelegationStatsConsistent(a.summary);

  ShardTraces second;
  const RunResult b = RunScenario(second.Attach(group_config(true)));
  EXPECT_EQ(first.hashes(), second.hashes());
  EXPECT_EQ(a.summary.queries_finalized, b.summary.queries_finalized);

  ShardTraces serial;
  RunScenario(serial.Attach(group_config(false)));
  EXPECT_EQ(first.hashes(), serial.hashes());

  // A larger group on fewer shards completes too.
  ScenarioConfig wide = StarvedConfig(/*seed=*/17, /*shards=*/2, true);
  wide.mediator_count = 3;
  const RunResult c = RunScenario(wide);
  EXPECT_EQ(c.summary.queries_submitted, c.summary.queries_finalized);
}

// --- Single-donor scarcity ----------------------------------------------------

constexpr uint32_t kScarcityShards = 8;
constexpr uint32_t kDonorShard = 4;

/// Per-shard scarce-class counter. OnQueryCompleted fires on the query's
/// origin shard, so each instance is single-writer; totals are summed
/// after the run.
class ScarceClassCounter : public core::MediationObserver {
 public:
  void OnQueryCompleted(const core::QueryOutcome& outcome) override {
    if (outcome.query.query_class == model::QueryClassId{0}) return;
    ++finalized;
    if (outcome.results_received > 0) ++served;
  }
  int64_t finalized = 0;
  int64_t served = 0;
};

/// 240 volunteers over 8 shards and 9 projects. Project 0 (class 0) is
/// the abundant background every provider serves. Projects 1..8 are
/// scarce: every provider block except the donor shard's is restricted to
/// class 0. Consumers hash to shards by id, so the scarce projects
/// originate on every shard, above and below the donor.
ScenarioConfig ScarcityConfig(uint64_t seed, double duration) {
  ScenarioConfig config = BaseDemoConfig(seed, /*volunteers=*/240, duration);
  while (config.population.projects.size() < 9) {
    boinc::ProjectSpec extra = config.population.projects[1];
    extra.name =
        util::StrFormat("scarce-%zu", config.population.projects.size());
    config.population.projects.push_back(extra);
  }
  // 8 scarce projects x 0.125 q/s keep the ~30-provider donor block well
  // under saturation: the workload tests reach, not capacity.
  for (size_t i = 1; i < config.population.projects.size(); ++i) {
    config.population.projects[i].arrival_rate = 0.125;
  }
  config.sim.shard_count = kScarcityShards;
  config.sim.shard_use_threads = true;
  config.mediator.query_timeout = 60.0;  // bounds the drain horizon
  config.population_hook = [](core::Registry* registry,
                              const boinc::BuiltPopulation& population,
                              util::Rng*) {
    const size_t count = population.volunteers.size();
    const size_t block = (count + kScarcityShards - 1) / kScarcityShards;
    for (size_t i = 0; i < count; ++i) {
      if (i / block == kDonorShard) continue;
      registry->provider(population.volunteers[i])
          .RestrictClasses({model::QueryClassId{0}});
    }
  };
  return config;
}

TEST(FederationShardedTest, SingleDonorScarcityServesEveryScarceQuery) {
  ScenarioConfig config = ScarcityConfig(/*seed=*/42, /*duration=*/300.0);
  std::vector<std::unique_ptr<ScarceClassCounter>> counters;
  for (uint32_t s = 0; s < kScarcityShards; ++s) {
    counters.push_back(std::make_unique<ScarceClassCounter>());
  }
  config.shard_observer_factory = [&counters](uint32_t s) {
    return counters[s].get();
  };
  const RunResult result = RunScenario(config);

  int64_t scarce_finalized = 0;
  int64_t scarce_served = 0;
  for (const auto& counter : counters) {
    scarce_finalized += counter->finalized;
    scarce_served += counter->served;
  }
  const metrics::RunSummary& s = result.summary;
  EXPECT_GT(s.queries_delegated, 0);
  ExpectDelegationStatsConsistent(s);
  EXPECT_GT(scarce_finalized, 0);
  EXPECT_EQ(scarce_served, scarce_finalized);
}

}  // namespace
}  // namespace sbqa::experiments
