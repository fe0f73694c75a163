// Tests for the experiment harness: method factory, scenario configs,
// runner determinism and the report builders.

#include <gtest/gtest.h>

#include "experiments/demo_scenarios.h"
#include "experiments/report.h"
#include "experiments/runner.h"
#include "runtime/fault.h"

namespace sbqa::experiments {
namespace {

TEST(MethodFactoryTest, NamesAreStable) {
  EXPECT_EQ(MethodName(MethodSpec::Random()), "Random");
  EXPECT_EQ(MethodName(MethodSpec::RoundRobin()), "RoundRobin");
  EXPECT_EQ(MethodName(MethodSpec::Capacity()), "Capacity");
  EXPECT_EQ(MethodName(MethodSpec::Qlb()), "QLB");
  EXPECT_EQ(MethodName(MethodSpec::Economic()), "Economic");
  EXPECT_EQ(MethodName(MethodSpec::KnBest()), "KnBest");
  EXPECT_EQ(MethodName(MethodSpec::InterestOnly()), "InterestOnly");
  EXPECT_EQ(MethodName(MethodSpec::Sqlb()), "SQLB");
  EXPECT_EQ(MethodName(MethodSpec::Sbqa()), "SbQA");
}

TEST(MethodFactoryTest, SqlbConsultsEveryone) {
  MethodSpec spec = MethodSpec::Sqlb();
  auto method = MakeMethod(spec);
  auto* sbqa = dynamic_cast<core::SbqaMethod*>(method.get());
  ASSERT_NE(sbqa, nullptr);
  EXPECT_EQ(sbqa->params().knbest.k_candidates, 0u);
  EXPECT_EQ(sbqa->params().knbest.kn_best, 0u);
}

TEST(ScenarioConfigTest, CaptiveVsAutonomous) {
  const ScenarioConfig s1 = Scenario1Config();
  EXPECT_FALSE(s1.departure.providers_can_leave);
  EXPECT_FALSE(s1.departure.consumers_can_leave);
  const ScenarioConfig s2 = Scenario2Config();
  EXPECT_TRUE(s2.departure.providers_can_leave);
  EXPECT_TRUE(s2.departure.consumers_can_leave);
  EXPECT_DOUBLE_EQ(s2.departure.provider_threshold, 0.35);  // paper values
  EXPECT_DOUBLE_EQ(s2.departure.consumer_threshold, 0.5);
}

TEST(ScenarioConfigTest, Scenario5SwapsPolicies) {
  const ScenarioConfig s5 = Scenario5Config();
  for (const auto& project : s5.population.projects) {
    EXPECT_EQ(project.policy, model::ConsumerPolicyKind::kResponseTimeOnly);
  }
  EXPECT_EQ(s5.population.volunteers.policy,
            model::ProviderPolicyKind::kLoadOnly);
}

TEST(ScenarioConfigTest, Scenario6GridComputing) {
  const ScenarioConfig s6 = Scenario6Config();
  EXPECT_TRUE(s6.departure.providers_can_leave);
  EXPECT_FALSE(s6.departure.consumers_can_leave);
}

TEST(ScenarioConfigTest, Scenario7HasGuestParticipants) {
  const ScenarioConfig s7 = Scenario7Config();
  EXPECT_EQ(s7.population.projects.size(), 4u);  // 3 demo + guest
  EXPECT_EQ(s7.population.projects.back().name, "guest-project");
  EXPECT_TRUE(static_cast<bool>(s7.population_hook));
}

TEST(ScenarioConfigTest, MethodListsWellFormed) {
  EXPECT_EQ(BaselineMethods().size(), 2u);
  EXPECT_EQ(HeadlineMethods().size(), 3u);
  EXPECT_GE(AllMethods().size(), 8u);
}

ScenarioConfig SmallConfig(uint64_t seed = 123) {
  // A fast config for unit testing: 40 volunteers, short run.
  ScenarioConfig config = BaseDemoConfig(seed, /*volunteers=*/40,
                                         /*duration=*/60.0);
  config.sample_interval = 10.0;
  return config;
}

TEST(RunnerTest, ProducesPopulatedResult) {
  const RunResult result = RunScenario(SmallConfig());
  EXPECT_GT(result.summary.queries_finalized, 50);
  EXPECT_GT(result.summary.throughput, 0.0);
  EXPECT_EQ(result.consumers.size(), 3u);
  EXPECT_EQ(result.providers.size(), 40u);
  EXPECT_FALSE(result.series.consumer_satisfaction.empty());
  EXPECT_EQ(result.summary.method, "SbQA");
  // Everything bounded.
  EXPECT_GE(result.summary.consumer_satisfaction, 0.0);
  EXPECT_LE(result.summary.consumer_satisfaction, 1.0);
  EXPECT_GE(result.summary.provider_satisfaction, 0.0);
  EXPECT_LE(result.summary.provider_satisfaction, 1.0);
}

TEST(RunnerTest, DeterministicForFixedSeed) {
  const RunResult a = RunScenario(SmallConfig(77));
  const RunResult b = RunScenario(SmallConfig(77));
  EXPECT_EQ(a.summary.queries_finalized, b.summary.queries_finalized);
  EXPECT_DOUBLE_EQ(a.summary.consumer_satisfaction,
                   b.summary.consumer_satisfaction);
  EXPECT_DOUBLE_EQ(a.summary.provider_satisfaction,
                   b.summary.provider_satisfaction);
  EXPECT_DOUBLE_EQ(a.summary.mean_response_time, b.summary.mean_response_time);
}

TEST(RunnerTest, DifferentSeedsDiffer) {
  const RunResult a = RunScenario(SmallConfig(1));
  const RunResult b = RunScenario(SmallConfig(2));
  // Not bit-identical (astronomically unlikely under different seeds).
  EXPECT_NE(a.summary.mean_response_time, b.summary.mean_response_time);
}

TEST(RunnerTest, CompareMethodsHoldsPopulationFixed) {
  const std::vector<RunResult> results =
      CompareMethods(SmallConfig(), {MethodSpec::Capacity(),
                                     MethodSpec::Random()});
  ASSERT_EQ(results.size(), 2u);
  // Same seed => identical workloads submitted.
  EXPECT_EQ(results[0].summary.queries_submitted,
            results[1].summary.queries_submitted);
  EXPECT_EQ(results[0].summary.method, "Capacity");
  EXPECT_EQ(results[1].summary.method, "Random");
}

TEST(RunnerTest, AllMethodsRunCleanly) {
  ScenarioConfig config = SmallConfig();
  config.duration = 30.0;
  for (const MethodSpec& spec : AllMethods()) {
    const RunResult result = RunScenario([&] {
      ScenarioConfig c = config;
      c.method = spec;
      return c;
    }());
    EXPECT_GT(result.summary.queries_finalized, 0)
        << result.summary.method;
    EXPECT_EQ(result.summary.queries_finalized,
              result.summary.queries_submitted)
        << result.summary.method << " left queries unfinalized";
  }
}

TEST(RunnerTest, DrainFinalizesQueriesDispatchedNearTheHorizon) {
  // sbqa_cli --seed=872788 --volunteers=200 --duration=200 --mediators=1
  // --method=economic --env=autonomous --fault-profile=crashes
  // --max-retries=0 --deadline-ms=0 --joins. A query issued near the
  // horizon arms its query_timeout only at dispatch, after the submission
  // hop; when a crash window eats an instance it times out past
  // duration + query_timeout. The drain must still finalize it.
  for (const uint32_t shards : {1u, 2u}) {
    ScenarioConfig config = WithAutonomousEnvironment(
        BaseDemoConfig(872788, /*volunteers=*/200, /*duration=*/200.0));
    config.sim.shard_count = shards;
    config.method = MethodSpec::Economic();
    config.joins.enabled = true;
    config.joins.rate = 0.05;
    config.joins.max_joins = 200;
    config.fault_plan.seed = 1;
    ASSERT_TRUE(rt::FaultProfileByName("crashes", &config.fault_plan));
    const RunResult result = RunScenario(config);
    EXPECT_GT(result.summary.queries_timed_out, 0) << shards << " shard(s)";
    EXPECT_EQ(result.summary.queries_finalized,
              result.summary.queries_submitted)
        << shards << " shard(s)";
  }
}

TEST(ReportTest, TablesHaveOneRowPerResult) {
  const std::vector<RunResult> results =
      CompareMethods(SmallConfig(), BaselineMethods());
  EXPECT_EQ(SatisfactionTable(results).row_count(), 2u);
  EXPECT_EQ(PerformanceTable(results).row_count(), 2u);
  EXPECT_EQ(RetentionTable(results).row_count(), 2u);
  EXPECT_EQ(LoadBalanceTable(results).row_count(), 2u);
  EXPECT_EQ(OverviewTable(results).row_count(), 2u);
}

TEST(ReportTest, TablesMentionMethodNames) {
  const std::vector<RunResult> results =
      CompareMethods(SmallConfig(), {MethodSpec::Capacity()});
  const std::string table = OverviewTable(results).ToString();
  EXPECT_NE(table.find("Capacity"), std::string::npos);
}

TEST(ReportTest, SeriesChartRendersAllMethods) {
  const std::vector<RunResult> results =
      CompareMethods(SmallConfig(), BaselineMethods());
  const std::string chart =
      SeriesChart(results, ProviderSatisfactionSeries, "test-title");
  EXPECT_NE(chart.find("test-title"), std::string::npos);
  EXPECT_NE(chart.find("Capacity"), std::string::npos);
  EXPECT_NE(chart.find("Economic"), std::string::npos);
}

}  // namespace
}  // namespace sbqa::experiments
