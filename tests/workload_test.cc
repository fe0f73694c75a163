// Tests for cost models and the Poisson query generators.

#include <memory>

#include <gtest/gtest.h>

#include "core/mediator.h"
#include "core/sbqa.h"
#include "model/reputation.h"
#include "sim/simulation.h"
#include "workload/cost_model.h"
#include "workload/generator.h"

namespace sbqa::workload {
namespace {

TEST(CostModelTest, ConstantAlwaysSame) {
  util::Rng rng(1);
  const CostModel model = CostModel::Constant(4.5);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(model.Sample(rng), 4.5);
}

TEST(CostModelTest, UniformWithinSpread) {
  util::Rng rng(2);
  const CostModel model = CostModel::Uniform(10.0, 0.5);
  for (int i = 0; i < 10000; ++i) {
    const double v = model.Sample(rng);
    EXPECT_GE(v, 5.0);
    EXPECT_LE(v, 15.0);
  }
}

TEST(CostModelTest, UniformMean) {
  util::Rng rng(3);
  const CostModel model = CostModel::Uniform(10.0, 0.3);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += model.Sample(rng);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(CostModelTest, LogNormalMeanAndPositivity) {
  util::Rng rng(4);
  const CostModel model = CostModel::LogNormal(5.0, 0.4);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = model.Sample(rng);
    EXPECT_GT(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(CostModelDeathTest, InvalidParamsAbort) {
  EXPECT_DEATH(CostModel::Constant(0.0), "CHECK failed");
  EXPECT_DEATH(CostModel::Uniform(1.0, 1.0), "CHECK failed");
}

TEST(QueryIdSourceTest, MonotoneIds) {
  QueryIdSource ids;
  EXPECT_EQ(ids.Next(), 1);
  EXPECT_EQ(ids.Next(), 2);
  EXPECT_EQ(ids.Next(), 3);
}

/// Minimal harness to count queries reaching the mediator.
struct GeneratorHarness {
  explicit GeneratorHarness(uint64_t seed = 5) {
    sim::SimulationConfig config;
    config.seed = seed;
    config.latency_median = 0;  // zero-latency hops
    config.latency_sigma = 0;
    simulation = std::make_unique<sim::Simulation>(config);
    core::ConsumerParams consumer_params;
    consumer_params.policy_kind = model::ConsumerPolicyKind::kPreferenceOnly;
    consumer = registry.AddConsumer(consumer_params);
    for (int i = 0; i < 20; ++i) {
      core::ProviderParams params;
      params.capacity = 5.0;
      params.policy_kind = model::ProviderPolicyKind::kPreferenceOnly;
      registry.AddProvider(params);
    }
    reputation = std::make_unique<model::ReputationRegistry>(
        registry.provider_count());
    mediator = std::make_unique<core::Mediator>(
        &simulation->runtime(), &registry, reputation.get(),
        std::make_unique<core::SbqaMethod>(core::SbqaParams{}));
  }

  std::unique_ptr<sim::Simulation> simulation;
  core::Registry registry;
  std::unique_ptr<model::ReputationRegistry> reputation;
  std::unique_ptr<core::Mediator> mediator;
  model::ConsumerId consumer = 0;
  QueryIdSource ids;
};

TEST(GeneratorTest, PoissonRateApproximatelyRespected) {
  GeneratorHarness h;
  ArrivalParams arrivals;
  arrivals.rate = 5.0;
  arrivals.end_time = 200.0;
  QueryGenerator gen(&h.simulation->runtime(), h.mediator.get(), &h.ids, h.consumer,
                     arrivals, CostModel::Constant(0.1));
  gen.Start();
  h.simulation->RunUntil(200.0);
  // 5 q/s for 200 s = 1000 expected; allow 4 sigma ≈ 126.
  EXPECT_NEAR(static_cast<double>(gen.issued()), 1000.0, 130.0);
  EXPECT_EQ(h.mediator->stats().queries_submitted, gen.issued());
}

TEST(GeneratorTest, StopsAtEndTime) {
  GeneratorHarness h;
  ArrivalParams arrivals;
  arrivals.rate = 10.0;
  arrivals.end_time = 10.0;
  QueryGenerator gen(&h.simulation->runtime(), h.mediator.get(), &h.ids, h.consumer,
                     arrivals, CostModel::Constant(0.1));
  gen.Start();
  h.simulation->RunUntil(100.0);
  const int64_t at_end = gen.issued();
  EXPECT_GT(at_end, 0);
  h.simulation->RunFor(100.0);
  EXPECT_EQ(gen.issued(), at_end);
}

TEST(GeneratorTest, StartTimeDelaysFirstQuery) {
  GeneratorHarness h;
  ArrivalParams arrivals;
  arrivals.rate = 50.0;
  arrivals.start_time = 10.0;
  arrivals.end_time = 11.0;
  QueryGenerator gen(&h.simulation->runtime(), h.mediator.get(), &h.ids, h.consumer,
                     arrivals, CostModel::Constant(0.1));
  gen.Start();
  h.simulation->RunUntil(9.9);
  EXPECT_EQ(gen.issued(), 0);
  h.simulation->RunUntil(20.0);
  EXPECT_GT(gen.issued(), 0);
}

TEST(GeneratorTest, InactiveConsumerStopsIssuing) {
  GeneratorHarness h;
  ArrivalParams arrivals;
  arrivals.rate = 10.0;
  arrivals.end_time = 1000.0;
  QueryGenerator gen(&h.simulation->runtime(), h.mediator.get(), &h.ids, h.consumer,
                     arrivals, CostModel::Constant(0.1));
  gen.Start();
  h.simulation->RunUntil(10.0);
  const int64_t before = gen.issued();
  EXPECT_GT(before, 0);
  h.registry.consumer(h.consumer).set_active(false);
  h.simulation->RunUntil(100.0);
  // One pending arrival may have been in flight; afterwards the stream dies.
  EXPECT_LE(gen.issued(), before + 1);
}

TEST(GeneratorTest, BurstFactorRaisesThroughput) {
  GeneratorHarness base(7), burst(7);
  ArrivalParams arrivals;
  arrivals.rate = 2.0;
  arrivals.end_time = 300.0;
  QueryGenerator gen_base(&base.simulation->runtime(), base.mediator.get(),
                          &base.ids, base.consumer, arrivals,
                          CostModel::Constant(0.1));
  ArrivalParams bursty = arrivals;
  bursty.burst_factor = 5.0;
  bursty.burst_period = 30.0;
  bursty.burst_duty = 0.5;
  QueryGenerator gen_burst(&burst.simulation->runtime(), burst.mediator.get(),
                           &burst.ids, burst.consumer, bursty,
                           CostModel::Constant(0.1));
  gen_base.Start();
  gen_burst.Start();
  base.simulation->RunUntil(300.0);
  burst.simulation->RunUntil(300.0);
  // Burst mode raises the average rate (here to ~3x the base).
  EXPECT_GT(gen_burst.issued(), gen_base.issued() * 2);
}

TEST(GeneratorDeathTest, InvalidRateAborts) {
  GeneratorHarness h;
  ArrivalParams arrivals;
  arrivals.rate = 0;
  EXPECT_DEATH(QueryGenerator(&h.simulation->runtime(), h.mediator.get(), &h.ids,
                              h.consumer, arrivals,
                              CostModel::Constant(1.0)),
               "CHECK failed");
}

}  // namespace
}  // namespace sbqa::workload
