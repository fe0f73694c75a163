// Tests for latency models, the network fabric and the simulation bundle.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "sim/latency.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace sbqa::sim {
namespace {

TEST(LatencyTest, ConstantAlwaysSame) {
  util::Rng rng(1);
  ConstantLatency model(0.05);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(model.Sample(rng), 0.05);
}

TEST(LatencyTest, UniformWithinBounds) {
  util::Rng rng(2);
  UniformLatency model(0.01, 0.03);
  for (int i = 0; i < 10000; ++i) {
    const double v = model.Sample(rng);
    EXPECT_GE(v, 0.01);
    EXPECT_LE(v, 0.03);
  }
}

TEST(LatencyTest, LogNormalMedianRoughlyCorrect) {
  util::Rng rng(3);
  LogNormalLatency model(0.020, 0.5);
  int below = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (model.Sample(rng) < 0.020) ++below;
  }
  EXPECT_NEAR(static_cast<double>(below) / n, 0.5, 0.02);
}

TEST(LatencyTest, LogNormalRespectsFloor) {
  util::Rng rng(4);
  LogNormalLatency model(0.010, 1.5, 0.005);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(model.Sample(rng), 0.005);
}

TEST(NetworkTest, DeliversAfterLatency) {
  Scheduler scheduler;
  Network net(&scheduler, util::Rng(5),
              std::make_unique<ConstantLatency>(0.1));
  double delivered_at = -1;
  net.Send([&] { delivered_at = scheduler.now(); });
  scheduler.Run();
  EXPECT_DOUBLE_EQ(delivered_at, 0.1);
}

TEST(NetworkTest, CountsMessagesAndLatency) {
  Scheduler scheduler;
  Network net(&scheduler, util::Rng(6),
              std::make_unique<ConstantLatency>(0.2));
  net.Send([] {});
  net.Send([] {});
  EXPECT_EQ(net.messages_sent(), 2u);
  EXPECT_DOUBLE_EQ(net.total_latency(), 0.4);
}

TEST(NetworkTest, ExplicitLatencyDelivery) {
  Scheduler scheduler;
  Network net(&scheduler, util::Rng(7),
              std::make_unique<ConstantLatency>(99.0));
  double delivered_at = -1;
  net.SendWithLatency(0.5, [&] { delivered_at = scheduler.now(); });
  scheduler.Run();
  EXPECT_DOUBLE_EQ(delivered_at, 0.5);
}

TEST(NetworkTest, CancellableDelivery) {
  Scheduler scheduler;
  Network net(&scheduler, util::Rng(8),
              std::make_unique<ConstantLatency>(0.1));
  bool delivered = false;
  const EventId id = net.Send([&] { delivered = true; });
  scheduler.Cancel(id);
  scheduler.Run();
  EXPECT_FALSE(delivered);
}

TEST(SimRuntimeTest, SendToDeliversAfterExactlyOneLatency) {
  // The runtime seam's addressed send is one Network::Send: one event per
  // message, at exactly its sampled latency, counted by the network.
  SimulationConfig config;
  config.latency_sigma = 0;  // constant latency
  config.latency_median = 0.25;
  Simulation sim(config);
  rt::Runtime& runtime = sim.runtime();
  const rt::Destination inbox = runtime.RegisterInbox();
  const rt::Destination provider = runtime.RegisterDestination();
  EXPECT_EQ(inbox, 0u);  // dense ids, in registration order
  EXPECT_EQ(provider, 1u);
  std::vector<double> delivered_at;
  runtime.SendTo(provider, [&] { delivered_at.push_back(sim.now()); });
  sim.RunUntil(0.1);
  runtime.SendTo(inbox, [&] { delivered_at.push_back(sim.now()); });
  EXPECT_EQ(sim.scheduler().pending(), 2u);
  sim.RunUntil(10.0);
  ASSERT_EQ(delivered_at.size(), 2u);
  EXPECT_DOUBLE_EQ(delivered_at[0], 0.25);
  EXPECT_DOUBLE_EQ(delivered_at[1], 0.35);
  EXPECT_EQ(sim.network().messages_sent(), 2u);
  EXPECT_DOUBLE_EQ(sim.network().total_latency(), 0.5);
}

TEST(SimulationTest, DeterministicAcrossInstances) {
  SimulationConfig config;
  config.seed = 123;
  Simulation a(config), b(config);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.rng().Next(), b.rng().Next());
    EXPECT_DOUBLE_EQ(a.network().SampleLatency(), b.network().SampleLatency());
  }
}

TEST(SimulationTest, NewRngStreamsAreIndependent) {
  Simulation sim;
  util::Rng r1 = sim.NewRng();
  util::Rng r2 = sim.NewRng();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (r1.Next() == r2.Next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(SimulationTest, ZeroSigmaGivesConstantLatency) {
  SimulationConfig config;
  config.latency_sigma = 0;
  config.latency_median = 0.042;
  Simulation sim(config);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(sim.network().SampleLatency(), 0.042);
  }
}

TEST(SimulationTest, RunUntilAdvancesClock) {
  Simulation sim;
  sim.RunUntil(12.5);
  EXPECT_DOUBLE_EQ(sim.now(), 12.5);
  sim.RunFor(2.5);
  EXPECT_DOUBLE_EQ(sim.now(), 15.0);
}

}  // namespace
}  // namespace sbqa::sim
