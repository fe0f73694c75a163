// Tests for the ShardSet barrier driver and the deterministic cross-shard
// mailbox: window/barrier mechanics, fixed drain order, delivery-time
// clamping, threaded-vs-serial equivalence and the 1-shard passthrough
// (one window when nothing needs a barrier).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/shard_set.h"
#include "util/rng.h"

namespace sbqa::sim {
namespace {

SimulationConfig ShardConfig(uint32_t shards, bool threads,
                             double tick = 0.01) {
  SimulationConfig config;
  config.seed = 99;
  config.shard_count = shards;
  config.shard_use_threads = threads;
  config.shard_barrier_tick = tick;
  return config;
}

TEST(ShardSetTest, ShardSeedsFollowStreamSplit) {
  ShardSet shards(ShardConfig(3, /*threads=*/false));
  EXPECT_EQ(shards.shard(0).config().seed, 99u);
  EXPECT_EQ(shards.shard(1).config().seed, util::Rng::StreamSeed(99, 1));
  EXPECT_EQ(shards.shard(2).config().seed, util::Rng::StreamSeed(99, 2));
  EXPECT_NE(shards.shard(1).config().seed, shards.shard(2).config().seed);
}

TEST(ShardSetTest, RunUntilAdvancesEveryShardToBarrierTime) {
  ShardSet shards(ShardConfig(2, /*threads=*/false));
  shards.RunUntil(0.1);
  EXPECT_DOUBLE_EQ(shards.now(), 0.1);
  EXPECT_DOUBLE_EQ(shards.shard(0).now(), 0.1);
  EXPECT_DOUBLE_EQ(shards.shard(1).now(), 0.1);
  EXPECT_GE(shards.barriers(), 10u);
}

TEST(ShardSetTest, CrossShardMessageNotDeliveredBeforeBarrier) {
  ShardSet shards(ShardConfig(2, /*threads=*/false, /*tick=*/0.01));
  double delivered_time = -1;
  // Shard 0 posts at its window start; the message must only fire on
  // shard 1 after the barrier that drains it, never mid-window.
  shards.shard(0).scheduler().Schedule(0.0015, [&] {
    shards.PostTo(0, 1, /*deliver_at=*/0.002,
                  [&] { delivered_time = shards.shard(1).now(); });
  });
  shards.RunUntil(0.05);
  ASSERT_GE(delivered_time, 0.0);
  // Sent in window (0, 0.01]; drained at barrier 0.01; nominal delivery
  // time 0.002 clamps up to the barrier.
  EXPECT_DOUBLE_EQ(delivered_time, 0.01);
  EXPECT_EQ(shards.cross_shard_messages(), 1u);
}

TEST(ShardSetTest, LateDeliveryTimeIsHonored) {
  ShardSet shards(ShardConfig(2, /*threads=*/false, /*tick=*/0.01));
  double delivered_time = -1;
  shards.shard(0).scheduler().Schedule(0.001, [&] {
    shards.PostTo(0, 1, /*deliver_at=*/0.035,
                  [&] { delivered_time = shards.shard(1).now(); });
  });
  shards.RunUntil(0.06);
  // Drained at the 0.01 barrier but scheduled for its nominal 0.035.
  EXPECT_DOUBLE_EQ(delivered_time, 0.035);
}

TEST(ShardSetTest, DrainOrderIsDestinationThenSourceThenFifo) {
  ShardSet shards(ShardConfig(3, /*threads=*/false, /*tick=*/0.01));
  std::vector<std::string> order;
  // All messages land at the same clamped time (the barrier), so the
  // scheduler's FIFO tie-break exposes the drain order: for destination 2,
  // source 0's messages precede source 1's, in per-source posting order.
  shards.shard(1).scheduler().Schedule(0.001, [&] {
    shards.PostTo(1, 2, 0.001, [&] { order.push_back("s1-a"); });
    shards.PostTo(1, 2, 0.001, [&] { order.push_back("s1-b"); });
  });
  shards.shard(0).scheduler().Schedule(0.002, [&] {
    shards.PostTo(0, 2, 0.001, [&] { order.push_back("s0-a"); });
  });
  shards.RunUntil(0.03);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "s0-a");
  EXPECT_EQ(order[1], "s1-a");
  EXPECT_EQ(order[2], "s1-b");
}

TEST(ShardSetTest, FinalBarrierMessagesSettleBeforeRunUntilReturns) {
  // A message posted during the LAST window (clamped to the final
  // barrier) must still execute before RunUntil returns — including a
  // chained reply it triggers — matching Scheduler::RunUntil's "no event
  // with timestamp <= t left unrun" contract. This is the path a
  // borrowed query's homeward outcome takes when it finalizes during the
  // drain horizon's final window.
  ShardSet shards(ShardConfig(2, /*threads=*/false, /*tick=*/0.01));
  bool delivered = false;
  bool reply_delivered = false;
  shards.shard(0).scheduler().Schedule(0.015, [&] {
    shards.PostTo(0, 1, /*deliver_at=*/0.016, [&] {
      delivered = true;
      // Chained settlement: the handler posts back at the horizon.
      shards.PostTo(1, 0, /*deliver_at=*/0.016,
                    [&] { reply_delivered = true; });
    });
  });
  shards.RunUntil(0.02);
  EXPECT_TRUE(delivered);
  EXPECT_TRUE(reply_delivered);
  EXPECT_DOUBLE_EQ(shards.now(), 0.02);
}

TEST(ShardSetTest, BarrierHooksRunAtEveryBarrier) {
  ShardSet shards(ShardConfig(2, /*threads=*/false, /*tick=*/0.01));
  std::vector<double> hook_times;
  shards.AddBarrierHook([&](double now) { hook_times.push_back(now); });
  shards.RunUntil(0.05);
  ASSERT_EQ(hook_times.size(), shards.barriers());
  EXPECT_DOUBLE_EQ(hook_times.back(), 0.05);
}

TEST(ShardSetTest, MembershipPhaseRunsAfterDrainBeforeHooks) {
  ShardSet shards(ShardConfig(2, /*threads=*/false, /*tick=*/0.01));
  std::vector<std::string> order;
  shards.shard(0).scheduler().Schedule(0.001, [&] {
    shards.PostTo(0, 1, 0.001, [&] { order.push_back("message"); });
  });
  shards.SetMembershipHook([&](double) { order.push_back("membership"); });
  shards.AddBarrierHook([&](double) { order.push_back("hook"); });
  shards.RunUntil(0.01);
  // At the first (and only) barrier: membership before hook, both after
  // the mailbox drain; the clamped message itself settles before
  // RunUntil returns.
  ASSERT_GE(order.size(), 3u);
  EXPECT_NE(std::find(order.begin(), order.end(), std::string("message")),
            order.end());
  const auto membership_at =
      std::find(order.begin(), order.end(), std::string("membership"));
  const auto hook_at = std::find(order.begin(), order.end(),
                                 std::string("hook"));
  ASSERT_NE(membership_at, order.end());
  ASSERT_NE(hook_at, order.end());
  EXPECT_LT(membership_at - order.begin(), hook_at - order.begin());
}

TEST(ShardSetTest, MembershipPhaseMessagesSettleAtTheHorizon) {
  // A membership application at the FINAL barrier may post cross-shard
  // messages (a departing provider's borrowed-query outcome routed home);
  // they must still be drained and executed before RunUntil returns.
  ShardSet shards(ShardConfig(2, /*threads=*/false, /*tick=*/0.01));
  bool posted = false;
  bool delivered = false;
  shards.SetMembershipHook([&](double now) {
    if (!posted && now >= 0.02) {  // the final barrier of RunUntil(0.02)
      posted = true;
      shards.PostTo(0, 1, now, [&] { delivered = true; });
    }
  });
  shards.RunUntil(0.02);
  EXPECT_TRUE(posted);
  EXPECT_TRUE(delivered);
  EXPECT_DOUBLE_EQ(shards.now(), 0.02);
}

TEST(ShardSetTest, SingleShardMatchesStandaloneSimulation) {
  // The 1-shard ShardSet must reproduce a standalone Simulation exactly:
  // StreamSeed(seed, 0) == seed, so shard 0 carries the root stream.
  SimulationConfig config;
  config.seed = 1234;
  Simulation standalone(config);

  config.shard_count = 1;
  ShardSet shards(config);
  EXPECT_FALSE(shards.threaded());  // nothing to parallelize
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(shards.shard(0).rng()(), standalone.rng()());
  }
}

/// A self-rescheduling event chain whose trace folds every firing time
/// and RNG draw — the same on any driver that runs the same events.
struct ChainTrace {
  Simulation* sim = nullptr;
  uint64_t hash = 14695981039346656037ull;
  int fired = 0;
  void Tick() {
    hash = (hash ^ std::bit_cast<uint64_t>(sim->now())) * 1099511628211ull;
    hash = (hash ^ sim->rng()()) * 1099511628211ull;
    ++fired;
    if (sim->now() < 3.0) {
      sim->scheduler().Schedule(0.0037 * (1 + fired % 5), [this] { Tick(); });
    }
  }
};

TEST(ShardSetTest, LoneShardWithoutHooksRunsOneWindow) {
  // No mailbox, no membership phase, no hook: nothing to synchronize, so
  // RunUntil(t) is one window and exactly Simulation::RunUntil(t).
  SimulationConfig config;
  config.seed = 77;
  Simulation standalone(config);
  ChainTrace reference{&standalone};
  standalone.scheduler().Schedule(0.001, [&reference] { reference.Tick(); });
  standalone.RunUntil(4.0);

  config.shard_count = 1;
  config.shard_barrier_tick = 0.005;
  ShardSet shards(config);
  ChainTrace trace{&shards.shard(0)};
  shards.shard(0).scheduler().Schedule(0.001, [&trace] { trace.Tick(); });
  shards.RunUntil(4.0);

  EXPECT_EQ(shards.barriers(), 1u);
  EXPECT_GT(trace.fired, 100);
  EXPECT_EQ(trace.fired, reference.fired);
  EXPECT_EQ(trace.hash, reference.hash);
  EXPECT_EQ(shards.now(), 4.0);
  EXPECT_EQ(shards.shard(0).now(), standalone.now());

  // A hook brings the barrier windows back.
  ShardSet hooked(config);
  int hook_runs = 0;
  hooked.AddBarrierHook([&hook_runs](Time) { ++hook_runs; });
  hooked.RunUntil(0.1);
  EXPECT_GE(hooked.barriers(), 20u);
  EXPECT_EQ(hook_runs, static_cast<int>(hooked.barriers()));
}

// One synthetic workload, run twice (serial vs threads): each shard
// repeatedly samples its own RNG, posts the draw to the next shard, and
// folds received draws into a running hash. Identical hashes across modes
// prove the protocol sequences cross-shard effects identically no matter
// how the OS schedules the workers.
uint64_t RunPingWorkload(bool threads) {
  ShardSet shards(ShardConfig(4, threads, /*tick=*/0.01));
  std::vector<uint64_t> hashes(4, 0);
  struct Pinger {
    ShardSet* shards;
    std::vector<uint64_t>* hashes;
    uint32_t shard;
    void Tick() {
      Simulation& sim = shards->shard(shard);
      const uint64_t draw = sim.rng()();
      const uint32_t next = (shard + 1) % shards->shard_count();
      auto* h = hashes;
      const uint32_t target = next;
      shards->PostTo(shard, next, sim.now() + 0.003,
                     [h, target, draw] {
                       (*h)[target] = (*h)[target] * 1099511628211ull ^ draw;
                     });
      if (sim.now() < 0.5) {
        sim.scheduler().Schedule(0.007, [this] { Tick(); });
      }
    }
  };
  std::vector<Pinger> pingers;
  for (uint32_t s = 0; s < 4; ++s) {
    pingers.push_back(Pinger{&shards, &hashes, s});
  }
  for (uint32_t s = 0; s < 4; ++s) {
    shards.shard(s).scheduler().Schedule(0.001,
                                         [&pingers, s] { pingers[s].Tick(); });
  }
  shards.RunUntil(1.0);
  uint64_t combined = 0;
  for (uint64_t h : hashes) combined = combined * 1099511628211ull ^ h;
  return combined;
}

TEST(ShardSetTest, ThreadedAndSerialProduceIdenticalTraces) {
  const uint64_t serial = RunPingWorkload(/*threads=*/false);
  const uint64_t threaded = RunPingWorkload(/*threads=*/true);
  EXPECT_EQ(serial, threaded);
  // And reproducible run to run.
  EXPECT_EQ(RunPingWorkload(/*threads=*/true), threaded);
}

}  // namespace
}  // namespace sbqa::sim
