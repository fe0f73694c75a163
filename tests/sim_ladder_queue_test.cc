// Differential tests of the unified timer core's two queue kinds — the
// acceptance gate of the ladder-queue tentpole:
//
//   1. raw structures: LadderQueue and TimerCore::EventHeap pop the exact
//      same (when, key) sequence under fuzzed workload shapes (uniform
//      horizons, bimodal short/long timers like the serving path's
//      completion + timeout mix, heavy same-timestamp ties, burst/drain
//      cycles);
//   2. TimerCore: identical Schedule/Cancel/PopDue sequences fire the
//      same callbacks at the same times under both kinds, including lazy
//      cancellation and slot reuse;
//   3. sim::Scheduler: fuzzed Schedule/ScheduleAt/Cancel/RunUntil traces
//      are identical, including callbacks that reschedule;
//   4. golden-seed scenarios: full sharded demo runs under
//      scheduler_kind = kHeap vs kLadder produce bit-identical summaries
//      at every shard count.
//
// Everything is seeded (util::Rng) — a failure reproduces exactly.

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "experiments/demo_scenarios.h"
#include "experiments/runner.h"
#include "sim/scheduler.h"
#include "util/ladder_queue.h"
#include "util/rng.h"
#include "util/timer_core.h"

namespace sbqa {
namespace {

using util::LadderQueue;
using util::TimerCore;
using util::TimerQueueKind;

// ---------------------------------------------------------------------------
// 1. Raw structures: LadderQueue vs the 4-ary EventHeap.
// ---------------------------------------------------------------------------

/// Drives both raw structures through the same scheduler-shaped workload
/// (pushes never travel into the past) and asserts bit-identical pop
/// sequences. `next_delay(rng)` shapes the horizon distribution.
template <typename DelayFn>
void RawDifferential(uint64_t seed, int rounds, DelayFn&& next_delay) {
  LadderQueue ladder;
  TimerCore::EventHeap heap;
  util::Rng rng(seed);
  uint64_t key = 1;
  double now = 0;
  size_t pending = 0;

  for (int round = 0; round < rounds; ++round) {
    const int pushes = static_cast<int>(rng.Next() % 97);
    for (int i = 0; i < pushes; ++i) {
      const double when = now + next_delay(rng);
      ladder.Push(when, key);
      heap.push(LadderQueue::Entry{when, key});
      ++key;
      ++pending;
    }
    // Drain a random fraction; every few rounds drain fully so deep rungs
    // and the Top transfer both get exercised.
    size_t pops = round % 7 == 6 ? pending : rng.Next() % (pending + 1);
    for (; pops > 0; --pops) {
      const LadderQueue::Entry* front = ladder.Front();
      ASSERT_NE(front, nullptr);
      ASSERT_FALSE(heap.empty());
      const LadderQueue::Entry expect = heap.top();
      ASSERT_EQ(std::bit_cast<uint64_t>(front->when),
                std::bit_cast<uint64_t>(expect.when));
      ASSERT_EQ(front->key, expect.key);
      ASSERT_GE(front->when, now);  // pop order is monotone
      now = front->when;
      ladder.PopFront();
      heap.pop();
      --pending;
    }
    ASSERT_EQ(ladder.size(), pending);
    ASSERT_EQ(heap.size(), pending);
  }
}

TEST(LadderQueueDifferentialTest, UniformHorizons) {
  RawDifferential(/*seed=*/1, /*rounds=*/400,
                  [](util::Rng& rng) { return rng.Uniform(0.0, 10.0); });
}

TEST(LadderQueueDifferentialTest, BimodalServeMix) {
  // The wall-clock serving shape: mostly sub-millisecond completions with
  // a tail of quarter-second timeouts — exactly the distribution that
  // clusters entries into narrow bucket spans.
  RawDifferential(/*seed=*/2, /*rounds=*/400, [](util::Rng& rng) {
    return rng.Bernoulli(0.9) ? rng.Uniform(0.0, 0.001) : 0.25;
  });
}

TEST(LadderQueueDifferentialTest, HeavyTimestampTies) {
  // Quantized delays produce many exact-duplicate whens: order inside a
  // tie must come from the key alone, under both kinds.
  RawDifferential(/*seed=*/3, /*rounds=*/400, [](util::Rng& rng) {
    return 0.001 * static_cast<double>(rng.Next() % 8);
  });
}

TEST(LadderQueueDifferentialTest, ExponentialBursts) {
  RawDifferential(/*seed=*/4, /*rounds=*/400,
                  [](util::Rng& rng) { return rng.Exponential(50.0); });
}

TEST(LadderQueueDifferentialTest, ReserveDoesNotChangeOrder) {
  LadderQueue plain;
  LadderQueue reserved;
  reserved.Reserve(4096);
  util::Rng rng(5);
  uint64_t key = 1;
  for (int i = 0; i < 5000; ++i) {
    const double when = rng.Uniform(0.0, 100.0);
    plain.Push(when, key);
    reserved.Push(when, key);
    ++key;
  }
  while (const LadderQueue::Entry* a = plain.Front()) {
    const LadderQueue::Entry* b = reserved.Front();
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(a->key, b->key);
    ASSERT_EQ(std::bit_cast<uint64_t>(a->when),
              std::bit_cast<uint64_t>(b->when));
    plain.PopFront();
    reserved.PopFront();
  }
  EXPECT_TRUE(reserved.empty());
}

// ---------------------------------------------------------------------------
// 2. TimerCore: identical op sequences under both kinds.
// ---------------------------------------------------------------------------

TEST(TimerCoreDifferentialTest, ScheduleCancelPopDue) {
  TimerCore ladder(TimerQueueKind::kLadder);
  TimerCore heap(TimerQueueKind::kHeap);
  util::Rng rng(11);

  std::vector<uint64_t> ladder_fired;
  std::vector<uint64_t> heap_fired;
  // Parallel handle lists: index i in both vectors is the same logical
  // timer, so one cancellation decision applies to both cores.
  std::vector<TimerCore::Handle> ladder_handles;
  std::vector<TimerCore::Handle> heap_handles;

  double now = 0;
  uint64_t next_id = 1;
  for (int round = 0; round < 300; ++round) {
    const int schedules = static_cast<int>(rng.Next() % 23);
    for (int i = 0; i < schedules; ++i) {
      const double when =
          now + (rng.Bernoulli(0.8) ? rng.Uniform(0.0, 0.01) : 0.5);
      const uint64_t id = next_id++;
      ladder_handles.push_back(
          ladder.Schedule(when, [&ladder_fired, id] {
            ladder_fired.push_back(id);
          }));
      heap_handles.push_back(heap.Schedule(when, [&heap_fired, id] {
        heap_fired.push_back(id);
      }));
    }
    // Cancel a random sample (some already fired — both cores must agree
    // the handle is stale).
    const int cancels = static_cast<int>(rng.Next() % 5);
    for (int i = 0; i < cancels && !ladder_handles.empty(); ++i) {
      const size_t pick = rng.Next() % ladder_handles.size();
      ASSERT_EQ(ladder.Cancel(ladder_handles[pick]),
                heap.Cancel(heap_handles[pick]));
    }
    now += rng.Uniform(0.0, 0.02);
    util::EventFn fn;
    double lw = 0;
    double hw = 0;
    while (ladder.PopDue(now, &fn, &lw)) {
      fn();
      util::EventFn hfn;
      ASSERT_TRUE(heap.PopDue(now, &hfn, &hw));
      hfn();
      ASSERT_EQ(std::bit_cast<uint64_t>(lw), std::bit_cast<uint64_t>(hw));
    }
    ASSERT_FALSE(heap.PopDue(now, &fn, &hw));
    ASSERT_EQ(ladder.pending(), heap.pending());
  }
  EXPECT_EQ(ladder_fired, heap_fired);
  EXPECT_GT(ladder_fired.size(), 1000u);
}

// ---------------------------------------------------------------------------
// 3. sim::Scheduler: fuzzed traces, including rescheduling callbacks.
// ---------------------------------------------------------------------------

/// One scheduler under fuzz: records (id, fire time) pairs; every k-th
/// callback chains a follow-up event from a pre-generated delay table so
/// both kinds replay the identical self-scheduling pattern.
struct FuzzDriver {
  explicit FuzzDriver(sim::SchedulerKind kind) : scheduler(kind) {}

  void Chain(uint64_t id, const std::vector<double>* delays) {
    fired.push_back(id);
    times.push_back(scheduler.now());
    if (id % 5 == 0 && chain_cursor < delays->size()) {
      const double delay = (*delays)[chain_cursor++];
      const uint64_t child = id * 1000003u;
      scheduler.Schedule(delay, [this, child, delays] {
        Chain(child, delays);
      });
    }
  }

  sim::Scheduler scheduler;
  std::vector<uint64_t> fired;
  std::vector<double> times;
  size_t chain_cursor = 0;
};

TEST(SchedulerDifferentialTest, FuzzedTracesMatch) {
  FuzzDriver ladder(sim::SchedulerKind::kLadder);
  FuzzDriver heap(sim::SchedulerKind::kHeap);
  ASSERT_EQ(ladder.scheduler.kind(), sim::SchedulerKind::kLadder);
  ASSERT_EQ(heap.scheduler.kind(), sim::SchedulerKind::kHeap);

  util::Rng rng(17);
  std::vector<double> chain_delays;
  for (int i = 0; i < 4096; ++i) {
    chain_delays.push_back(rng.Uniform(0.0, 0.05));
  }

  std::vector<sim::EventId> ladder_ids;
  std::vector<sim::EventId> heap_ids;
  uint64_t next_id = 1;
  for (int round = 0; round < 200; ++round) {
    const int schedules = static_cast<int>(rng.Next() % 17);
    for (int i = 0; i < schedules; ++i) {
      const double delay = rng.Bernoulli(0.25)
                               ? 0.0  // zero-delay chains tie-break on seq
                               : rng.Uniform(0.0, 0.1);
      const uint64_t id = next_id++;
      ladder_ids.push_back(ladder.scheduler.Schedule(
          delay, [&ladder, id, &chain_delays] {
            ladder.Chain(id, &chain_delays);
          }));
      heap_ids.push_back(heap.scheduler.Schedule(
          delay, [&heap, id, &chain_delays] {
            heap.Chain(id, &chain_delays);
          }));
    }
    if (!ladder_ids.empty() && rng.Bernoulli(0.3)) {
      const size_t pick = rng.Next() % ladder_ids.size();
      ASSERT_EQ(ladder.scheduler.Cancel(ladder_ids[pick]),
                heap.scheduler.Cancel(heap_ids[pick]));
    }
    const double horizon = ladder.scheduler.now() + rng.Uniform(0.0, 0.05);
    const size_t lruns = ladder.scheduler.RunUntil(horizon);
    const size_t hruns = heap.scheduler.RunUntil(horizon);
    ASSERT_EQ(lruns, hruns);
    ASSERT_EQ(std::bit_cast<uint64_t>(ladder.scheduler.now()),
              std::bit_cast<uint64_t>(heap.scheduler.now()));
  }
  // Drain everything that is still pending.
  ladder.scheduler.Run();
  heap.scheduler.Run();
  EXPECT_EQ(ladder.fired, heap.fired);
  ASSERT_EQ(ladder.times.size(), heap.times.size());
  for (size_t i = 0; i < ladder.times.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(ladder.times[i]),
              std::bit_cast<uint64_t>(heap.times[i]));
  }
  EXPECT_GT(ladder.fired.size(), 500u);
  EXPECT_EQ(ladder.scheduler.executed(), heap.scheduler.executed());
}

// ---------------------------------------------------------------------------
// 4. Golden-seed scenarios: full sharded runs, heap vs ladder.
// ---------------------------------------------------------------------------

TEST(SchedulerDifferentialTest, GoldenSeedScenarioSummariesMatch) {
  for (const uint32_t shards : {1u, 2u, 4u}) {
    auto config_for = [&](sim::SchedulerKind kind) {
      experiments::ScenarioConfig config = experiments::BaseDemoConfig(
          /*seed=*/42, /*volunteers=*/120, /*duration=*/90.0);
      config.sim.shard_count = shards;
      config.sim.shard_use_threads = shards > 1;
      config.sim.scheduler_kind = kind;
      return config;
    };
    const experiments::RunResult ladder = experiments::RunScenario(
        config_for(sim::SchedulerKind::kLadder));
    const experiments::RunResult heap = experiments::RunScenario(
        config_for(sim::SchedulerKind::kHeap));

    const metrics::RunSummary& a = ladder.summary;
    const metrics::RunSummary& b = heap.summary;
    EXPECT_EQ(a.queries_submitted, b.queries_submitted) << shards;
    EXPECT_EQ(a.queries_finalized, b.queries_finalized) << shards;
    EXPECT_EQ(a.queries_fully_served, b.queries_fully_served) << shards;
    EXPECT_EQ(a.queries_timed_out, b.queries_timed_out) << shards;
    EXPECT_EQ(a.messages_sent, b.messages_sent) << shards;
    // Bit-identical accumulation, not just statistical agreement: the two
    // queue kinds must execute the exact same event sequence.
    EXPECT_EQ(std::bit_cast<uint64_t>(a.consumer_satisfaction),
              std::bit_cast<uint64_t>(b.consumer_satisfaction))
        << shards;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.provider_satisfaction),
              std::bit_cast<uint64_t>(b.provider_satisfaction))
        << shards;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.mean_response_time),
              std::bit_cast<uint64_t>(b.mean_response_time))
        << shards;
    EXPECT_GT(a.queries_finalized, 100) << shards;
  }
}

}  // namespace
}  // namespace sbqa
