// Differential tests of the timer core's ladder queue against the 4-ary
// reference heap (util/event_heap.h) — the acceptance gate of the ladder
// queue:
//
//   1. raw structures: LadderQueue and EventHeap pop the exact same
//      (when, key) sequence under fuzzed workload shapes (uniform
//      horizons, bimodal short/long timers like the serving path's
//      completion + timeout mix, heavy same-timestamp ties, burst/drain
//      cycles);
//   2. TimerCore: a Schedule/Cancel/PopDue sequence fires the same
//      callbacks at the same times as a small reference core on the heap,
//      including lazy cancellation and slot reuse;
//   3. sim::Scheduler: fuzzed Schedule/Cancel/RunUntil traces match a
//      reference scheduler on the heap, including callbacks that
//      reschedule;
//   4. golden-seed scenarios: full sharded demo runs reproduce pinned
//      summaries at 1, 2 and 4 shards.
//
// Everything is seeded (util::Rng) — a failure reproduces exactly.

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "experiments/demo_scenarios.h"
#include "experiments/runner.h"
#include "sim/scheduler.h"
#include "util/event_fn.h"
#include "util/event_heap.h"
#include "util/ladder_queue.h"
#include "util/rng.h"
#include "util/timer_core.h"

namespace sbqa {
namespace {

using util::EventHeap;
using util::LadderQueue;
using util::TimerCore;

// ---------------------------------------------------------------------------
// 1. Raw structures: LadderQueue vs the 4-ary reference heap.
// ---------------------------------------------------------------------------

/// Drives both raw structures through the same scheduler-shaped workload
/// (pushes never travel into the past) and asserts bit-identical pop
/// sequences. `next_delay(rng)` shapes the horizon distribution.
template <typename DelayFn>
void RawDifferential(uint64_t seed, int rounds, DelayFn&& next_delay) {
  LadderQueue ladder;
  EventHeap heap;
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
  // tie must come from the key alone, in both structures.
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
// 2. TimerCore vs a reference core on the heap.
// ---------------------------------------------------------------------------

/// The timer-core contract, written the obvious way over the reference
/// heap: handles are dense indexes, a liveness flag per handle answers
/// Cancel and skips cancelled entries on pop, and the heap key is the
/// schedule order — the (when, seq) order TimerCore promises.
class ReferenceTimerCore {
 public:
  using Handle = uint64_t;

  Handle Schedule(double when, util::EventFn fn) {
    const Handle id = fns_.size();
    fns_.push_back(std::move(fn));
    live_.push_back(true);
    ++pending_;
    heap_.push(LadderQueue::Entry{when, id});
    return id;
  }

  bool Cancel(Handle id) {
    if (!live_[id]) return false;
    live_[id] = false;
    --pending_;
    return true;
  }

  bool PopDue(double limit, util::EventFn* fn, double* when) {
    while (!heap_.empty() && !live_[heap_.top().key]) heap_.pop();
    if (heap_.empty() || heap_.top().when > limit) return false;
    const LadderQueue::Entry e = heap_.top();
    heap_.pop();
    live_[e.key] = false;
    --pending_;
    *fn = std::move(fns_[e.key]);
    *when = e.when;
    return true;
  }

  size_t pending() const { return pending_; }

 private:
  EventHeap heap_;
  std::vector<util::EventFn> fns_;
  std::vector<bool> live_;
  size_t pending_ = 0;
};

TEST(TimerCoreDifferentialTest, ScheduleCancelPopDue) {
  TimerCore core;
  ReferenceTimerCore reference;
  util::Rng rng(11);

  std::vector<uint64_t> core_fired;
  std::vector<uint64_t> reference_fired;
  // Parallel handle lists: index i in both vectors is the same logical
  // timer, so one cancellation decision applies to both cores.
  std::vector<TimerCore::Handle> core_handles;
  std::vector<ReferenceTimerCore::Handle> reference_handles;

  double now = 0;
  uint64_t next_id = 1;
  for (int round = 0; round < 300; ++round) {
    const int schedules = static_cast<int>(rng.Next() % 23);
    for (int i = 0; i < schedules; ++i) {
      const double when =
          now + (rng.Bernoulli(0.8) ? rng.Uniform(0.0, 0.01) : 0.5);
      const uint64_t id = next_id++;
      core_handles.push_back(core.Schedule(
          when, [&core_fired, id] { core_fired.push_back(id); }));
      reference_handles.push_back(reference.Schedule(
          when, [&reference_fired, id] { reference_fired.push_back(id); }));
    }
    // Cancel a random sample (some already fired — both cores must agree
    // the handle is stale).
    const int cancels = static_cast<int>(rng.Next() % 5);
    for (int i = 0; i < cancels && !core_handles.empty(); ++i) {
      const size_t pick = rng.Next() % core_handles.size();
      ASSERT_EQ(core.Cancel(core_handles[pick]),
                reference.Cancel(reference_handles[pick]));
    }
    now += rng.Uniform(0.0, 0.02);
    util::EventFn fn;
    double cw = 0;
    double rw = 0;
    while (core.PopDue(now, &fn, &cw)) {
      fn();
      util::EventFn rfn;
      ASSERT_TRUE(reference.PopDue(now, &rfn, &rw));
      rfn();
      ASSERT_EQ(std::bit_cast<uint64_t>(cw), std::bit_cast<uint64_t>(rw));
    }
    ASSERT_FALSE(reference.PopDue(now, &fn, &rw));
    ASSERT_EQ(core.pending(), reference.pending());
  }
  EXPECT_EQ(core_fired, reference_fired);
  EXPECT_GT(core_fired.size(), 1000u);
}

// ---------------------------------------------------------------------------
// 3. sim::Scheduler vs a reference scheduler, including rescheduling
//    callbacks.
// ---------------------------------------------------------------------------

/// sim::Scheduler's clock-and-run contract over ReferenceTimerCore:
/// RunUntil fires every event due by `t` and then moves the clock to `t`,
/// Run drains everything.
class ReferenceScheduler {
 public:
  uint64_t Schedule(double delay, util::EventFn fn) {
    return core_.Schedule(now_ + delay, std::move(fn));
  }
  bool Cancel(uint64_t id) { return core_.Cancel(id); }

  size_t RunUntil(double t) {
    const size_t n = RunDue(t);
    if (now_ < t) now_ = t;
    return n;
  }
  size_t Run() { return RunDue(sim::Scheduler::kNoEvent); }

  double now() const { return now_; }
  uint64_t executed() const { return executed_; }
  size_t pending() const { return core_.pending(); }

 private:
  size_t RunDue(double limit) {
    size_t n = 0;
    util::EventFn fn;
    double when = 0;
    while (core_.PopDue(limit, &fn, &when)) {
      now_ = when;
      ++executed_;
      fn();
      ++n;
    }
    return n;
  }

  ReferenceTimerCore core_;
  double now_ = 0;
  uint64_t executed_ = 0;
};

/// One scheduler under fuzz: records (id, fire time) pairs; every k-th
/// callback chains a follow-up event from a pre-generated delay table so
/// both schedulers replay the identical self-scheduling pattern.
template <typename SchedulerT>
struct FuzzDriver {
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

  SchedulerT scheduler;
  std::vector<uint64_t> fired;
  std::vector<double> times;
  size_t chain_cursor = 0;
};

TEST(SchedulerDifferentialTest, FuzzedTracesMatch) {
  FuzzDriver<sim::Scheduler> ladder;
  FuzzDriver<ReferenceScheduler> reference;

  util::Rng rng(17);
  std::vector<double> chain_delays;
  for (int i = 0; i < 4096; ++i) {
    chain_delays.push_back(rng.Uniform(0.0, 0.05));
  }

  std::vector<sim::EventId> ladder_ids;
  std::vector<uint64_t> reference_ids;
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
      reference_ids.push_back(reference.scheduler.Schedule(
          delay, [&reference, id, &chain_delays] {
            reference.Chain(id, &chain_delays);
          }));
    }
    if (!ladder_ids.empty() && rng.Bernoulli(0.3)) {
      const size_t pick = rng.Next() % ladder_ids.size();
      ASSERT_EQ(ladder.scheduler.Cancel(ladder_ids[pick]),
                reference.scheduler.Cancel(reference_ids[pick]));
    }
    const double horizon = ladder.scheduler.now() + rng.Uniform(0.0, 0.05);
    const size_t lruns = ladder.scheduler.RunUntil(horizon);
    const size_t rruns = reference.scheduler.RunUntil(horizon);
    ASSERT_EQ(lruns, rruns);
    ASSERT_EQ(std::bit_cast<uint64_t>(ladder.scheduler.now()),
              std::bit_cast<uint64_t>(reference.scheduler.now()));
    ASSERT_EQ(ladder.scheduler.pending(), reference.scheduler.pending());
  }
  // Drain everything that is still pending.
  ladder.scheduler.Run();
  reference.scheduler.Run();
  EXPECT_EQ(ladder.fired, reference.fired);
  ASSERT_EQ(ladder.times.size(), reference.times.size());
  for (size_t i = 0; i < ladder.times.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(ladder.times[i]),
              std::bit_cast<uint64_t>(reference.times[i]));
  }
  EXPECT_GT(ladder.fired.size(), 500u);
  EXPECT_EQ(ladder.scheduler.executed(), reference.scheduler.executed());
  EXPECT_EQ(ladder.scheduler.pending(), 0u);
  EXPECT_EQ(reference.scheduler.pending(), 0u);
}

// ---------------------------------------------------------------------------
// 4. Golden-seed scenarios: full sharded runs against pinned summaries.
// ---------------------------------------------------------------------------

/// The demo summary pinned per shard count. The doubles are bit patterns:
/// the event sequence must stay exactly the same, not just statistically
/// close. These are the values on which the ladder queue and the 4-ary
/// heap agreed bit for bit while both could still drive a run.
struct GoldenSummary {
  uint32_t shards;
  int64_t submitted;
  int64_t finalized;
  int64_t fully_served;
  int64_t timed_out;
  uint64_t messages_sent;
  uint64_t consumer_satisfaction;
  uint64_t provider_satisfaction;
  uint64_t mean_response_time;
};

constexpr GoldenSummary kGoldenSummaries[] = {
    {1, 462, 462, 462, 0, 3234, 0x3fe4a31013b86ee4, 0x3fdfeef263d15e66,
     0x4016d51d0e7091ec},
    {2, 455, 455, 455, 0, 3185, 0x3fe4bac30ab916ef, 0x3fdd16e4e0cc190f,
     0x4016a63d67fa5ccc},
    {4, 443, 443, 443, 0, 3101, 0x3fe5290185d80fff, 0x3fd399bf60901016,
     0x40192427c88ac8fe},
};

TEST(SchedulerDifferentialTest, GoldenSeedScenarioSummariesMatch) {
  for (const GoldenSummary& golden : kGoldenSummaries) {
    experiments::ScenarioConfig config = experiments::BaseDemoConfig(
        /*seed=*/42, /*volunteers=*/120, /*duration=*/90.0);
    config.sim.shard_count = golden.shards;
    config.sim.shard_use_threads = golden.shards > 1;
    const experiments::RunResult run = experiments::RunScenario(config);

    const metrics::RunSummary& a = run.summary;
    const uint32_t shards = golden.shards;
    EXPECT_EQ(a.queries_submitted, golden.submitted) << shards;
    EXPECT_EQ(a.queries_finalized, golden.finalized) << shards;
    EXPECT_EQ(a.queries_fully_served, golden.fully_served) << shards;
    EXPECT_EQ(a.queries_timed_out, golden.timed_out) << shards;
    EXPECT_EQ(a.messages_sent, golden.messages_sent) << shards;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.consumer_satisfaction),
              golden.consumer_satisfaction)
        << shards;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.provider_satisfaction),
              golden.provider_satisfaction)
        << shards;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.mean_response_time),
              golden.mean_response_time)
        << shards;
  }
}

}  // namespace
}  // namespace sbqa
