// The one barrier protocol (rt::BarrierCore) as both shard sets run it:
// one script — driver posts, a message clamped to its barrier, a late
// delivery, a membership-phase post at the final barrier — on a serial
// sim::ShardSet, a threaded one and a manual-clock rt::WallClockShardSet
// must give the same per-shard delivery order with each delivery's barrier
// index, the same hook times, barrier count and membership-phase count.
// Delivery logs are kept per destination shard, because threaded shards
// deliver concurrently. The threaded set also makes this a TSan target.

#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/wallclock_shard_set.h"
#include "sim/shard_set.h"

namespace sbqa {
namespace {

constexpr double kTick = 0.01;
constexpr double kHorizon = 0.05;

struct Delivery {
  const char* label;
  uint64_t barrier;  ///< counted barriers before the delivery ran
  bool operator==(const Delivery& other) const {
    return std::string_view(label) == other.label && barrier == other.barrier;
  }
};

void PrintTo(const Delivery& d, std::ostream* os) {
  *os << d.label << "@" << d.barrier;
}

struct ProtocolTrace {
  std::vector<std::vector<Delivery>> deliveries{2};  ///< by destination
  std::vector<double> hook_times;
  uint64_t barriers = 0;
  int membership_calls = 0;
  uint64_t messages = 0;
  bool membership_posted = false;
};

/// Wires the script onto a 2-shard set and runs it to the horizon.
/// `runtime_of(s)` is shard s's executor.
template <typename Shards, typename RuntimeOf>
void RunScript(Shards* shards, RuntimeOf runtime_of, ProtocolTrace* trace) {
  ASSERT_EQ(shards->shard_count(), 2u);
  auto deliver = [shards, trace](uint32_t dst, const char* label) {
    return [shards, trace, dst, label] {
      trace->deliveries[dst].push_back(Delivery{label, shards->barriers()});
    };
  };
  shards->SetMembershipHook([shards, trace, deliver](double now) {
    ++trace->membership_calls;
    if (!trace->membership_posted && now >= kHorizon) {  // final barrier
      trace->membership_posted = true;
      shards->PostTo(1, 0, now, deliver(0, "membership"));
    }
  });
  shards->AddBarrierHook(
      [trace](double now) { trace->hook_times.push_back(now); });

  // Driver posts: drained at the first barrier, due there.
  shards->PostTo(0, 1, 0.0, deliver(1, "driver"));
  shards->PostTo(1, 0, 0.0, deliver(0, "driver-back"));
  // Sent in the second window, nominally due inside it: clamped to the
  // second barrier.
  runtime_of(0).ScheduleAt(0.015, [shards, deliver] {
    shards->PostTo(0, 1, 0.016, deliver(1, "clamped"));
  });
  // Drained at the first barrier but due in the fourth window.
  runtime_of(1).ScheduleAt(0.002, [shards, deliver] {
    shards->PostTo(1, 0, 0.035, deliver(0, "late"));
  });

  shards->RunUntil(kHorizon);
  trace->barriers = shards->barriers();
  trace->messages = shards->cross_shard_messages();
}

sim::SimulationConfig SimConfig(bool threads) {
  sim::SimulationConfig config;
  config.shard_count = 2;
  config.shard_barrier_tick = kTick;
  config.shard_use_threads = threads;
  return config;
}

rt::WallClockShardOptions ManualOptions() {
  rt::WallClockShardOptions options;
  options.shard_count = 2;
  options.barrier_tick = kTick;
  options.runtime.manual_clock = true;
  return options;
}

void ExpectScript(const ProtocolTrace& trace) {
  EXPECT_EQ(trace.deliveries[0],
            (std::vector<Delivery>{
                {"driver-back", 1}, {"late", 3}, {"membership", 5}}));
  EXPECT_EQ(trace.deliveries[1],
            (std::vector<Delivery>{{"driver", 1}, {"clamped", 2}}));
  ASSERT_EQ(trace.hook_times.size(), 5u);
  for (size_t i = 0; i < trace.hook_times.size(); ++i) {
    EXPECT_DOUBLE_EQ(trace.hook_times[i], kTick * static_cast<double>(i + 1));
  }
  // Settlement after the final barrier: one zero-width window drains the
  // membership post, a second runs it; neither is a barrier, both run the
  // membership phase, neither runs the hooks.
  EXPECT_EQ(trace.barriers, 5u);
  EXPECT_EQ(trace.membership_calls, 7);
  EXPECT_EQ(trace.messages, 5u);
}

void ExpectSameTrace(const ProtocolTrace& a, const ProtocolTrace& b) {
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.hook_times, b.hook_times);
  EXPECT_EQ(a.barriers, b.barriers);
  EXPECT_EQ(a.membership_calls, b.membership_calls);
  EXPECT_EQ(a.messages, b.messages);
}

ProtocolTrace RunOnSim(bool threads) {
  ProtocolTrace trace;
  sim::ShardSet shards(SimConfig(threads));
  EXPECT_EQ(shards.threaded(), threads);
  RunScript(
      &shards,
      [&shards](uint32_t s) -> rt::Runtime& {
        return shards.shard(s).runtime();
      },
      &trace);
  return trace;
}

TEST(BarrierProtocolTest, SerialSimSetRunsTheScript) {
  ExpectScript(RunOnSim(/*threads=*/false));
}

TEST(BarrierProtocolTest, ThreadedSimSetMatchesSerial) {
  const ProtocolTrace threaded = RunOnSim(/*threads=*/true);
  ExpectScript(threaded);
  ExpectSameTrace(threaded, RunOnSim(/*threads=*/false));
}

TEST(BarrierProtocolTest, ManualClockSetMatchesTheSimSet) {
  // Declared before the set: Stop (in the destructor) runs one more
  // barrier phase, whose hooks write here.
  ProtocolTrace trace;
  rt::WallClockShardSet shards(ManualOptions());
  shards.Start();
  RunScript(
      &shards,
      [&shards](uint32_t s) -> rt::Runtime& { return shards.runtime(s); },
      &trace);
  ExpectScript(trace);
  ExpectSameTrace(trace, RunOnSim(/*threads=*/false));
}

TEST(BarrierProtocolDeathTest, SecondMembershipHookAborts) {
  EXPECT_DEATH(
      {
        sim::ShardSet shards(SimConfig(/*threads=*/false));
        shards.SetMembershipHook([](double) {});
        shards.SetMembershipHook([](double) {});
      },
      "CHECK failed");
  EXPECT_DEATH(
      {
        rt::WallClockShardSet shards(ManualOptions());
        shards.SetMembershipHook([](double) {});
        shards.SetMembershipHook([](double) {});
      },
      "CHECK failed");
}

}  // namespace
}  // namespace sbqa
