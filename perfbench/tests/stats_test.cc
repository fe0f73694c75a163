// Tests of the benchmark's own measurement logic on synthetic inputs.

#include "stats.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<int> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  EXPECT_EQ(PercentileSorted(values, 0.5), 50);
  EXPECT_EQ(PercentileSorted(values, 0.99), 99);
  EXPECT_EQ(PercentileSorted(values, 1.0), 100);
  EXPECT_EQ(PercentileSorted(values, 0.0), 1);
  EXPECT_EQ(PercentileSorted(std::vector<int>{}, 0.5), 0);
  EXPECT_EQ(Mean({4.0, 6.0, 6.0, 4.0}), 5.0);
  EXPECT_EQ(Mean({}), 0.0);
}

TEST(SupportedPercentileTest, KeepsTenSamplesBeyond) {
  EXPECT_EQ(SupportedPercentile(1000), 0.99);   // exactly 10 beyond p99
  EXPECT_EQ(SupportedPercentile(999), 0.9);     // p99 would leave 9
  EXPECT_EQ(SupportedPercentile(10000), 0.999);
  EXPECT_EQ(SupportedPercentile(100000), 0.9999);
  EXPECT_EQ(SupportedPercentile(100), 0.9);
  EXPECT_EQ(SupportedPercentile(19), 0.0);      // median leaves 9
  EXPECT_EQ(SupportedPercentile(20), 0.5);
}

TEST(MedianWindowP99Test, OneStalledWindowDoesNotMoveTheTail) {
  // Ten windows of 1000 samples: latency 100 with a 1% tail at 200. One
  // window holds a stall where 5% of samples read 50000.
  std::vector<uint32_t> values;
  for (int w = 0; w < 10; ++w) {
    for (int i = 0; i < 1000; ++i) {
      uint32_t v = i % 100 == 0 ? 200 : 100;
      if (w == 3 && i % 20 == 1) v = 50000;
      values.push_back(v);
    }
  }
  const WindowedP99 windowed = MedianWindowP99(values, 1000);
  EXPECT_EQ(windowed.windows, 10u);
  EXPECT_EQ(windowed.value, 100);
  EXPECT_EQ(Percentile(values, 0.99), 200);
}

TEST(MedianWindowP99Test, DropsTrailingPartialWindow) {
  std::vector<uint32_t> values(2500, 7);
  values.resize(2999, 9000);  // the partial third window would read 9000
  const WindowedP99 windowed = MedianWindowP99(values, 1000);
  EXPECT_EQ(windowed.windows, 2u);
  EXPECT_EQ(windowed.value, 7);
  EXPECT_EQ(MedianWindowP99(std::vector<uint32_t>(999, 1), 1000).windows, 0u);
}

TEST(KneeSearchTest, FindsHighestPassingRung) {
  for (int knee = -1; knee < 20; ++knee) {
    int calls = 0;
    const int found = KneeSearch(20, [&](int rung) {
      ++calls;
      return rung <= knee;
    });
    EXPECT_EQ(found, knee);
    EXPECT_LE(calls, 6);  // ceil(log2(21))
  }
}

TEST(KneeSearchTest, EmptyLadder) {
  EXPECT_EQ(KneeSearch(0, [](int) { return true; }), -1);
}

TEST(BacklogGrowsTest, SteadyQueueWithNoiseDoesNotGrow) {
  std::vector<double> inflight;
  for (int i = 0; i < 100; ++i) inflight.push_back(40 + (i * 37 % 11) - 5);
  EXPECT_FALSE(BacklogGrows(inflight, 64, 0.5));
}

TEST(BacklogGrowsTest, OverloadedQueueGrows) {
  std::vector<double> inflight;
  for (int i = 0; i < 100; ++i) inflight.push_back(40 + 30.0 * i);
  EXPECT_TRUE(BacklogGrows(inflight, 64, 0.5));
}

TEST(BacklogGrowsTest, OneSpikeIsNotGrowth) {
  std::vector<double> inflight(100, 50);
  inflight[50] = 3000;  // a stall in the middle drains again
  EXPECT_FALSE(BacklogGrows(inflight, 64, 0.5));
}

TEST(BacklogGrowsTest, ShortSeriesNeverGrows) {
  EXPECT_FALSE(BacklogGrows({1, 1000}, 0, 0));
}

TEST(RateLadderTest, Geometric) {
  const std::vector<double> ladder = RateLadder(1000, 1.5, 4);
  ASSERT_EQ(ladder.size(), 4u);
  EXPECT_EQ(ladder[0], 1000);
  EXPECT_EQ(ladder[1], 1500);
  EXPECT_EQ(ladder[2], 2250);
  EXPECT_EQ(ladder[3], 3375);
}

}  // namespace
}  // namespace perfbench
