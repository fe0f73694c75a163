// Tests for the k-interaction sliding windows behind the satisfaction model.

#include "util/sliding_window.h"

#include <deque>
#include <string>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace sbqa::util {
namespace {

TEST(SlidingWindowTest, StartsEmpty) {
  SlidingWindow<int> w(3);
  EXPECT_TRUE(w.empty());
  EXPECT_FALSE(w.full());
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(w.capacity(), 3u);
}

TEST(SlidingWindowTest, FillsInOrder) {
  SlidingWindow<int> w(3);
  w.Push(1);
  w.Push(2);
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0], 1);
  EXPECT_EQ(w[1], 2);
  EXPECT_EQ(w.oldest(), 1);
  EXPECT_EQ(w.newest(), 2);
}

TEST(SlidingWindowTest, EvictsOldestWhenFull) {
  SlidingWindow<int> w(3);
  for (int i = 1; i <= 5; ++i) w.Push(i);
  EXPECT_TRUE(w.full());
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.oldest(), 3);
  EXPECT_EQ(w.newest(), 5);
  EXPECT_EQ(w[0], 3);
  EXPECT_EQ(w[1], 4);
  EXPECT_EQ(w[2], 5);
}

TEST(SlidingWindowTest, CapacityOne) {
  SlidingWindow<int> w(1);
  w.Push(1);
  w.Push(2);
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(w.newest(), 2);
  EXPECT_EQ(w.oldest(), 2);
}

TEST(SlidingWindowTest, ClearResets) {
  SlidingWindow<int> w(3);
  w.Push(1);
  w.Push(2);
  w.Clear();
  EXPECT_TRUE(w.empty());
  w.Push(9);
  EXPECT_EQ(w.oldest(), 9);
}

TEST(SlidingWindowTest, ToVectorOldestFirst) {
  SlidingWindow<std::string> w(2);
  w.Push("a");
  w.Push("b");
  w.Push("c");
  const std::vector<std::string> v = w.ToVector();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], "b");
  EXPECT_EQ(v[1], "c");
}

TEST(WindowedMeanTest, EmptyUsesProvidedDefault) {
  WindowedMean m(4);
  EXPECT_EQ(m.Mean(), 0.0);
  EXPECT_EQ(m.Mean(0.5), 0.5);
}

TEST(WindowedMeanTest, PartialWindowMean) {
  WindowedMean m(4);
  m.Push(1);
  m.Push(3);
  EXPECT_DOUBLE_EQ(m.Mean(), 2.0);
}

TEST(WindowedMeanTest, EvictionAdjustsSum) {
  WindowedMean m(2);
  m.Push(10);
  m.Push(20);
  m.Push(30);  // evicts 10
  EXPECT_DOUBLE_EQ(m.Mean(), 25.0);
}

TEST(WindowedMeanTest, ClearResets) {
  WindowedMean m(2);
  m.Push(10);
  m.Clear();
  EXPECT_EQ(m.Mean(), 0.0);
  EXPECT_TRUE(m.empty());
}

// Property: the O(1) running mean always equals a brute-force recompute.
class WindowedMeanSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(WindowedMeanSweep, RunningSumMatchesBruteForce) {
  const size_t capacity = GetParam();
  WindowedMean m(capacity);
  Rng rng(capacity * 977 + 1);
  for (int i = 0; i < 500; ++i) {
    m.Push(rng.Uniform(-10, 10));
    double expected = 0;
    for (size_t j = 0; j < m.window().size(); ++j) expected += m.window()[j];
    expected /= static_cast<double>(m.window().size());
    ASSERT_NEAR(m.Mean(), expected, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, WindowedMeanSweep,
                         ::testing::Values(1, 2, 3, 7, 16, 50, 128));

// Property: the ring matches a std::deque trimmed to the capacity, element
// by element, across wrap-arounds and a Clear() mid-stream.
class SlidingWindowSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(SlidingWindowSweep, MatchesDequeReference) {
  const size_t capacity = GetParam();
  SlidingWindow<int> window(capacity);
  std::deque<int> reference;
  for (int i = 0; i < 400; ++i) {
    if (i == 150 + static_cast<int>(capacity) / 2) {
      window.Clear();
      reference.clear();
    }
    window.Push(i);
    reference.push_back(i);
    if (reference.size() > capacity) reference.pop_front();
    ASSERT_EQ(window.size(), reference.size());
    ASSERT_EQ(window.full(), reference.size() == capacity);
    for (size_t j = 0; j < reference.size(); ++j) {
      ASSERT_EQ(window[j], reference[j]) << "push " << i << ", age " << j;
    }
    ASSERT_EQ(window.oldest(), reference.front());
    ASSERT_EQ(window.newest(), reference.back());
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, SlidingWindowSweep,
                         ::testing::Values(1, 2, 3, 50));

}  // namespace
}  // namespace sbqa::util
