// Tests for util::SmallVec: inline storage up to N, one spill buffer kept
// across clear(), copy/move of inline and spilled vectors, assign, resize,
// equality and the implicit std::span view. Heap traffic is measured
// with the counting global allocator (util/counting_alloc.h; counting
// only), so "inline" means zero allocations, not just a flag.

#include "util/small_vec.h"

#include <cstdint>
#include <list>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/counting_alloc.h"

namespace sbqa::util {
namespace {

using Vec = SmallVec<int32_t, 4>;

Vec Iota(int n) {
  Vec v;
  for (int i = 0; i < n; ++i) v.push_back(i);
  return v;
}

std::vector<int32_t> ToVector(std::span<const int32_t> values) {
  return {values.begin(), values.end()};
}

TEST(SmallVecTest, InlineUpToNThenOneSpill) {
  Vec v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), 4u);

  // Counts are taken before any assertion runs (gtest may allocate).
  const uint64_t start = AllocationCount();
  for (int i = 0; i < 4; ++i) v.push_back(i);
  const uint64_t inline_pushes = AllocationCount() - start;
  const bool spilled_at_n = v.spilled();
  v.push_back(4);
  const uint64_t spill = AllocationCount() - start - inline_pushes;
  const size_t capacity = v.capacity();
  // Doubling: filling the spill buffer costs nothing more.
  const uint64_t before_fill = AllocationCount();
  while (v.size() < capacity) v.push_back(static_cast<int32_t>(v.size()));
  const uint64_t fill = AllocationCount() - before_fill;

  EXPECT_EQ(inline_pushes, 0u) << "the first N are inline";
  EXPECT_FALSE(spilled_at_n);
  EXPECT_EQ(spill, 1u) << "the N+1-th spills once";
  EXPECT_TRUE(v.spilled());
  EXPECT_GE(capacity, 8u);
  EXPECT_EQ(fill, 0u);
  EXPECT_EQ(v[4], 4);
  EXPECT_EQ(v.back(), static_cast<int32_t>(capacity - 1));
}

TEST(SmallVecTest, PushBackOfAnOwnElementSurvivesTheSpill) {
  Vec v = Iota(4);
  v.push_back(v[1]);  // the argument lives in the inline buffer it leaves
  EXPECT_TRUE(v.spilled());
  EXPECT_EQ(ToVector(v), (std::vector<int32_t>{0, 1, 2, 3, 1}));
}

TEST(SmallVecTest, ClearKeepsTheSpillBuffer) {
  Vec v = Iota(20);
  const size_t capacity = v.capacity();
  const int32_t* buffer = v.data();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.spilled());
  EXPECT_EQ(v.capacity(), capacity);

  const uint64_t before = AllocationCount();
  for (size_t i = 0; i < capacity; ++i) v.push_back(7);
  const uint64_t refill = AllocationCount() - before;
  EXPECT_EQ(refill, 0u) << "a recycled vector refills its kept buffer";
  EXPECT_EQ(v.data(), buffer);
}

TEST(SmallVecTest, PopBackAndResize) {
  Vec v = Iota(3);
  v.pop_back();
  EXPECT_EQ(ToVector(v), (std::vector<int32_t>{0, 1}));
  v.resize(6);  // grows with value-initialized elements, spilling
  EXPECT_TRUE(v.spilled());
  EXPECT_EQ(ToVector(v), (std::vector<int32_t>{0, 1, 0, 0, 0, 0}));
  v.resize(1);
  EXPECT_EQ(ToVector(v), (std::vector<int32_t>{0}));
  v.reserve(100);
  EXPECT_GE(v.capacity(), 100u);
  EXPECT_EQ(ToVector(v), (std::vector<int32_t>{0}));
}

TEST(SmallVecTest, CopyOfInlineAndSpilledVectorsIsDeep) {
  const Vec small = Iota(3);
  Vec small_copy(small);
  EXPECT_EQ(small_copy, small);
  EXPECT_FALSE(small_copy.spilled());

  const Vec big = Iota(9);
  Vec big_copy(big);
  EXPECT_EQ(big_copy, big);
  EXPECT_TRUE(big_copy.spilled());
  EXPECT_NE(big_copy.data(), big.data());
  big_copy[0] = 42;
  EXPECT_EQ(big[0], 0);

  // Copy-assigning a short vector into a spilled one reuses its buffer.
  const int32_t* buffer = big_copy.data();
  const uint64_t before = AllocationCount();
  big_copy = small;
  const uint64_t copy_allocations = AllocationCount() - before;
  EXPECT_EQ(copy_allocations, 0u);
  EXPECT_EQ(big_copy, small);
  EXPECT_EQ(big_copy.data(), buffer);

  // Copy-assigning a long vector into an inline one spills it.
  small_copy = big;
  EXPECT_EQ(small_copy, big);
  EXPECT_TRUE(small_copy.spilled());
}

TEST(SmallVecTest, MoveStealsASpillBufferAndCopiesInlineElements) {
  Vec big = Iota(9);
  const int32_t* buffer = big.data();
  const uint64_t before = AllocationCount();
  Vec stolen(std::move(big));
  const uint64_t move_allocations = AllocationCount() - before;
  EXPECT_EQ(move_allocations, 0u);
  EXPECT_EQ(stolen.data(), buffer);
  EXPECT_EQ(stolen, Iota(9));
  // The source is left empty and inline, and usable.
  EXPECT_TRUE(big.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(big.spilled());
  big.push_back(5);
  EXPECT_EQ(ToVector(big), (std::vector<int32_t>{5}));

  Vec small = Iota(2);
  Vec moved(std::move(small));
  EXPECT_EQ(moved, Iota(2));
  EXPECT_FALSE(moved.spilled());
  EXPECT_TRUE(small.empty());  // NOLINT(bugprone-use-after-move)

  // Move-assign over a spilled target frees its buffer and takes the
  // source's elements, inline or spilled.
  Vec target = Iota(12);
  target = std::move(moved);
  EXPECT_EQ(target, Iota(2));
  EXPECT_FALSE(target.spilled());
  Vec spilled_source = Iota(10);
  const int32_t* source_buffer = spilled_source.data();
  target = std::move(spilled_source);
  EXPECT_EQ(target, Iota(10));
  EXPECT_EQ(target.data(), source_buffer);

  // Growing a std::vector of SmallVecs moves them (the per-provider
  // inflight lists grow this way when providers join).
  std::vector<Vec> lists;
  for (int i = 0; i < 33; ++i) lists.push_back(Iota(i % 7));
  for (int i = 0; i < 33; ++i) EXPECT_EQ(lists[i], Iota(i % 7));
}

TEST(SmallVecTest, SelfAssignmentIsANoOp) {
  Vec small = Iota(3);
  Vec big = Iota(11);
  Vec& small_alias = small;
  Vec& big_alias = big;
  small = small_alias;
  big = big_alias;
  EXPECT_EQ(small, Iota(3));
  EXPECT_EQ(big, Iota(11));
  small = std::move(small_alias);
  big = std::move(big_alias);
  EXPECT_EQ(small, Iota(3));
  EXPECT_EQ(big, Iota(11));
}

TEST(SmallVecTest, AssignFromIterators) {
  Vec v = Iota(2);
  const std::vector<int32_t> source = {9, 8, 7};
  v.assign(source.begin(), source.end());
  EXPECT_EQ(ToVector(v), source);
  EXPECT_FALSE(v.spilled());

  // A forward (non-contiguous) range, long enough to spill.
  std::list<int32_t> linked(10);
  std::iota(linked.begin(), linked.end(), 100);
  v.assign(linked.begin(), linked.end());
  EXPECT_TRUE(v.spilled());
  EXPECT_EQ(v.size(), 10u);
  EXPECT_EQ(v[0], 100);
  EXPECT_EQ(v[9], 109);

  // A prefix of another SmallVec, and an empty range.
  const Vec other = Iota(6);
  v.assign(other.begin(), other.begin() + 3);
  EXPECT_EQ(v, Iota(3));
  v.assign(source.end(), source.end());
  EXPECT_TRUE(v.empty());
}

TEST(SmallVecTest, EqualityComparesElementsNotStorage) {
  Vec spilled = Iota(6);
  spilled.resize(3);  // spilled, but holding the same three elements
  EXPECT_TRUE(spilled.spilled());
  EXPECT_EQ(spilled, Iota(3));
  EXPECT_NE(Iota(3), Iota(4));
  Vec different = Iota(3);
  different[2] = -1;
  EXPECT_NE(different, Iota(3));
  EXPECT_EQ(Vec(), Vec());
}

TEST(SmallVecTest, ViewsAsASpanAndIterates) {
  const Vec v = Iota(5);
  const std::span<const int32_t> view = v;
  EXPECT_EQ(view.data(), v.data());
  EXPECT_EQ(view.size(), 5u);
  int32_t sum = 0;
  for (int32_t x : v) sum += x;
  EXPECT_EQ(sum, 10);

  SmallVec<double, 2> doubles;
  doubles.push_back(0.5);
  doubles.push_back(1.5);
  doubles.push_back(2.5);
  double total = 0;
  for (double x : std::span<const double>(doubles)) total += x;
  EXPECT_DOUBLE_EQ(total, 4.5);
}

}  // namespace
}  // namespace sbqa::util
