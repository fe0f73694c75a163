// The ranking the capacity-based, economic and QLB baselines share: it
// ranks exactly as a stable sort of the shuffled candidates did, and each
// baseline's Allocate makes zero heap allocations once warm (std::sort in
// place of stable_sort, whose temporary buffer allocated on every call).
//
// Lives in its own test binary because it replaces the global operator
// new/delete (via util/counting_alloc.h; counting only, allocation
// behavior is unchanged).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/capacity_based.h"
#include "baselines/economic.h"
#include "baselines/qlb.h"
#include "baselines/ranking.h"
#include "method_harness.h"
#include "util/counting_alloc.h"
#include "util/rng.h"

namespace sbqa::baselines {
namespace {

using harness::MethodHarness;

/// The previous ranking: shuffle the indexes, then stable-sort them by key.
std::vector<size_t> StableRanking(const std::vector<double>& keys,
                                  util::Rng rng) {
  std::vector<size_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0u);
  rng.Shuffle(&order);
  std::stable_sort(order.begin(), order.end(),
                   [&keys](size_t a, size_t b) { return keys[a] < keys[b]; });
  return order;
}

TEST(RandomTieRankingTest, RanksAsAStableSortOfTheShuffledOrder) {
  util::Rng draw(7);
  RandomTieRanking ranking;
  for (uint64_t round = 0; round < 300; ++round) {
    std::vector<double> keys(static_cast<size_t>(draw.UniformInt(0, 40)));
    for (double& key : keys) {
      key = static_cast<double>(draw.UniformInt(0, 4));  // plenty of ties
    }
    util::Rng rng(round);
    const std::vector<size_t> expected = StableRanking(keys, rng);
    ranking.Rank(keys, rng);
    ASSERT_EQ(ranking.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(ranking[i], expected[i]) << "round " << round << " rank " << i;
    }
  }
}

/// One baseline and the keys it ranks by, read from the harness state.
struct Baseline {
  const char* name;
  core::AllocationMethod* method;
  std::function<std::vector<double>(MethodHarness&)> keys;
  /// Keys above this are not selected (the economic budget).
  double budget = std::numeric_limits<double>::infinity();
};

TEST(BaselineRankingTest, AllocateMatchesStableSortWithoutAllocating) {
  constexpr int kProviders = 24;
  constexpr double kCost = 1.0;
  MethodHarness h(kProviders);
  CapacityBasedMethod capacity;
  EconomicMethod economic;
  QlbMethod qlb;
  const std::vector<Baseline> baselines = {
      {"capacity", &capacity,
       [](MethodHarness& m) { return m.mediator->BacklogsOf(m.candidates); }},
      {"economic", &economic,
       [&economic](MethodHarness& m) {
         std::vector<double> bids;
         for (model::ProviderId p : m.candidates) {
           bids.push_back(economic.BidOf(m.Context(), p));
         }
         return bids;
       },
       economic.params().budget_factor * kCost *
           economic.params().price_per_second},
      {"qlb", &qlb,
       [](MethodHarness& m) {
         return m.mediator->ExpectedCompletionsOf(m.query, m.candidates);
       }},
  };

  util::Rng draw(11);
  uint64_t allocations = 0;
  for (int round = 0; round < 400; ++round) {
    // Whole work units on a few providers per round: backlogs, bids and
    // completions keep tying.
    for (int i = 0; i < 3; ++i) {
      const auto p = static_cast<model::ProviderId>(
          draw.UniformInt(0, kProviders - 1));
      const auto work = static_cast<double>(draw.UniformInt(1, 2));
      h.registry.provider(p).Enqueue(h.simulation->now(), work);
    }
    h.simulation->RunFor(1.0);  // some backlogs drain back to ties at 0
    for (const Baseline& b : baselines) {
      SCOPED_TRACE(b.name);
      const int n_results = static_cast<int>(draw.UniformInt(1, 6));
      h.NextQuery(n_results, kCost);
      const std::vector<double> keys = b.keys(h);
      const std::vector<size_t> order = StableRanking(keys, h.mediator->rng());
      std::vector<model::ProviderId> expected;
      for (size_t i : order) {
        if (expected.size() == static_cast<size_t>(n_results)) break;
        if (keys[i] > b.budget) break;
        expected.push_back(h.candidates[i]);
      }

      core::AllocationDecision decision;
      const uint64_t before = util::AllocationCount();
      b.method->Allocate(h.Context(), &decision);
      if (round >= 10) allocations += util::AllocationCount() - before;
      ASSERT_EQ(std::vector<model::ProviderId>(decision.selected.begin(),
                                               decision.selected.end()),
                expected)
          << "round " << round;
    }
  }
  EXPECT_EQ(allocations, 0u) << "a warm baseline Allocate must not allocate";
}

}  // namespace
}  // namespace sbqa::baselines
