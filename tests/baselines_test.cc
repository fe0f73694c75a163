// Tests for the baseline allocation methods.

#include <memory>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/capacity_based.h"
#include "baselines/economic.h"
#include "baselines/interest_only.h"
#include "baselines/qlb.h"
#include "baselines/random_alloc.h"
#include "baselines/round_robin.h"
#include "core/sbqa.h"
#include "method_harness.h"

namespace sbqa::baselines {
namespace {

using core::AllocationContext;
using core::AllocationDecision;
using harness::MethodHarness;

bool Unique(std::span<const model::ProviderId> ids) {
  return std::set<model::ProviderId>(ids.begin(), ids.end()).size() ==
         ids.size();
}

// --- Random ---------------------------------------------------------------------

TEST(RandomMethodTest, SelectsRequestedCountWithoutDuplicates) {
  MethodHarness h(10);
  RandomMethod method;
  for (int round = 0; round < 50; ++round) {
    const AllocationDecision d = h.Allocate(method, 3);
    EXPECT_EQ(d.selected.size(), 3u);
    EXPECT_TRUE(Unique(d.selected));
    EXPECT_TRUE(d.consulted.empty());  // defaults to selected downstream
  }
}

TEST(RandomMethodTest, CoversAllProvidersEventually) {
  MethodHarness h(6);
  RandomMethod method;
  std::set<model::ProviderId> seen;
  for (int round = 0; round < 200; ++round) {
    for (model::ProviderId p : h.Allocate(method, 1).selected) seen.insert(p);
  }
  EXPECT_EQ(seen.size(), 6u);
}

// --- RoundRobin ------------------------------------------------------------------

TEST(RoundRobinMethodTest, CyclesThroughProviders) {
  MethodHarness h(4);
  RoundRobinMethod method;
  std::vector<model::ProviderId> first_cycle;
  for (int i = 0; i < 4; ++i) {
    const AllocationDecision d = h.Allocate(method, 1);
    ASSERT_EQ(d.selected.size(), 1u);
    first_cycle.push_back(d.selected[0]);
  }
  EXPECT_TRUE(Unique(first_cycle));  // each provider exactly once per cycle
  // The next allocation wraps around to the start of the cycle.
  EXPECT_EQ(h.Allocate(method, 1).selected[0], first_cycle[0]);
}

TEST(RoundRobinMethodTest, MultiResultSpansConsecutive) {
  MethodHarness h(5);
  RoundRobinMethod method;
  const AllocationDecision d = h.Allocate(method, 3);
  EXPECT_EQ(d.selected.size(), 3u);
  EXPECT_TRUE(Unique(d.selected));
}

// --- CapacityBased -----------------------------------------------------------------

TEST(CapacityBasedTest, PrefersLeastBackloggedProvider) {
  MethodHarness h(4);
  h.registry.provider(0).Enqueue(0.0, 10.0);
  h.registry.provider(1).Enqueue(0.0, 5.0);
  h.registry.provider(3).Enqueue(0.0, 1.0);
  CapacityBasedMethod method;
  const AllocationDecision d = h.Allocate(method, 1);
  ASSERT_EQ(d.selected.size(), 1u);
  EXPECT_EQ(d.selected[0], 2);  // the idle one
}

TEST(CapacityBasedTest, TopNOrderedByBacklog) {
  MethodHarness h(4);
  h.registry.provider(0).Enqueue(0.0, 8.0);
  h.registry.provider(1).Enqueue(0.0, 4.0);
  h.registry.provider(2).Enqueue(0.0, 2.0);
  CapacityBasedMethod method;
  const AllocationDecision d = h.Allocate(method, 3);
  ASSERT_EQ(d.selected.size(), 3u);
  EXPECT_EQ(d.selected[0], 3);
  EXPECT_EQ(d.selected[1], 2);
  EXPECT_EQ(d.selected[2], 1);
}

TEST(CapacityBasedTest, RandomizesTies) {
  MethodHarness h(6);
  CapacityBasedMethod method;
  std::set<model::ProviderId> firsts;
  for (int round = 0; round < 200; ++round) {
    firsts.insert(h.Allocate(method, 1).selected[0]);
  }
  EXPECT_GT(firsts.size(), 3u);  // not always the same id on equal backlogs
}

// --- QLB ---------------------------------------------------------------------------

TEST(QlbTest, AccountsForHeterogeneousCapacity) {
  MethodHarness h(2);
  // Provider 0: capacity 1 (default). Rebuild provider 1 as a fast host by
  // giving provider 0 backlog such that ECT comparison flips.
  // ECT_0 = backlog + cost; with cost 4: 0 has ECT 4, provider 1 busy with
  // backlog 1 has ECT 5 -> picks 0. But with cost 0.5: 0 -> 0.5, 1 -> 1.5.
  h.registry.provider(1).Enqueue(0.0, 1.0);
  QlbMethod method;
  EXPECT_EQ(h.Allocate(method, 1, 4.0).selected[0], 0);
  EXPECT_EQ(h.Allocate(method, 1, 0.5).selected[0], 0);
}

TEST(QlbTest, PicksShortestExpectedCompletion) {
  MethodHarness h(3);
  h.registry.provider(0).Enqueue(0.0, 3.0);
  h.registry.provider(1).Enqueue(0.0, 1.0);
  h.registry.provider(2).Enqueue(0.0, 2.0);
  QlbMethod method;
  const AllocationDecision d = h.Allocate(method, 2, 1.0);
  ASSERT_EQ(d.selected.size(), 2u);
  EXPECT_EQ(d.selected[0], 1);
  EXPECT_EQ(d.selected[1], 2);
}

// --- Economic -----------------------------------------------------------------------

TEST(EconomicTest, BidGrowsWithUtilization) {
  MethodHarness h(2);
  h.registry.provider(1).Enqueue(0.0, 50.0);
  EconomicMethod method;
  h.query.consumer = 0;
  h.query.cost = 1.0;
  AllocationContext ctx;
  ctx.query = &h.query;
  ctx.candidates = &h.candidate_set;
  ctx.mediator = h.mediator.get();
  ctx.now = 0;
  EXPECT_LT(method.BidOf(ctx, 0), method.BidOf(ctx, 1));
}

TEST(EconomicTest, CheapestBidsWin) {
  MethodHarness h(3);
  h.registry.provider(0).Enqueue(0.0, 30.0);
  EconomicMethod method;
  const AllocationDecision d = h.Allocate(method, 2, 1.0);
  ASSERT_EQ(d.selected.size(), 2u);
  EXPECT_TRUE(d.used_bid_round);
  // The heavily loaded provider 0 must not be among the winners.
  for (model::ProviderId p : d.selected) EXPECT_NE(p, 0);
}

TEST(EconomicTest, BudgetExcludesExpensiveProviders) {
  MethodHarness h(2);
  // Saturate both providers so every bid exceeds the budget.
  h.registry.provider(0).Enqueue(0.0, 1000.0);
  h.registry.provider(1).Enqueue(0.0, 1000.0);
  EconomicParams params;
  params.budget_factor = 1.0;  // tight budget
  params.load_markup = 10.0;
  EconomicMethod method(params);
  const AllocationDecision d = h.Allocate(method, 2, 1.0);
  EXPECT_TRUE(d.selected.empty());  // nothing affordable
}

TEST(EconomicTest, InterestDiscountFavorsInterestedProvider) {
  MethodHarness h(2);
  h.registry.provider(0).preferences().Set(0, 0.9);
  h.registry.provider(1).preferences().Set(0, -0.9);
  EconomicParams params;
  params.interest_discount = 0.5;
  EconomicMethod method(params);
  h.query.consumer = 0;
  h.query.cost = 1.0;
  AllocationContext ctx;
  ctx.query = &h.query;
  ctx.candidates = &h.candidate_set;
  ctx.mediator = h.mediator.get();
  ctx.now = 0;
  EXPECT_LT(method.BidOf(ctx, 0), method.BidOf(ctx, 1));
}

TEST(EconomicDeathTest, InvalidParamsAbort) {
  EconomicParams bad;
  bad.price_per_second = 0;
  EXPECT_DEATH(EconomicMethod{bad}, "CHECK failed");
}

// --- InterestOnly -------------------------------------------------------------------

TEST(InterestOnlyTest, PicksBestMutualPreference) {
  MethodHarness h(3);
  h.registry.consumer(0).preferences().Set(0, 0.9);
  h.registry.consumer(0).preferences().Set(1, 0.9);
  h.registry.consumer(0).preferences().Set(2, -0.9);
  h.registry.provider(0).preferences().Set(0, 0.9);
  h.registry.provider(1).preferences().Set(0, 0.1);
  h.registry.provider(2).preferences().Set(0, 0.9);
  InterestOnlyMethod method;
  const AllocationDecision d = h.Allocate(method, 1);
  ASSERT_EQ(d.selected.size(), 1u);
  EXPECT_EQ(d.selected[0], 0);  // the only high-high pair
}

TEST(InterestOnlyTest, IgnoresLoadEntirely) {
  MethodHarness h(2);
  h.registry.consumer(0).preferences().Set(0, 0.9);
  h.registry.consumer(0).preferences().Set(1, 0.1);
  h.registry.provider(0).preferences().Set(0, 0.9);
  h.registry.provider(1).preferences().Set(0, 0.9);
  h.registry.provider(0).Enqueue(0.0, 1000.0);  // overloaded but loved
  InterestOnlyMethod method;
  EXPECT_EQ(h.Allocate(method, 1).selected[0], 0);
}

// --- KnBest standalone variants --------------------------------------------------------

TEST(KnBestMethodTest, GreedyFinalPicksLeastUtilizedOfKn) {
  MethodHarness h(6);
  h.registry.provider(0).Enqueue(0.0, 6.0);
  h.registry.provider(1).Enqueue(0.0, 5.0);
  h.registry.provider(2).Enqueue(0.0, 4.0);
  h.registry.provider(3).Enqueue(0.0, 3.0);
  h.registry.provider(4).Enqueue(0.0, 2.0);
  // Provider 5 idle. k = all, kn = 3 -> Kn = {5, 4, 3} by backlog.
  core::KnBestMethod method(core::KnBestParams{0, 3, /*greedy_final=*/true});
  const AllocationDecision d = h.Allocate(method, 2);
  ASSERT_EQ(d.selected.size(), 2u);
  EXPECT_EQ(d.selected[0], 5);
  EXPECT_EQ(d.selected[1], 4);
}

TEST(KnBestMethodTest, RandomFinalVariesWithinKn) {
  MethodHarness h(6);
  core::KnBestMethod method(core::KnBestParams{0, 4, /*greedy_final=*/false});
  std::set<model::ProviderId> firsts;
  for (int round = 0; round < 100; ++round) {
    firsts.insert(h.Allocate(method, 1).selected[0]);
  }
  EXPECT_GT(firsts.size(), 2u);  // randomized, not a fixed pick
}

// --- Cross-method property ------------------------------------------------------------

class AllMethodsSweep : public ::testing::TestWithParam<int> {};

TEST_P(AllMethodsSweep, SelectionInvariantsHold) {
  MethodHarness h(12, static_cast<uint64_t>(GetParam()));
  std::vector<std::unique_ptr<core::AllocationMethod>> methods;
  methods.push_back(std::make_unique<RandomMethod>());
  methods.push_back(std::make_unique<RoundRobinMethod>());
  methods.push_back(std::make_unique<CapacityBasedMethod>());
  methods.push_back(std::make_unique<QlbMethod>());
  methods.push_back(std::make_unique<EconomicMethod>());
  methods.push_back(std::make_unique<InterestOnlyMethod>());
  methods.push_back(std::make_unique<core::KnBestMethod>(
      core::KnBestParams{6, 3}));
  methods.push_back(
      std::make_unique<core::SbqaMethod>(core::SbqaParams{}));

  for (auto& method : methods) {
    for (int n : {1, 3, 12, 20}) {
      const AllocationDecision d = h.Allocate(*method, n);
      EXPECT_LE(d.selected.size(), static_cast<size_t>(n)) << method->name();
      EXPECT_TRUE(Unique(d.selected)) << method->name();
      for (model::ProviderId p : d.selected) {
        EXPECT_GE(p, 0);
        EXPECT_LT(p, 12);
      }
      if (!d.consulted.empty()) {
        // consulted must cover selected.
        const std::set<model::ProviderId> consulted(d.consulted.begin(),
                                                    d.consulted.end());
        for (model::ProviderId p : d.selected) {
          EXPECT_TRUE(consulted.contains(p)) << method->name();
        }
      }
      if (!d.provider_intentions.empty()) {
        EXPECT_EQ(d.provider_intentions.size(), d.consulted.size());
        for (double v : d.provider_intentions) {
          EXPECT_GE(v, -1.0);
          EXPECT_LE(v, 1.0);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllMethodsSweep, ::testing::Range(1, 6));

}  // namespace
}  // namespace sbqa::baselines
