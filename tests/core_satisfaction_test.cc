// Tests for the satisfaction model: Equation 1, Definitions 1-2 and the
// reconstructed adequation / allocation-satisfaction notions.

#include "core/satisfaction.h"

#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace sbqa::core {
namespace {

/// The Equation 1 helpers read spans; a braced list needs a backing array.
using Intentions = std::vector<double>;

// --- NormalizeIntention ------------------------------------------------------

TEST(NormalizeIntentionTest, MapsSignedToUnit) {
  EXPECT_DOUBLE_EQ(NormalizeIntention(-1), 0.0);
  EXPECT_DOUBLE_EQ(NormalizeIntention(0), 0.5);
  EXPECT_DOUBLE_EQ(NormalizeIntention(1), 1.0);
  EXPECT_DOUBLE_EQ(NormalizeIntention(0.5), 0.75);
}

TEST(NormalizeIntentionTest, ClampsOutOfRange) {
  EXPECT_DOUBLE_EQ(NormalizeIntention(-3), 0.0);
  EXPECT_DOUBLE_EQ(NormalizeIntention(3), 1.0);
}

// --- Equation 1 --------------------------------------------------------------

TEST(Equation1Test, FullAllocationAveragesNormalizedIntentions) {
  // Two performers with CI = 1 and CI = 0 for n = 2:
  // ((1+1)/2 + (0+1)/2) / 2 = 0.75.
  EXPECT_DOUBLE_EQ(ConsumerQuerySatisfaction(Intentions{1.0, 0.0}, 2), 0.75);
}

TEST(Equation1Test, PerfectAllocationGivesOne) {
  EXPECT_DOUBLE_EQ(ConsumerQuerySatisfaction(Intentions{1.0, 1.0, 1.0}, 3),
                   1.0);
}

TEST(Equation1Test, NoPerformersGivesZero) {
  EXPECT_DOUBLE_EQ(ConsumerQuerySatisfaction({}, 3), 0.0);
}

TEST(Equation1Test, PartialAllocationPenalizedByDividingByN) {
  // One performer with CI = 1 but n = 2 required: 1/2.
  EXPECT_DOUBLE_EQ(ConsumerQuerySatisfaction(Intentions{1.0}, 2), 0.5);
}

TEST(Equation1Test, HostileProvidersContributeNothing) {
  // CI = -1 normalizes to 0.
  EXPECT_DOUBLE_EQ(ConsumerQuerySatisfaction(Intentions{-1.0, -1.0}, 2),
                   0.0);
}

TEST(Equation1Test, OverAllocationStaysInUnitInterval) {
  // More performers than required: averaged over the performer count.
  const double v =
      ConsumerQuerySatisfaction(Intentions{1.0, 1.0, 1.0, 1.0}, 2);
  EXPECT_LE(v, 1.0);
  EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Equation1Test, AlwaysInUnitInterval) {
  util::Rng rng(7);
  for (int round = 0; round < 1000; ++round) {
    std::vector<double> intentions;
    const int n = 1 + static_cast<int>(rng.UniformInt(0, 4));
    const int performers = static_cast<int>(rng.UniformInt(0, 6));
    for (int i = 0; i < performers; ++i) {
      intentions.push_back(rng.Uniform(-1, 1));
    }
    const double v = ConsumerQuerySatisfaction(intentions, n);
    ASSERT_GE(v, 0.0);
    ASSERT_LE(v, 1.0);
  }
}

// --- Adequation & allocation satisfaction ------------------------------------

TEST(AdequationTest, MeanOfNormalizedIntentions) {
  EXPECT_DOUBLE_EQ(ConsumerQueryAdequation(Intentions{1.0, -1.0}), 0.5);
  EXPECT_DOUBLE_EQ(ConsumerQueryAdequation({}), 0.0);
}

TEST(AllocationSatisfactionTest, OptimalAllocationIsOne) {
  // Candidates {1.0, 0.0}, n = 1; best achievable = 1.0. Obtained 1.0.
  EXPECT_DOUBLE_EQ(
      ConsumerQueryAllocationSatisfaction(1.0, Intentions{1.0, 0.0}, 1), 1.0);
}

TEST(AllocationSatisfactionTest, SuboptimalAllocationBelowOne) {
  // Obtained 0.5 (the worse candidate) vs best 1.0.
  EXPECT_DOUBLE_EQ(
      ConsumerQueryAllocationSatisfaction(0.5, Intentions{1.0, 0.0}, 1), 0.5);
}

TEST(AllocationSatisfactionTest, NothingAchievableIsVacuouslyOne) {
  EXPECT_DOUBLE_EQ(
      ConsumerQueryAllocationSatisfaction(0.0, Intentions{-1.0, -1.0}, 1),
      1.0);
  EXPECT_DOUBLE_EQ(ConsumerQueryAllocationSatisfaction(0.0, {}, 1), 1.0);
}

TEST(AllocationSatisfactionTest, ClampedToUnitInterval) {
  EXPECT_LE(ConsumerQueryAllocationSatisfaction(5.0, Intentions{0.2}, 1),
            1.0);
}

// --- ConsumerSatisfactionTracker (Definition 1) -------------------------------

TEST(ConsumerTrackerTest, EmptyDefaults) {
  ConsumerSatisfactionTracker t(5);
  EXPECT_EQ(t.sample_count(), 0u);
  EXPECT_FALSE(t.window_full());
  EXPECT_DOUBLE_EQ(t.satisfaction(), 0.0);
  EXPECT_DOUBLE_EQ(t.satisfaction(0.5), 0.5);
  EXPECT_DOUBLE_EQ(t.allocation_satisfaction(), 1.0);
}

TEST(ConsumerTrackerTest, AveragesOverWindow) {
  ConsumerSatisfactionTracker t(3);
  t.RecordQuery(1.0, 0.8, 1.0);
  t.RecordQuery(0.0, 0.4, 0.5);
  EXPECT_DOUBLE_EQ(t.satisfaction(), 0.5);
  EXPECT_DOUBLE_EQ(t.adequation(), 0.6);
  EXPECT_DOUBLE_EQ(t.allocation_satisfaction(), 0.75);
}

TEST(ConsumerTrackerTest, OnlyKLastQueriesCount) {
  ConsumerSatisfactionTracker t(2);
  t.RecordQuery(0.0, 0, 0);
  t.RecordQuery(1.0, 0, 0);
  t.RecordQuery(1.0, 0, 0);  // evicts the 0.0
  EXPECT_DOUBLE_EQ(t.satisfaction(), 1.0);
  EXPECT_TRUE(t.window_full());
}

// --- ProviderSatisfactionTracker (Definition 2) --------------------------------

TEST(ProviderTrackerTest, EmptyIsZeroPerDefinition2) {
  ProviderSatisfactionTracker t(5);
  EXPECT_DOUBLE_EQ(t.satisfaction(), 0.0);
  EXPECT_DOUBLE_EQ(t.adequation(), 0.0);
  EXPECT_DOUBLE_EQ(t.allocation_satisfaction(), 1.0);
}

TEST(ProviderTrackerTest, NoPerformedQueriesIsZero) {
  ProviderSatisfactionTracker t(5);
  t.RecordProposal(1.0, false);
  t.RecordProposal(0.8, false);
  EXPECT_DOUBLE_EQ(t.satisfaction(), 0.0);  // SQ empty
  EXPECT_GT(t.adequation(), 0.0);           // but proposals existed
}

TEST(ProviderTrackerTest, PerformedOnlyDenominator) {
  ProviderSatisfactionTracker t(10);
  t.RecordProposal(1.0, true);    // norm 1.0, performed
  t.RecordProposal(-1.0, false);  // norm 0.0, not performed
  t.RecordProposal(0.0, true);    // norm 0.5, performed
  // Mean over performed = (1.0 + 0.5)/2.
  EXPECT_DOUBLE_EQ(t.satisfaction(), 0.75);
}

TEST(ProviderTrackerTest, AllProposedDenominatorPenalizesLosses) {
  ProviderSatisfactionTracker t(10,
                                ProviderSatisfactionDenominator::kAllProposed);
  t.RecordProposal(1.0, true);
  t.RecordProposal(1.0, false);
  // Sum over performed = 1.0, over window size 2 -> 0.5.
  EXPECT_DOUBLE_EQ(t.satisfaction(), 0.5);
}

TEST(ProviderTrackerTest, EvictionUpdatesRunningSums) {
  ProviderSatisfactionTracker t(2);
  t.RecordProposal(1.0, true);
  t.RecordProposal(0.0, true);
  t.RecordProposal(-1.0, true);  // evicts the 1.0
  // Window = {norm 0.5 performed, norm 0.0 performed}.
  EXPECT_DOUBLE_EQ(t.satisfaction(), 0.25);
  EXPECT_EQ(t.performed_count(), 2u);
  EXPECT_DOUBLE_EQ(t.adequation(), 0.25);
}

TEST(ProviderTrackerTest, EvictionOfPerformedEntryUpdatesCount) {
  ProviderSatisfactionTracker t(2);
  t.RecordProposal(1.0, true);
  t.RecordProposal(1.0, false);
  t.RecordProposal(1.0, false);  // evicts the performed one
  EXPECT_EQ(t.performed_count(), 0u);
  EXPECT_DOUBLE_EQ(t.satisfaction(), 0.0);
}

TEST(ProviderTrackerTest, AdequationCountsAllProposals) {
  ProviderSatisfactionTracker t(4);
  t.RecordProposal(1.0, false);
  t.RecordProposal(-1.0, false);
  EXPECT_DOUBLE_EQ(t.adequation(), 0.5);
}

TEST(ProviderTrackerTest, AllocationSatisfactionOptimalWhenPerformingBest) {
  ProviderSatisfactionTracker t(4);
  t.RecordProposal(1.0, true);    // performed the best proposal
  t.RecordProposal(-1.0, false);  // skipped the worst
  EXPECT_DOUBLE_EQ(t.allocation_satisfaction(), 1.0);
}

TEST(ProviderTrackerTest, AllocationSatisfactionLowWhenPerformingWorst) {
  ProviderSatisfactionTracker t(4);
  t.RecordProposal(1.0, false);  // missed the good one
  t.RecordProposal(0.0, true);   // performed the mediocre one
  // Obtained 0.5, best achievable with one performed = 1.0.
  EXPECT_DOUBLE_EQ(t.allocation_satisfaction(), 0.5);
}

TEST(ProviderTrackerTest, CountersExposed) {
  ProviderSatisfactionTracker t(8);
  t.RecordProposal(0.5, true);
  t.RecordProposal(0.5, false);
  EXPECT_EQ(t.proposal_count(), 2u);
  EXPECT_EQ(t.performed_count(), 1u);
  EXPECT_FALSE(t.window_full());
  EXPECT_EQ(t.capacity(), 8u);
}

// Property: the O(1) running aggregates always match a brute-force pass, and
// satisfaction stays in [0, 1].
class ProviderTrackerSweep : public ::testing::TestWithParam<
                                 std::tuple<size_t, int>> {};

TEST_P(ProviderTrackerSweep, RunningSumsMatchBruteForce) {
  const size_t k = std::get<0>(GetParam());
  const int mode_int = std::get<1>(GetParam());
  const auto mode = static_cast<ProviderSatisfactionDenominator>(mode_int);
  ProviderSatisfactionTracker tracker(k, mode);
  util::Rng rng(k * 131 + static_cast<uint64_t>(mode_int));

  std::vector<std::pair<double, bool>> history;
  for (int i = 0; i < 400; ++i) {
    const double intention = rng.Uniform(-1, 1);
    const bool performed = rng.Bernoulli(0.4);
    tracker.RecordProposal(intention, performed);
    history.emplace_back(intention, performed);

    // Brute force over the k last proposals.
    const size_t begin = history.size() > k ? history.size() - k : 0;
    double sum_performed = 0;
    size_t n_performed = 0;
    for (size_t j = begin; j < history.size(); ++j) {
      if (history[j].second) {
        sum_performed += NormalizeIntention(history[j].first);
        ++n_performed;
      }
    }
    double expected = 0;
    if (n_performed > 0) {
      const size_t window_size = history.size() - begin;
      expected = mode == ProviderSatisfactionDenominator::kPerformedOnly
                     ? sum_performed / static_cast<double>(n_performed)
                     : sum_performed / static_cast<double>(window_size);
    }
    ASSERT_NEAR(tracker.satisfaction(), expected, 1e-9);
    ASSERT_GE(tracker.satisfaction(), 0.0);
    ASSERT_LE(tracker.satisfaction(), 1.0);
    ASSERT_GE(tracker.allocation_satisfaction(), 0.0);
    ASSERT_LE(tracker.allocation_satisfaction(), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WindowsAndModes, ProviderTrackerSweep,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 5, 50),
                       ::testing::Values(0, 1)));

}  // namespace
}  // namespace sbqa::core
