// Tests for the domain model: preferences, reputation, intention policies
// and the geometric balance operator.

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "model/intention.h"
#include "model/preference.h"
#include "model/query.h"
#include "model/reputation.h"
#include "util/balance.h"
#include "util/rng.h"

namespace sbqa::model {
namespace {

// --- Balance operator -------------------------------------------------------

TEST(BalanceTest, WeightOneReturnsFirst) {
  EXPECT_NEAR(util::WeightedGeometricBlend(0.4, -0.9, 1.0), 0.4, 1e-12);
}

TEST(BalanceTest, WeightZeroReturnsSecond) {
  EXPECT_NEAR(util::WeightedGeometricBlend(0.4, -0.9, 0.0), -0.9, 1e-12);
}

TEST(BalanceTest, EqualInputsAreFixedPoints) {
  for (double v : {-1.0, -0.5, 0.0, 0.5, 1.0}) {
    for (double w : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      EXPECT_NEAR(util::WeightedGeometricBlend(v, v, w), v, 1e-9);
    }
  }
}

TEST(BalanceTest, NegativeOneIsAbsorbingWithPositiveWeight) {
  EXPECT_NEAR(util::WeightedGeometricBlend(-1.0, 1.0, 0.5), -1.0, 1e-12);
  EXPECT_NEAR(util::WeightedGeometricBlend(1.0, -1.0, 0.5), -1.0, 1e-12);
}

TEST(BalanceTest, OutputAlwaysInRange) {
  for (double x = -1; x <= 1.0001; x += 0.25) {
    for (double y = -1; y <= 1.0001; y += 0.25) {
      for (double w = 0; w <= 1.0001; w += 0.25) {
        const double b = util::WeightedGeometricBlend(x, y, w);
        EXPECT_GE(b, -1.0);
        EXPECT_LE(b, 1.0);
      }
    }
  }
}

TEST(BalanceTest, MonotoneInBothArguments) {
  const double w = 0.6;
  double prev = -2;
  for (double x = -1; x <= 1.0001; x += 0.1) {
    const double b = util::WeightedGeometricBlend(x, 0.3, w);
    EXPECT_GE(b, prev - 1e-12);
    prev = b;
  }
  prev = -2;
  for (double y = -1; y <= 1.0001; y += 0.1) {
    const double b = util::WeightedGeometricBlend(0.3, y, w);
    EXPECT_GE(b, prev - 1e-12);
    prev = b;
  }
}

TEST(BalanceTest, NormalizeDenormalizeRoundTrip) {
  for (double v = -1; v <= 1.0001; v += 0.125) {
    EXPECT_NEAR(util::DenormalizeSigned(util::NormalizeSigned(v)), v, 1e-12);
  }
}

// --- PreferenceProfile ------------------------------------------------------

TEST(PreferenceTest, DefaultValueForUnknownTargets) {
  PreferenceProfile p(0.1);
  EXPECT_DOUBLE_EQ(p.Get(42), 0.1);
  EXPECT_FALSE(p.Has(42));
}

TEST(PreferenceTest, SetAndGet) {
  PreferenceProfile p;
  p.Set(1, 0.8);
  p.Set(2, -0.6);
  EXPECT_DOUBLE_EQ(p.Get(1), 0.8);
  EXPECT_DOUBLE_EQ(p.Get(2), -0.6);
  EXPECT_TRUE(p.Has(1));
  EXPECT_EQ(p.explicit_count(), 2u);
}

TEST(PreferenceTest, ClampsToValidRange) {
  PreferenceProfile p;
  p.Set(1, 5.0);
  p.Set(2, -5.0);
  EXPECT_DOUBLE_EQ(p.Get(1), 1.0);
  EXPECT_DOUBLE_EQ(p.Get(2), -1.0);
  PreferenceProfile q(9.0);
  EXPECT_DOUBLE_EQ(q.default_value(), 1.0);
}

TEST(PreferenceTest, OverwriteKeepsLatest) {
  PreferenceProfile p;
  p.Set(1, 0.5);
  p.Set(1, -0.5);
  EXPECT_DOUBLE_EQ(p.Get(1), -0.5);
  EXPECT_EQ(p.explicit_count(), 1u);
}

TEST(PreferenceTest, MeanExplicit) {
  PreferenceProfile p(0.3);
  EXPECT_DOUBLE_EQ(p.MeanExplicit(), 0.3);  // empty -> default
  p.Set(1, 1.0);
  p.Set(2, 0.0);
  EXPECT_DOUBLE_EQ(p.MeanExplicit(), 0.5);
}

TEST(PreferenceTest, OutOfOrderInsertionStaysConsistent) {
  // The flat-vector representation appends for ascending ids (the build
  // path) but must also handle arbitrary insertion order (scripted
  // scenario hooks).
  PreferenceProfile p(-0.25);
  p.Set(50, 0.5);
  p.Set(10, 0.1);
  p.Set(30, 0.3);
  p.Set(10, -0.1);  // overwrite the middle of the sorted run
  EXPECT_EQ(p.explicit_count(), 3u);
  EXPECT_DOUBLE_EQ(p.Get(10), -0.1);
  EXPECT_DOUBLE_EQ(p.Get(30), 0.3);
  EXPECT_DOUBLE_EQ(p.Get(50), 0.5);
  EXPECT_DOUBLE_EQ(p.Get(20), -0.25);  // gaps fall back to the default
  EXPECT_DOUBLE_EQ(p.Get(0), -0.25);
  EXPECT_DOUBLE_EQ(p.Get(60), -0.25);
}

TEST(PreferenceTest, LargeProfileUsesBinarySearchPath) {
  // A sparse profile misses the direct index and falls back to binary
  // search; exercise both boundaries of the sorted array and an interior
  // miss.
  PreferenceProfile p(0.0);
  for (int32_t id = 0; id < 200; ++id) {
    p.Set(id * 2, (id % 2 == 0) ? 0.25 : -0.25);  // even targets only
  }
  EXPECT_EQ(p.explicit_count(), 200u);
  EXPECT_DOUBLE_EQ(p.Get(0), 0.25);
  EXPECT_DOUBLE_EQ(p.Get(398), -0.25);
  EXPECT_DOUBLE_EQ(p.Get(101), 0.0);  // odd target: absent
  EXPECT_DOUBLE_EQ(p.Get(-3), 0.0);
  EXPECT_DOUBLE_EQ(p.Get(400), 0.0);
  EXPECT_TRUE(p.Has(398));
  EXPECT_FALSE(p.Has(399));
}

/// Sets every (target, value) of `build` in order on both a profile and a
/// std::map, then checks Get and Has for every id of [lo, hi) against the
/// map, the profile's default standing in for absent ids.
void ExpectProfileMatchesMap(
    const std::vector<std::pair<int32_t, double>>& build, int32_t lo,
    int32_t hi) {
  PreferenceProfile profile(-0.125);
  std::map<int32_t, double> reference;
  for (const auto& [target, value] : build) {
    profile.Set(target, value);
    reference[target] = value;
  }
  ASSERT_EQ(profile.explicit_count(), reference.size());
  for (int32_t id = lo; id < hi; ++id) {
    const auto it = reference.find(id);
    const bool present = it != reference.end();
    ASSERT_EQ(profile.Has(id), present) << "id " << id;
    ASSERT_EQ(profile.Get(id), present ? it->second : -0.125) << "id " << id;
  }
}

TEST(PreferenceTest, LookupsMatchMapReference) {
  util::Rng rng(11);
  const auto value = [&rng] { return rng.Uniform(-1.0, 1.0); };
  std::vector<std::pair<int32_t, double>> build;

  // Dense: ids 0..n-1, the direct-index case.
  for (int32_t id = 0; id < 500; ++id) build.emplace_back(id, value());
  ExpectProfileMatchesMap(build, -40, 540);

  // Sparse: every 7th id, so index i never holds target i past 0.
  build.clear();
  for (int32_t i = 0; i < 100; ++i) build.emplace_back(7 * i + 3, value());
  ExpectProfileMatchesMap(build, -40, 760);

  // Mixed: a dense prefix, then gaps; indexes past the prefix hold larger
  // targets than their own.
  build.clear();
  for (int32_t id = 0; id < 64; ++id) build.emplace_back(id, value());
  for (int32_t id = 64; id < 1000; ++id) {
    if (rng.Bernoulli(0.2)) build.emplace_back(id, value());
  }
  ExpectProfileMatchesMap(build, -40, 1040);

  // Out of order, with negative ids and overwrites: a shuffled subset of
  // [-20, 300), then a second pass re-setting a third of it.
  build.clear();
  for (int32_t id = -20; id < 300; ++id) {
    if (rng.Bernoulli(0.6)) build.emplace_back(id, value());
  }
  rng.Shuffle(&build);
  const size_t first_pass = build.size();
  for (size_t i = 0; i < first_pass; i += 3) {
    build.emplace_back(build[i].first, value());
  }
  ExpectProfileMatchesMap(build, -60, 340);
}

// --- ReputationRegistry -----------------------------------------------------

TEST(ReputationTest, StartsAtPrior) {
  ReputationRegistry rep(3, 0.1, 0.5);
  EXPECT_DOUBLE_EQ(rep.Get(0), 0.5);
  EXPECT_DOUBLE_EQ(rep.Get(2), 0.5);
  EXPECT_EQ(rep.Observations(0), 0);
}

TEST(ReputationTest, SuccessRaisesFailureLowers) {
  ReputationRegistry rep(2, 0.2, 0.5);
  rep.Record(0, 1.0);
  EXPECT_GT(rep.Get(0), 0.5);
  rep.Record(1, 0.0);
  EXPECT_LT(rep.Get(1), 0.5);
}

TEST(ReputationTest, ConvergesToSteadyOutcome) {
  ReputationRegistry rep(1, 0.1, 0.5);
  for (int i = 0; i < 200; ++i) rep.Record(0, 1.0);
  EXPECT_NEAR(rep.Get(0), 1.0, 0.01);
  for (int i = 0; i < 400; ++i) rep.Record(0, 0.0);
  EXPECT_NEAR(rep.Get(0), 0.0, 0.01);
}

TEST(ReputationTest, ObservationCountTracks) {
  ReputationRegistry rep(1);
  rep.Record(0, 1.0);
  rep.Record(0, 0.5);
  EXPECT_EQ(rep.Observations(0), 2);
}

TEST(ReputationDeathTest, OutOfRangeProviderAborts) {
  ReputationRegistry rep(2);
  EXPECT_DEATH(rep.Get(5), "CHECK failed");
  EXPECT_DEATH(rep.Record(-1, 1.0), "CHECK failed");
}

// --- Intention policies -----------------------------------------------------

Query MakeQuery() {
  Query q;
  q.id = 1;
  q.consumer = 0;
  q.n_results = 2;
  q.cost = 3;
  return q;
}

TEST(ConsumerPolicyTest, PreferenceOnlyEchoesPreference) {
  PreferenceConsumerPolicy policy;
  ConsumerIntentionContext ctx;
  const Query q = MakeQuery();
  ctx.query = &q;
  ctx.preference = 0.65;
  EXPECT_DOUBLE_EQ(policy.Compute(ctx), 0.65);
}

TEST(ConsumerPolicyTest, ReputationTradingBlends) {
  ReputationTradingConsumerPolicy policy(0.5);
  ConsumerIntentionContext ctx;
  const Query q = MakeQuery();
  ctx.query = &q;
  ctx.preference = 0.5;
  ctx.reputation = 1.0;  // maps to +1 signed
  const double blended = policy.Compute(ctx);
  EXPECT_GT(blended, 0.5);  // perfect reputation pulls intention up
  ctx.reputation = 0.0;  // maps to -1 signed (absorbing)
  EXPECT_NEAR(policy.Compute(ctx), -1.0, 1e-12);
}

TEST(ConsumerPolicyTest, ReputationTradingPhiOneIgnoresReputation) {
  ReputationTradingConsumerPolicy policy(1.0);
  ConsumerIntentionContext ctx;
  const Query q = MakeQuery();
  ctx.query = &q;
  ctx.preference = 0.3;
  ctx.reputation = 0.0;
  EXPECT_NEAR(policy.Compute(ctx), 0.3, 1e-12);
}

TEST(ConsumerPolicyTest, ResponseTimePolicyRanksFasterHigher) {
  ResponseTimeConsumerPolicy policy;
  ConsumerIntentionContext fast, slow;
  const Query q = MakeQuery();
  fast.query = slow.query = &q;
  fast.expected_completion = 1.0;
  fast.max_expected_completion = 10.0;
  slow.expected_completion = 10.0;
  slow.max_expected_completion = 10.0;
  EXPECT_GT(policy.Compute(fast), policy.Compute(slow));
  EXPECT_NEAR(policy.Compute(slow), -1.0, 1e-12);  // slowest candidate
}

TEST(ConsumerPolicyTest, ResponseTimePolicyBounds) {
  ResponseTimeConsumerPolicy policy;
  ConsumerIntentionContext ctx;
  const Query q = MakeQuery();
  ctx.query = &q;
  ctx.expected_completion = 0;
  ctx.max_expected_completion = 5;
  EXPECT_DOUBLE_EQ(policy.Compute(ctx), 1.0);
  ctx.max_expected_completion = 0;  // degenerate normalizer
  EXPECT_LE(policy.Compute(ctx), 1.0);
  EXPECT_GE(policy.Compute(ctx), -1.0);
}

TEST(ProviderPolicyTest, PreferenceOnlyEchoesPreference) {
  PreferenceProviderPolicy policy;
  ProviderIntentionContext ctx;
  const Query q = MakeQuery();
  ctx.query = &q;
  ctx.preference = -0.4;
  EXPECT_DOUBLE_EQ(policy.Compute(ctx), -0.4);
}

TEST(ProviderPolicyTest, UtilizationTradingDecaysWithLoad) {
  UtilizationTradingProviderPolicy policy(0.5);
  ProviderIntentionContext idle, busy;
  const Query q = MakeQuery();
  idle.query = busy.query = &q;
  idle.preference = busy.preference = 0.6;
  idle.utilization = 0.0;
  busy.utilization = 0.9;
  EXPECT_GT(policy.Compute(idle), policy.Compute(busy));
}

TEST(ProviderPolicyTest, UtilizationTradingPsiOneIgnoresLoad) {
  UtilizationTradingProviderPolicy policy(1.0);
  ProviderIntentionContext ctx;
  const Query q = MakeQuery();
  ctx.query = &q;
  ctx.preference = 0.25;
  ctx.utilization = 0.99;
  EXPECT_NEAR(policy.Compute(ctx), 0.25, 1e-12);
}

TEST(ProviderPolicyTest, LoadOnlyLinearInUtilization) {
  LoadOnlyProviderPolicy policy;
  ProviderIntentionContext ctx;
  const Query q = MakeQuery();
  ctx.query = &q;
  ctx.utilization = 0.0;
  EXPECT_DOUBLE_EQ(policy.Compute(ctx), 1.0);
  ctx.utilization = 0.5;
  EXPECT_DOUBLE_EQ(policy.Compute(ctx), 0.0);
  ctx.utilization = 1.0;
  EXPECT_DOUBLE_EQ(policy.Compute(ctx), -1.0);
}

TEST(PolicyFactoryTest, BuildsEveryKind) {
  EXPECT_EQ(MakeConsumerPolicy(ConsumerPolicyKind::kPreferenceOnly)->name(),
            "consumer/preference");
  EXPECT_EQ(MakeConsumerPolicy(ConsumerPolicyKind::kReputationTrading)->name(),
            "consumer/reputation-trading");
  EXPECT_EQ(MakeConsumerPolicy(ConsumerPolicyKind::kResponseTimeOnly)->name(),
            "consumer/response-time");
  EXPECT_EQ(MakeProviderPolicy(ProviderPolicyKind::kPreferenceOnly)->name(),
            "provider/preference");
  EXPECT_EQ(
      MakeProviderPolicy(ProviderPolicyKind::kUtilizationTrading)->name(),
      "provider/utilization-trading");
  EXPECT_EQ(MakeProviderPolicy(ProviderPolicyKind::kLoadOnly)->name(),
            "provider/load-only");
}

TEST(PolicyFactoryTest, ToStringNames) {
  EXPECT_STREQ(ToString(ConsumerPolicyKind::kResponseTimeOnly),
               "response-time-only");
  EXPECT_STREQ(ToString(ProviderPolicyKind::kLoadOnly), "load-only");
}

// Property sweep: every policy output stays within [-1, 1].
class PolicyRangeSweep : public ::testing::TestWithParam<double> {};

TEST_P(PolicyRangeSweep, OutputsStayInSignedUnitRange) {
  const double knob = GetParam();
  ReputationTradingConsumerPolicy consumer(knob);
  UtilizationTradingProviderPolicy provider(knob);
  const Query q = MakeQuery();
  for (double pref = -1; pref <= 1.0001; pref += 0.2) {
    for (double aux = 0; aux <= 1.0001; aux += 0.2) {
      ConsumerIntentionContext cc;
      cc.query = &q;
      cc.preference = pref;
      cc.reputation = aux;
      const double ci = consumer.Compute(cc);
      EXPECT_GE(ci, -1.0);
      EXPECT_LE(ci, 1.0);

      ProviderIntentionContext pc;
      pc.query = &q;
      pc.preference = pref;
      pc.utilization = aux;
      const double pi = provider.Compute(pc);
      EXPECT_GE(pi, -1.0);
      EXPECT_LE(pi, 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Weights, PolicyRangeSweep,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace sbqa::model
