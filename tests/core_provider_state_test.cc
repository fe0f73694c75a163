// Definition 2 on the registry's hot block, against a reference that keeps
// each provider's window in a std::deque: several providers share one
// proposal arena, joins grow it mid-stream, and after every proposal each
// provider's satisfaction, adequation, allocation satisfaction and
// proposal count must be bit-equal to the reference's. Also pins the
// provider->consumer preference columns to PreferenceProfile semantics.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/hot_state.h"
#include "core/provider.h"
#include "core/registry.h"
#include "core/satisfaction.h"
#include "model/preference.h"
#include "util/rng.h"

namespace sbqa::core {
namespace {

/// One provider's window, kept as a deque of (normalized intention,
/// performed). `From scratch` values re-walk the deque at every call;
/// `running` values mirror the arena's O(1) update order (subtract the
/// evicted entry, then add the incoming one).
struct ReferenceWindow {
  size_t k;
  ProviderSatisfactionDenominator mode;
  std::deque<std::pair<double, bool>> entries;
  double running_all = 0;
  double running_performed = 0;

  void Push(double intention, bool performed) {
    const double norm = NormalizeIntention(intention);
    if (entries.size() == k) {
      running_all -= entries.front().first;
      if (entries.front().second) running_performed -= entries.front().first;
      entries.pop_front();
    }
    entries.emplace_back(norm, performed);
    running_all += norm;
    if (performed) running_performed += norm;
  }

  size_t performed() const {
    size_t n = 0;
    for (const auto& [norm, done] : entries) n += done ? 1 : 0;
    return n;
  }
  double SumPerformed() const {
    double sum = 0;
    for (const auto& [norm, done] : entries) {
      if (done) sum += norm;
    }
    return sum;
  }
  double SumAll() const {
    double sum = 0;
    for (const auto& [norm, done] : entries) sum += norm;
    return sum;
  }

  double Satisfaction(double sum_performed) const {
    const size_t n = performed();
    if (n == 0) return 0.0;
    const size_t denominator =
        mode == ProviderSatisfactionDenominator::kPerformedOnly
            ? n
            : entries.size();
    return sum_performed / static_cast<double>(denominator);
  }
  double Adequation(double sum_all) const {
    if (entries.empty()) return 0.0;
    return sum_all / static_cast<double>(entries.size());
  }
  double AllocationSatisfaction(double sum_performed) const {
    const size_t n = performed();
    if (n == 0) return 1.0;
    std::vector<double> sorted;
    for (const auto& [norm, done] : entries) sorted.push_back(norm);
    std::sort(sorted.begin(), sorted.end(), std::greater<double>());
    double best = 0;
    for (size_t i = 0; i < n; ++i) best += sorted[i];
    if (best <= 0) return 1.0;
    return std::clamp(sum_performed / best, 0.0, 1.0);
  }
};

/// Bit equality (EXPECT_EQ on doubles would accept -0.0 == 0.0).
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// A run of Definition 2 over several providers sharing one registry arena.
class ArenaRun {
 public:
  ArenaRun(size_t k, double k_spread, ProviderSatisfactionDenominator mode,
           uint64_t seed)
      : k_(k), k_spread_(k_spread), mode_(mode), rng_(seed) {}

  /// Registers one provider (a join once proposals are flowing).
  void AddProvider() {
    ProviderParams params;
    params.memory_k = k_;
    if (k_spread_ > 0) {
      const double k = static_cast<double>(k_);
      params.memory_k = static_cast<size_t>(std::max(
          1.0, rng_.Uniform(k * (1.0 - k_spread_), k * (1.0 + k_spread_))));
    }
    params.satisfaction_mode = mode_;
    const model::ProviderId id = registry_.AddProvider(params);
    ASSERT_EQ(static_cast<size_t>(id), reference_.size());
    reference_.push_back(ReferenceWindow{params.memory_k, mode_, {}, 0, 0});
  }

  /// Draws one intention: exactly -1 or +1 one time in five, otherwise a
  /// grid value (`dyadic`) or any double in [-1, 1].
  double DrawIntention(bool dyadic) {
    const double u = rng_.NextDouble();
    if (u < 0.1) return -1.0;
    if (u < 0.2) return 1.0;
    if (dyadic) {
      // Multiples of 2^-10: every normalized value and every sum of up to
      // a window of them is exact, so running sums equal re-walked ones.
      return static_cast<double>(rng_.UniformInt(0, 2048)) / 1024.0 - 1.0;
    }
    return rng_.Uniform(-1.0, 1.0);
  }

  void Propose(size_t provider, double intention, bool performed) {
    registry_.hot().RecordProposal(static_cast<uint32_t>(provider), intention,
                                   performed);
    reference_[provider].Push(intention, performed);
  }

  /// Checks every provider against its reference. `exact_sums`: compare
  /// with the re-walked sums (valid for dyadic streams); otherwise with the
  /// running sums in the arena's update order.
  void CheckAll(bool exact_sums, int step) {
    const ProviderHotState& hot = registry_.hot();
    for (size_t p = 0; p < reference_.size(); ++p) {
      const ReferenceWindow& ref = reference_[p];
      const auto slot = static_cast<uint32_t>(p);
      const double sum_performed =
          exact_sums ? ref.SumPerformed() : ref.running_performed;
      const double sum_all = exact_sums ? ref.SumAll() : ref.running_all;
      const ProviderSatisfactionTracker tracker =
          registry_.provider(static_cast<model::ProviderId>(p))
              .satisfaction_tracker();
      ASSERT_EQ(hot.proposal_count(slot), ref.entries.size())
          << "provider " << p << " step " << step;
      ASSERT_EQ(tracker.proposal_count(), ref.entries.size());
      ASSERT_EQ(hot.performed_count(slot), ref.performed());
      ASSERT_EQ(tracker.capacity(), ref.k);
      ASSERT_TRUE(SameBits(hot.Satisfaction(slot),
                           ref.Satisfaction(sum_performed)))
          << "provider " << p << " step " << step << ": "
          << hot.Satisfaction(slot) << " vs "
          << ref.Satisfaction(sum_performed);
      ASSERT_TRUE(SameBits(tracker.satisfaction(), hot.Satisfaction(slot)));
      ASSERT_TRUE(SameBits(hot.Adequation(slot), ref.Adequation(sum_all)))
          << "provider " << p << " step " << step;
      ASSERT_TRUE(SameBits(tracker.adequation(), hot.Adequation(slot)));
      ASSERT_TRUE(SameBits(hot.AllocationSatisfaction(slot),
                           ref.AllocationSatisfaction(sum_performed)))
          << "provider " << p << " step " << step;
      ASSERT_TRUE(SameBits(tracker.allocation_satisfaction(),
                           hot.AllocationSatisfaction(slot)));
    }
  }

  /// `steps` proposals to random providers; a join every `join_every`.
  void Run(int steps, int join_every, bool dyadic) {
    for (int step = 0; step < steps; ++step) {
      if (join_every > 0 && step % join_every == join_every - 1) {
        AddProvider();
      }
      const size_t p = static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(reference_.size()) - 1));
      Propose(p, DrawIntention(dyadic), rng_.Bernoulli(0.4));
      CheckAll(/*exact_sums=*/dyadic, step);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

 private:
  size_t k_;
  double k_spread_;
  ProviderSatisfactionDenominator mode_;
  util::Rng rng_;
  Registry registry_;
  std::vector<ReferenceWindow> reference_;
};

class ProviderStateSweep
    : public ::testing::TestWithParam<
          std::tuple<size_t, ProviderSatisfactionDenominator, double>> {};

TEST_P(ProviderStateSweep, ArenaMatchesDequeReferenceBitForBit) {
  const auto [k, mode, spread] = GetParam();
  for (bool dyadic : {true, false}) {
    ArenaRun run(k, spread, mode, k * 977 + (dyadic ? 1 : 2));
    for (int i = 0; i < 5; ++i) run.AddProvider();
    // Joins every 37 proposals: the arena regrows while windows are live.
    run.Run(/*steps=*/1500, /*join_every=*/37, dyadic);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KModesSpread, ProviderStateSweep,
    ::testing::Combine(
        ::testing::Values(size_t{1}, size_t{2}, size_t{7}, size_t{50}),
        ::testing::Values(ProviderSatisfactionDenominator::kPerformedOnly,
                          ProviderSatisfactionDenominator::kAllProposed),
        ::testing::Values(0.0, 0.5)));

TEST(ProviderStateTest, PerformedProposalNormalizingToZeroKeepsItsFlag) {
  // Intention -1 normalizes to 0; performed, it is stored as -0.0, so its
  // eviction still retires one performed proposal.
  Registry registry;
  ProviderParams params;
  params.memory_k = 2;
  registry.AddProvider(params);
  ProviderHotState& hot = registry.hot();
  hot.RecordProposal(0, -1.0, true);
  EXPECT_EQ(hot.performed_count(0), 1u);
  EXPECT_TRUE(SameBits(hot.Satisfaction(0), 0.0));
  hot.RecordProposal(0, 1.0, true);
  EXPECT_EQ(hot.performed_count(0), 2u);
  EXPECT_DOUBLE_EQ(hot.Satisfaction(0), 0.5);
  hot.RecordProposal(0, 1.0, false);  // evicts the -0.0 entry
  EXPECT_EQ(hot.performed_count(0), 1u);
  EXPECT_DOUBLE_EQ(hot.Satisfaction(0), 1.0);
  hot.RecordProposal(0, -1.0, false);  // evicts the performed +1
  EXPECT_EQ(hot.performed_count(0), 0u);
  EXPECT_DOUBLE_EQ(hot.Satisfaction(0), 0.0);
  EXPECT_DOUBLE_EQ(hot.Adequation(0), 0.5);
}

// --- Preference columns ------------------------------------------------------

/// Every (provider, consumer) lookup agrees with one PreferenceProfile per
/// provider, column reads included; ids past the known consumers and
/// negative ids read the default 0.
void ExpectColumnsMatchProfiles(
    const Registry& registry,
    const std::vector<model::PreferenceProfile>& profiles,
    int32_t consumer_span) {
  const ProviderHotState& hot = registry.hot();
  for (size_t p = 0; p < registry.provider_count(); ++p) {
    const auto slot = static_cast<uint32_t>(p);
    for (int32_t c = -2; c < consumer_span; ++c) {
      const double expected = profiles[p].Get(c);
      EXPECT_TRUE(SameBits(hot.Preference(slot, c), expected))
          << "provider " << p << " consumer " << c;
      EXPECT_TRUE(SameBits(
          registry.provider(static_cast<model::ProviderId>(p))
              .preferences()
              .Get(c),
          expected));
      const double* column = hot.PreferenceColumn(c);
      if (column != nullptr) {
        EXPECT_TRUE(SameBits(column[slot], expected));
      }
    }
  }
}

TEST(ProviderPreferenceColumnsTest, DefaultZeroAndClamping) {
  Registry registry;
  registry.AddProvider(ProviderParams{});
  const ProviderHotState& hot = registry.hot();
  EXPECT_EQ(hot.PreferenceColumn(0), nullptr);
  EXPECT_EQ(hot.Preference(0, 0), 0.0);
  EXPECT_EQ(hot.Preference(0, -1), 0.0);
  registry.SetProviderPreference(0, 3, 7.5);
  EXPECT_EQ(hot.Preference(0, 3), 1.0);
  registry.provider(0).preferences().Set(3, -2.0);
  EXPECT_EQ(hot.Preference(0, 3), -1.0);
  registry.provider(0).preferences().Set(1, 0.25);
  EXPECT_EQ(registry.provider(0).preferences().Get(1), 0.25);
  // Columns below the highest set consumer stay unmaterialized.
  EXPECT_EQ(hot.PreferenceColumn(2), nullptr);
  EXPECT_EQ(hot.Preference(0, 2), 0.0);
}

TEST(ProviderPreferenceColumnsTest, ConsumersBeforeAndAfterProviders) {
  Registry registry;
  util::Rng rng(61);
  std::vector<model::PreferenceProfile> profiles;
  const auto add_provider = [&] {
    registry.AddProvider(ProviderParams{});
    profiles.emplace_back();
  };
  const auto set = [&](size_t p, model::ConsumerId c, double v) {
    registry.SetProviderPreference(static_cast<model::ProviderId>(p), c, v);
    profiles[p].Set(c, v);
  };

  // Consumers first, then providers with preferences towards them.
  for (int c = 0; c < 3; ++c) registry.AddConsumer(ConsumerParams{});
  for (int p = 0; p < 10; ++p) add_provider();
  for (size_t p = 0; p < 10; ++p) {
    for (model::ConsumerId c = 0; c < 3; ++c) {
      if (rng.Bernoulli(0.7)) set(p, c, rng.Uniform(-1.5, 1.5));
    }
  }
  ExpectColumnsMatchProfiles(registry, profiles, 6);

  // Providers after the columns exist read the default until set; a
  // consumer added after the providers gets a column on its first Set.
  for (int p = 0; p < 70; ++p) add_provider();  // past the first growth
  const model::ConsumerId late = registry.AddConsumer(ConsumerParams{});
  ExpectColumnsMatchProfiles(registry, profiles, 6);
  for (size_t p = 0; p < registry.provider_count(); p += 3) {
    set(p, late, rng.Uniform(-1.5, 1.5));
  }
  for (int step = 0; step < 400; ++step) {
    if (step % 50 == 0) add_provider();
    const auto p = static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(registry.provider_count()) - 1));
    set(p, static_cast<model::ConsumerId>(rng.UniformInt(0, late)),
        rng.Uniform(-1.5, 1.5));
  }
  ExpectColumnsMatchProfiles(registry, profiles, 6);
}

TEST(ProviderPreferenceColumnsTest, ReservedPopulationNeverMovesAColumn) {
  // A column materialized in a reserved block is reserved with it: the
  // rest of the population appends in place.
  Registry registry;
  registry.ReserveProviders(200, 200 * 50);
  registry.AddConsumer(ConsumerParams{});
  registry.AddProvider(ProviderParams{});
  registry.SetProviderPreference(0, 0, 0.5);
  const double* column = registry.hot().PreferenceColumn(0);
  for (int p = 1; p < 200; ++p) {
    registry.AddProvider(ProviderParams{});
    registry.SetProviderPreference(p, 0, 0.5);
  }
  EXPECT_EQ(registry.hot().PreferenceColumn(0), column);
  for (int p = 0; p < 200; ++p) EXPECT_EQ(column[p], 0.5);
}

}  // namespace
}  // namespace sbqa::core
