// Equivalence and determinism tests for the batched SoA scoring kernel
// (core/score_kernel.h): the kExact kernel must reproduce the seed
// per-candidate pipeline bit for bit, and the kBatched kernel must agree
// with kExact up to documented FP tolerance — identical selected sets
// except inside floating-point ties, intentions within 1e-12 — plus a
// chi-squared check that tie-heavy allocation distributions match.

#include "core/score_kernel.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/mediator.h"
#include "core/sbqa.h"
#include "core/score.h"
#include "model/reputation.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace sbqa::core {
namespace {

/// Harness with a generated policy-diverse population. Two harnesses built
/// from the same (providers, seed, consumer_kind) are bit-identical — only
/// the kernel kind differs — so exact and batched runs see the same
/// population, the same RNG streams and therefore the same Kn samples.
struct KernelHarness {
  KernelHarness(int providers, uint64_t seed, ScoreKernelKind kind,
                model::ConsumerPolicyKind consumer_kind =
                    model::ConsumerPolicyKind::kReputationTrading,
                bool diversify = true) {
    sim::SimulationConfig sim_config;
    sim_config.seed = seed;
    simulation = std::make_unique<sim::Simulation>(sim_config);
    util::Rng gen(seed * 7919 + 17);  // population stream, not the sim's
    ConsumerParams consumer_params;
    consumer_params.policy_kind = consumer_kind;
    consumer_params.phi = diversify ? 0.3 + 0.6 * gen.NextDouble() : 0.7;
    registry.AddConsumer(consumer_params);
    for (int i = 0; i < providers; ++i) {
      ProviderParams params;
      params.capacity = diversify ? 0.5 + 3.0 * gen.NextDouble() : 1.0;
      if (diversify) {
        const double pick = gen.NextDouble();
        params.policy_kind =
            pick < 0.34 ? model::ProviderPolicyKind::kPreferenceOnly
            : pick < 0.67
                ? model::ProviderPolicyKind::kUtilizationTrading
                : model::ProviderPolicyKind::kLoadOnly;
        params.psi = 0.2 + 0.7 * gen.NextDouble();
      }
      registry.AddProvider(params);
      candidates.push_back(i);
    }
    reputation =
        std::make_unique<model::ReputationRegistry>(registry.provider_count());
    if (diversify) {
      for (int i = 0; i < providers; ++i) {
        // Mutual preferences, reputation history, provider satisfaction
        // windows and live backlog all spread across the population.
        registry.consumer(0).preferences().Set(
            i, gen.Uniform(-1.0, 1.0));
        registry.provider(i).preferences().Set(0, gen.Uniform(-1.0, 1.0));
        reputation->Record(i, gen.NextDouble());
        const int proposals = static_cast<int>(gen.NextDouble() * 4);
        for (int r = 0; r < proposals; ++r) {
          registry.provider(i).satisfaction_tracker().RecordProposal(
              gen.NextDouble(), gen.NextDouble() < 0.5);
        }
        if (gen.NextDouble() < 0.7) {
          registry.hot().Enqueue(static_cast<uint32_t>(i), 0.0,
                                 gen.Uniform(0.0, 8.0));
        }
      }
    }
    MediatorConfig config;
    config.scoring_kernel = kind;
    mediator = std::make_unique<Mediator>(simulation.get(), &registry,
                                          reputation.get(),
                                          std::make_unique<SbqaMethod>(
                                              SbqaParams{}),
                                          config);
  }

  AllocationDecision Allocate(SbqaMethod& method, int n_results = 1,
                              double cost = 1.0) {
    query.id = ++next_id;
    query.consumer = 0;
    query.n_results = n_results;
    query.cost = cost;
    AllocationContext ctx;
    ctx.query = &query;
    ctx.candidates = &candidate_set;
    ctx.mediator = mediator.get();
    ctx.now = simulation->now();
    AllocationDecision decision;
    method.Allocate(ctx, &decision);
    return decision;
  }

  std::unique_ptr<sim::Simulation> simulation;
  Registry registry;
  std::unique_ptr<model::ReputationRegistry> reputation;
  std::unique_ptr<Mediator> mediator;
  std::vector<model::ProviderId> candidates;
  CandidateSet candidate_set{&candidates};
  model::Query query;
  model::QueryId next_id = 0;
};

/// The exact (seed-pipeline) score of one candidate, recomputed from the
/// decision's own intentions — the oracle for FP-tie adjudication.
double ExactScoreOf(const KernelHarness& h, const SbqaParams& params,
                    model::ProviderId p, double pi, double ci) {
  double omega = params.fixed_omega;
  if (params.omega_mode == OmegaMode::kAdaptive) {
    const Consumer& consumer = h.registry.consumer(0);
    const double cs = consumer.satisfaction_tracker().sample_count() == 0
                          ? params.cold_start_consumer_satisfaction
                          : consumer.satisfaction();
    omega = AdaptiveOmega(cs, h.registry.provider(p).satisfaction());
  }
  return ProviderScore(pi, ci, omega, params.epsilon);
}

TEST(ScoreKernelTest, KindNames) {
  EXPECT_STREQ(ToString(ScoreKernelKind::kExact), "exact");
  EXPECT_STREQ(ToString(ScoreKernelKind::kBatched), "batched");
}

/// kExact must be bit-identical to the seed pipeline: recompute phase 2 by
/// hand (mediator intention helpers + AdaptiveOmega + ProviderScore +
/// RankByScore + prefix take) from the decision's consulted order and
/// compare every double with == (phase 2 consumes no randomness, so the
/// post-hoc recompute sees identical inputs).
TEST(ScoreKernelTest, ExactKernelMatchesSeedReferencePipeline) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    KernelHarness h(24, seed, ScoreKernelKind::kExact);
    SbqaParams params;
    params.knbest = KnBestParams{12, 6};
    params.scoring_kernel = ScoreKernelKind::kExact;
    SbqaMethod method(params);
    for (int round = 0; round < 6; ++round) {
      const int n_results = 1 + round % 3;
      const AllocationDecision d = h.Allocate(method, n_results);
      ASSERT_EQ(d.consulted.size(), 6u);

      const std::vector<double> pi =
          h.mediator->ComputeProviderIntentions(h.query, d.consulted);
      const std::vector<double> ci =
          h.mediator->ComputeConsumerIntentions(h.query, d.consulted);
      ASSERT_EQ(d.provider_intentions.size(), pi.size());
      ASSERT_EQ(d.consumer_intentions.size(), ci.size());
      std::vector<ScoredProvider> scored;
      for (size_t i = 0; i < d.consulted.size(); ++i) {
        EXPECT_EQ(d.provider_intentions[i], pi[i]);
        EXPECT_EQ(d.consumer_intentions[i], ci[i]);
        ScoredProvider sp;
        sp.provider = static_cast<int32_t>(d.consulted[i]);
        sp.provider_intention = pi[i];
        sp.consumer_intention = ci[i];
        sp.score = ExactScoreOf(h, params, d.consulted[i], pi[i], ci[i]);
        scored.push_back(sp);
      }
      RankByScore(&scored);
      const size_t take =
          std::min(static_cast<size_t>(n_results), scored.size());
      ASSERT_EQ(d.selected.size(), take);
      for (size_t i = 0; i < take; ++i) {
        EXPECT_EQ(d.selected[i],
                  static_cast<model::ProviderId>(scored[i].provider));
      }
    }
  }
}

/// Differential fuzz: identical populations and RNG streams, one method per
/// kernel. Consulted sets must match exactly (phase 1 is kernel-blind);
/// intentions agree to 1e-12; selected sets agree except inside FP ties,
/// adjudicated with the exact-score oracle at 1e-9.
TEST(ScoreKernelDifferentialTest, FuzzRankAgreement) {
  const model::ConsumerPolicyKind consumer_kinds[3] = {
      model::ConsumerPolicyKind::kPreferenceOnly,
      model::ConsumerPolicyKind::kReputationTrading,
      model::ConsumerPolicyKind::kResponseTimeOnly,
  };
  int compared = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const model::ConsumerPolicyKind consumer_kind = consumer_kinds[seed % 3];
    SbqaParams params;
    params.knbest = KnBestParams{16, 8};
    if (seed % 2 == 0) {
      params.omega_mode = OmegaMode::kFixed;
      params.fixed_omega = static_cast<double>(seed % 5) / 4.0;
    }
    KernelHarness he(32, seed, ScoreKernelKind::kExact, consumer_kind);
    KernelHarness hb(32, seed, ScoreKernelKind::kBatched, consumer_kind);
    SbqaParams pe = params;
    pe.scoring_kernel = ScoreKernelKind::kExact;
    SbqaParams pb = params;
    pb.scoring_kernel = ScoreKernelKind::kBatched;
    SbqaMethod me(pe);
    SbqaMethod mb(pb);
    for (int round = 0; round < 8; ++round) {
      const int n_results = 1 + round % 4;
      const double cost = 0.5 + 0.5 * (round % 3);
      const AllocationDecision de = he.Allocate(me, n_results, cost);
      const AllocationDecision db = hb.Allocate(mb, n_results, cost);
      ASSERT_EQ(de.consulted, db.consulted);
      ASSERT_EQ(de.selected.size(), db.selected.size());
      EXPECT_NEAR(de.ect_normalizer, db.ect_normalizer, 1e-12);
      for (size_t i = 0; i < de.consulted.size(); ++i) {
        EXPECT_NEAR(de.provider_intentions[i], db.provider_intentions[i],
                    1e-12);
        EXPECT_NEAR(de.consumer_intentions[i], db.consumer_intentions[i],
                    1e-12);
      }
      // Index of each consulted provider for score lookups.
      std::map<model::ProviderId, size_t> lane;
      for (size_t i = 0; i < de.consulted.size(); ++i) {
        lane[de.consulted[i]] = i;
      }
      for (size_t i = 0; i < de.selected.size(); ++i) {
        if (de.selected[i] == db.selected[i]) continue;
        // A rank divergence is only legal inside an FP tie: the exact
        // scores of the two picks must be within 1e-9.
        const size_t le = lane.at(de.selected[i]);
        const size_t lb = lane.at(db.selected[i]);
        const double score_e =
            ExactScoreOf(he, params, de.selected[i],
                         de.provider_intentions[le],
                         de.consumer_intentions[le]);
        const double score_b =
            ExactScoreOf(he, params, db.selected[i],
                         de.provider_intentions[lb],
                         de.consumer_intentions[lb]);
        EXPECT_NEAR(score_e, score_b, 1e-9)
            << "rank divergence outside an FP tie at seed " << seed
            << " round " << round << " position " << i;
      }
      ++compared;
    }
  }
  EXPECT_EQ(compared, 24 * 8);
}

/// Tie-heavy population (every lane identical): allocation frequencies
/// under the two kernels must be distribution-equivalent. Both kernels
/// break exact ties by provider id, so the winner histograms over the
/// random Kn samples should be statistically indistinguishable — gated
/// with a chi-squared statistic far below the df=63 critical value, in the
/// style of core_knbest_distribution_test.
TEST(ScoreKernelDifferentialTest, TieHeavyChiSquaredDistributionEquivalence) {
  constexpr int kProviders = 64;
  constexpr int kRounds = 4000;
  auto winner_counts = [&](ScoreKernelKind kind) {
    KernelHarness h(kProviders, /*seed=*/99, kind,
                    model::ConsumerPolicyKind::kReputationTrading,
                    /*diversify=*/false);
    // Uniform mutual interest: every pair scores identically.
    for (int i = 0; i < kProviders; ++i) {
      h.registry.consumer(0).preferences().Set(i, 0.6);
      h.registry.provider(i).preferences().Set(0, 0.4);
    }
    SbqaParams params;
    params.knbest = KnBestParams{8, 4};
    params.scoring_kernel = kind;
    SbqaMethod method(params);
    std::vector<int> counts(kProviders, 0);
    for (int round = 0; round < kRounds; ++round) {
      const AllocationDecision d = h.Allocate(method, 1);
      EXPECT_EQ(d.selected.size(), 1u);
      ++counts[static_cast<size_t>(d.selected[0])];
    }
    return counts;
  };
  const std::vector<int> exact = winner_counts(ScoreKernelKind::kExact);
  const std::vector<int> batched = winner_counts(ScoreKernelKind::kBatched);
  double chi_squared = 0;
  int winners_seen = 0;
  for (int i = 0; i < kProviders; ++i) {
    if (exact[i] > 0) ++winners_seen;
    const double expected = std::max(1.0, static_cast<double>(exact[i]));
    const double diff = static_cast<double>(batched[i] - exact[i]);
    chi_squared += diff * diff / expected;
  }
  // Chi-squared critical value for df = 63 at p = 0.999 is ~103.4; equal
  // tie-break rules should land far below it (identical samples give 0).
  EXPECT_LT(chi_squared, 103.4);
  // Sanity: the tie-heavy setup actually spreads wins across the
  // population (winner = min id of each random Kn sample).
  EXPECT_GT(winners_seen, kProviders / 2);
}

/// Same seed, same kernel => bit-identical decision streams, including
/// after satisfaction feedback (golden-seed determinism for both kernels).
TEST(ScoreKernelDeterminismTest, GoldenSeedBitIdenticalPerKernel) {
  for (ScoreKernelKind kind :
       {ScoreKernelKind::kExact, ScoreKernelKind::kBatched}) {
    auto run = [&] {
      KernelHarness h(20, /*seed=*/7, kind);
      SbqaParams params;
      params.knbest = KnBestParams{10, 5};
      params.scoring_kernel = kind;
      SbqaMethod method(params);
      std::vector<uint64_t> trace;
      for (int round = 0; round < 50; ++round) {
        const AllocationDecision d = h.Allocate(method, 2);
        for (model::ProviderId p : d.selected) {
          trace.push_back(static_cast<uint64_t>(p));
        }
        for (size_t i = 0; i < d.consulted.size(); ++i) {
          trace.push_back(std::bit_cast<uint64_t>(d.provider_intentions[i]));
          trace.push_back(std::bit_cast<uint64_t>(d.consumer_intentions[i]));
          h.registry.provider(d.consulted[i])
              .satisfaction_tracker()
              .RecordProposal(d.provider_intentions[i],
                              d.consulted[i] == d.selected[0]);
        }
      }
      return trace;
    };
    const std::vector<uint64_t> first = run();
    const std::vector<uint64_t> second = run();
    EXPECT_EQ(first, second) << "kernel " << ToString(kind);
  }
}

/// The dispatch-path rescore: in the decision's normalization context it
/// must equal the seed consumer-intention formula with max_ect =
/// ect_normalizer; with no context (<= 0) it falls back to the provider's
/// own expected completion (the seed scalar helper, bit for bit on the
/// exact kernel).
TEST(ScoreKernelTest, RescoreConsumerIntentionUsesDecisionContext) {
  for (ScoreKernelKind kind :
       {ScoreKernelKind::kExact, ScoreKernelKind::kBatched}) {
    KernelHarness h(8, /*seed=*/5, kind,
                    model::ConsumerPolicyKind::kResponseTimeOnly);
    ScoreKernel kernel(kind);
    h.query.id = 1;
    h.query.consumer = 0;
    h.query.cost = 2.0;
    const model::ProviderId p = 3;
    const double ect =
        h.mediator->ViewedBacklog(p) +
        h.query.cost / h.registry.hot().capacity(static_cast<uint32_t>(p));
    const Consumer& consumer = h.registry.consumer(0);

    const double in_context = kernel.RescoreConsumerIntention(
        *h.mediator, h.query, p, /*ect_normalizer=*/10.0 * ect);
    const double want_in_context = consumer.ComputeIntention(
        h.query, p, h.reputation->Get(p), ect, 10.0 * ect);
    const double fallback =
        kernel.RescoreConsumerIntention(*h.mediator, h.query, p, 0.0);
    const double want_fallback =
        h.mediator->ComputeConsumerIntention(h.query, p);
    if (kind == ScoreKernelKind::kExact) {
      EXPECT_EQ(in_context, want_in_context);
      EXPECT_EQ(fallback, want_fallback);
    } else {
      EXPECT_NEAR(in_context, want_in_context, 1e-12);
      EXPECT_NEAR(fallback, want_fallback, 1e-12);
    }
    // A farther normalization horizon makes the same backlog look better.
    EXPECT_GT(in_context, fallback - 1e-12);
  }
}

/// Phase accounting: decisions count always; per-phase timings only
/// accumulate when enabled.
TEST(ScoreKernelTest, PhaseTimingAccounting) {
  KernelHarness h(16, /*seed=*/11, ScoreKernelKind::kBatched);
  SbqaParams params;
  params.knbest = KnBestParams{8, 4};
  params.scoring_kernel = ScoreKernelKind::kBatched;
  SbqaMethod silent(params);
  for (int i = 0; i < 5; ++i) h.Allocate(silent, 1);
  EXPECT_EQ(silent.kernel().phases().decisions, 5);
  EXPECT_EQ(silent.kernel().phases().total_ns(), 0.0);

  params.decision_timing = true;
  SbqaMethod timed(params);
  for (int i = 0; i < 5; ++i) h.Allocate(timed, 1);
  EXPECT_EQ(timed.kernel().phases().decisions, 5);
  EXPECT_GT(timed.kernel().phases().total_ns(), 0.0);
  EXPECT_GT(timed.kernel().phases().sample_ns, 0.0);
  ScoreKernelPhases copy = timed.kernel().phases();
  copy.Accumulate(timed.kernel().phases());
  EXPECT_EQ(copy.decisions, 10);
  timed.kernel().ResetPhases();
  EXPECT_EQ(timed.kernel().phases().decisions, 0);
}

}  // namespace
}  // namespace sbqa::core
