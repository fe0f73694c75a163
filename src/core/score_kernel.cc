#include "core/score_kernel.h"

#include <algorithm>
#include <chrono>

#include "core/allocation_method.h"
#include "core/consumer.h"
#include "core/hot_state.h"
#include "core/mediator.h"
#include "core/registry.h"
#include "model/intention.h"
#include "model/query.h"
#include "model/reputation.h"
#include "util/check.h"
#include "util/fastmath.h"

namespace sbqa::core {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Multi-ISA clones for the plane sweeps: GCC emits a baseline and an
/// AVX2+FMA body and picks per host at load time (IFUNC), so the library
/// stays portable while the bench/CI hosts run 4-wide. Disabled under
/// sanitizers (their runtimes and IFUNC resolution don't mix) and on
/// non-x86 or non-GCC builds, where the plain -O3 body still vectorizes
/// to whatever the baseline ISA offers.
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_ADDRESS__) &&           \
    !defined(__SANITIZE_THREAD__)
#define SBQA_PLANE_CLONES __attribute__((target_clones("avx2,fma", "default")))
#else
#define SBQA_PLANE_CLONES
#endif

// Per-lane helpers must inline into the plane loops for those loops to
// vectorize: a remaining call is a "relevant stmt not supported" for the
// vectorizer, and target_clones functions can't inline across-ISA calls.
#if defined(__GNUC__)
#define SBQA_LANE_INLINE inline __attribute__((always_inline))
#else
#define SBQA_LANE_INLINE inline
#endif

/// util::WeightedGeometricBlend with the two std::pow calls replaced by
/// the exp/log identity — same normalization and clamps. PlaneLog maps a
/// zero base to a finite ~-746.6, so a weight of exactly 0 multiplies it
/// into -0 and that factor drops out of the sum (no weight guards, no
/// branches — the enclosing plane loops vectorize).
SBQA_LANE_INLINE double BatchedBlend(double x, double y, double w) {
  const double xn = (std::clamp(x, -1.0, 1.0) + 1.0) / 2.0;
  const double yn = (std::clamp(y, -1.0, 1.0) + 1.0) / 2.0;
  const double e = w * util::PlaneLog(xn) + (1.0 - w) * util::PlaneLog(yn);
  const double acc = util::PlaneExp(e);
  return 2.0 * std::clamp(acc, 0.0, 1.0) - 1.0;
}

constexpr double kPolicyUtilizationTrading = static_cast<double>(
    static_cast<int>(model::ProviderPolicyKind::kUtilizationTrading));
constexpr double kPolicyLoadOnly =
    static_cast<double>(static_cast<int>(model::ProviderPolicyKind::kLoadOnly));

/// One PI lane, branchless: the provider policies of model/intention.h
/// over gathered state, including Provider::ComputeIntention's final
/// clamp. The trading blend is evaluated on every lane (the gathered
/// inputs are always valid) and the policy picks by select, which is what
/// lets a whole PI plane go through SIMD lanes.
SBQA_LANE_INLINE double ProviderLane(double policy, double psi, double preference,
                    double utilization) {
  const double blend =
      BatchedBlend(preference, 1.0 - 2.0 * utilization, psi);
  const double loadv = 1.0 - 2.0 * std::clamp(utilization, 0.0, 1.0);
  const double v = policy == kPolicyUtilizationTrading
                       ? blend
                       : (policy == kPolicyLoadOnly ? loadv : preference);
  return std::clamp(v, -1.0, 1.0);
}

/// Scalar-call form of the PI lane for the mediator's introspection path.
double BatchedProviderIntention(model::ProviderPolicyKind policy, double psi,
                                double preference, double utilization) {
  return ProviderLane(static_cast<double>(static_cast<int>(policy)), psi,
                      preference, utilization);
}

// --- fused PI/CI plane sweeps, one per consumer policy --------------------
// The consumer switch is hoisted out of ScoreAndSelect's hot loop; each
// body is a straight, branch-free sweep over the gathered planes that the
// compiler vectorizes (see SBQA_PLANE_CLONES above). The planes are
// distinct ScoreKernel member vectors, so __restrict is sound and spares
// the vectorizer its runtime alias checks (with 7+ pointers it gives up
// instead of versioning).

SBQA_PLANE_CLONES
void IntentionPlanesPreferenceOnly(size_t n, const double* __restrict policy,
                                   const double* __restrict psi,
                                   const double* __restrict pref_p,
                                   const double* __restrict util,
                                   const double* __restrict pref_c,
                                   double* __restrict pi,
                                   double* __restrict ci) {
  for (size_t i = 0; i < n; ++i) {
    pi[i] = ProviderLane(policy[i], psi[i], pref_p[i], util[i]);
    ci[i] = std::clamp(pref_c[i], -1.0, 1.0);
  }
}

SBQA_PLANE_CLONES
void IntentionPlanesReputationTrading(size_t n, const double* __restrict policy,
                                      const double* __restrict psi,
                                      const double* __restrict pref_p,
                                      const double* __restrict util,
                                      const double* __restrict pref_c,
                                      const double* __restrict rep, double phi,
                                      double* __restrict pi,
                                      double* __restrict ci) {
  for (size_t i = 0; i < n; ++i) {
    pi[i] = ProviderLane(policy[i], psi[i], pref_p[i], util[i]);
    ci[i] = BatchedBlend(pref_c[i],
                         2.0 * std::clamp(rep[i], 0.0, 1.0) - 1.0, phi);
  }
}

SBQA_PLANE_CLONES
void IntentionPlanesResponseTime(size_t n, const double* __restrict policy,
                                 const double* __restrict psi,
                                 const double* __restrict pref_p,
                                 const double* __restrict util,
                                 const double* __restrict ect, double denom,
                                 double* __restrict pi,
                                 double* __restrict ci) {
  for (size_t i = 0; i < n; ++i) {
    pi[i] = ProviderLane(policy[i], psi[i], pref_p[i], util[i]);
    ci[i] = 1.0 - 2.0 * std::clamp(ect[i] / denom, 0.0, 1.0);
  }
}

/// Flat-lane CI: the consumer policies of model/intention.h over gathered
/// state, including Consumer::ComputeIntention's final clamp.
double BatchedConsumerIntention(model::ConsumerPolicyKind policy, double phi,
                                double preference, double reputation,
                                double ect, double max_ect) {
  double v;
  switch (policy) {
    case model::ConsumerPolicyKind::kPreferenceOnly:
      v = preference;
      break;
    case model::ConsumerPolicyKind::kReputationTrading:
      v = BatchedBlend(preference,
                       2.0 * std::clamp(reputation, 0.0, 1.0) - 1.0, phi);
      break;
    case model::ConsumerPolicyKind::kResponseTimeOnly: {
      const double denom = max_ect > 0 ? max_ect : 1.0;
      v = 1.0 - 2.0 * std::clamp(ect / denom, 0.0, 1.0);
      break;
    }
    default:
      v = preference;
      break;
  }
  return std::clamp(v, -1.0, 1.0);
}

/// Definition 3 on one lane via exp(omega*log x + (1-omega)*log y); both
/// branch bases are strictly positive (positive branch by the branch
/// condition, negative branch by epsilon > 0), and the branch itself is a
/// lane select.
SBQA_LANE_INLINE double BatchedScore(double provider_intention, double consumer_intention,
                    double omega, double epsilon) {
  const double pi = std::clamp(provider_intention, -1.0, 1.0);
  const double ci = std::clamp(consumer_intention, -1.0, 1.0);
  // "both positive" as a single double compare (min > 0): a shared bool
  // across the three selects leaves a scalar stmt the vectorizer rejects,
  // while an all-double compare if-converts into lane masks.
  const double m = std::min(pi, ci);
  const double x = m > 0.0 ? pi : 1.0 - pi + epsilon;
  const double y = m > 0.0 ? ci : 1.0 - ci + epsilon;
  const double s = util::PlaneExp(omega * util::PlaneLog(x) +
                                  (1.0 - omega) * util::PlaneLog(y));
  return m > 0.0 ? s : -s;
}

/// Score plane with Equation 2's adaptive omega folded into the sweep.
SBQA_PLANE_CLONES
void ScorePlaneAdaptive(size_t n, const double* __restrict pi,
                        const double* __restrict ci,
                        const double* __restrict psat,
                        double consumer_satisfaction, double epsilon,
                        double* __restrict score) {
  for (size_t i = 0; i < n; ++i) {
    const double omega = std::clamp(
        ((consumer_satisfaction - psat[i]) + 1.0) / 2.0, 0.0, 1.0);
    score[i] = BatchedScore(pi[i], ci[i], omega, epsilon);
  }
}

SBQA_PLANE_CLONES
void ScorePlaneFixed(size_t n, const double* __restrict pi,
                     const double* __restrict ci, double omega, double epsilon,
                     double* __restrict score) {
  for (size_t i = 0; i < n; ++i) {
    score[i] = BatchedScore(pi[i], ci[i], omega, epsilon);
  }
}

}  // namespace

const char* ToString(ScoreKernelKind kind) {
  switch (kind) {
    case ScoreKernelKind::kExact:
      return "exact";
    case ScoreKernelKind::kBatched:
      return "batched";
  }
  return "?";
}

void ScoreKernelPhases::Clear() { *this = ScoreKernelPhases(); }

void ScoreKernelPhases::Accumulate(const ScoreKernelPhases& other) {
  sample_ns += other.sample_ns;
  gather_ns += other.gather_ns;
  intentions_ns += other.intentions_ns;
  score_ns += other.score_ns;
  rank_ns += other.rank_ns;
  decisions += other.decisions;
}

int64_t ScoreKernel::TimingNow() const { return timing_ ? NowNs() : 0; }

void ScoreKernel::AddSampleNs(int64_t t0) {
  if (!timing_) return;
  phases_.sample_ns += static_cast<double>(NowNs() - t0);
}

int64_t ScoreKernel::Lap(double* counter, int64_t t0) {
  if (!timing_) return 0;
  const int64_t now = NowNs();
  *counter += static_cast<double>(now - t0);
  return now;
}

void ScoreKernel::ScoreAndSelect(Mediator& mediator, const model::Query& query,
                                 double now, const ScoreSpec& spec,
                                 AllocationDecision* decision) {
  SBQA_CHECK(decision != nullptr);
  SBQA_CHECK_GT(spec.epsilon, 0);
  const std::span<const model::ProviderId> kn = decision->consulted;
  const size_t n = kn.size();
  SBQA_CHECK(!kn.empty());
  const Registry& registry = mediator.registry();
  const Consumer& consumer = registry.consumer(query.consumer);
  // Equation 2's delta_s(c), with the configured cold-start stand-in
  // before any query completed. A borrowed query's consumer lives on
  // another shard, which may be recording outcomes into it right now: the
  // registry hands this shard the copy published at the last barrier.
  const Registry::ConsumerSatisfaction seen =
      registry.ConsumerSatisfactionFor(query.consumer, mediator.shard());
  const double consumer_satisfaction =
      seen.sample_count == 0 ? spec.cold_start_consumer_satisfaction
                             : seen.satisfaction;
  const bool batched = kind_ == ScoreKernelKind::kBatched;

  int64_t t = TimingNow();

  // --- gather: pooled planes, one pass over the candidate list ------------
  // Expected completions flow through the mediator's staleness-bounded load
  // view on both kernels (identical values; the view cache updates in the
  // same order as the seed pipeline). The batched kernel additionally pulls
  // every other per-candidate input exactly once — reputation, both
  // preference directions, utilization, satisfaction and the policy
  // parameters — where the exact path re-fetches them per phase below.
  mediator.ExpectedCompletionsOf(query, kn, &ect_);
  double max_ect = 0;
  if (batched) {
    rep_.resize(n);
    pref_c_.resize(n);
    pref_p_.resize(n);
    util_.resize(n);
    psat_.resize(n);
    psi_.resize(n);
    ppolicy_.resize(n);
    const model::ReputationRegistry& reputation = mediator.reputation();
    const model::PreferenceProfile& consumer_prefs = consumer.preferences();
    // Provider-side inputs come straight from the registry's id-indexed
    // planes; the query's consumer selects one preference column.
    const ProviderHotState& hot = registry.hot();
    const double* pref_column = hot.PreferenceColumn(query.consumer);
    for (size_t i = 0; i < n; ++i) {
      const model::ProviderId p = kn[i];
      const auto slot = static_cast<uint32_t>(p);
      rep_[i] = reputation.Get(p);
      pref_c_[i] = consumer_prefs.Get(p);
      pref_p_[i] = pref_column != nullptr ? pref_column[slot] : 0.0;
      util_[i] = hot.UtilizationNorm(slot, now);
      psat_[i] = hot.Satisfaction(slot);
      psi_[i] = hot.psi(slot);
      ppolicy_[i] =
          static_cast<double>(static_cast<int>(hot.policy_kind(slot)));
      max_ect = std::max(max_ect, ect_[i]);
    }
  } else {
    for (double e : ect_) max_ect = std::max(max_ect, e);
  }
  decision->ect_normalizer = max_ect;
  t = Lap(&phases_.gather_ns, t);

  // --- intentions: PI/CI planes, written into the decision's pooled
  // --- lists (they ARE the SoA output planes) ------------------------------
  IntentionList& pi = decision->provider_intentions;
  IntentionList& ci = decision->consumer_intentions;
  if (batched) {
    pi.resize(n);
    ci.resize(n);
    // One fused, vectorized pass per consumer policy: the PI lane and the
    // CI lane of a candidate share loop overhead, and the consumer switch
    // is hoisted so each body is a straight plane sweep.
    const model::ConsumerPolicyKind ckind = consumer.params().policy_kind;
    const double phi = consumer.params().phi;
    switch (ckind) {
      case model::ConsumerPolicyKind::kPreferenceOnly:
        IntentionPlanesPreferenceOnly(n, ppolicy_.data(), psi_.data(),
                                      pref_p_.data(), util_.data(),
                                      pref_c_.data(), pi.data(), ci.data());
        break;
      case model::ConsumerPolicyKind::kReputationTrading:
        IntentionPlanesReputationTrading(
            n, ppolicy_.data(), psi_.data(), pref_p_.data(), util_.data(),
            pref_c_.data(), rep_.data(), phi, pi.data(), ci.data());
        break;
      case model::ConsumerPolicyKind::kResponseTimeOnly:
        IntentionPlanesResponseTime(n, ppolicy_.data(), psi_.data(),
                                    pref_p_.data(), util_.data(), ect_.data(),
                                    max_ect > 0 ? max_ect : 1.0, pi.data(),
                                    ci.data());
        break;
    }
  } else {
    pi.clear();
    pi.reserve(n);
    for (model::ProviderId p : kn) {
      pi.push_back(registry.hot().Intention(static_cast<uint32_t>(p), query,
                                            now));
    }
    ci.clear();
    ci.reserve(n);
    const model::ReputationRegistry& reputation = mediator.reputation();
    for (size_t i = 0; i < n; ++i) {
      ci.push_back(consumer.ComputeIntention(query, kn[i],
                                             reputation.Get(kn[i]), ect_[i],
                                             max_ect));
    }
  }
  t = Lap(&phases_.intentions_ns, t);

  // --- score: omega (Equation 2) and Definition 3 planes -------------------
  score_.resize(n);
  if (batched) {
    // Omega folds into the score sweep: same per-lane arithmetic as
    // AdaptiveOmega over the gathered satisfaction plane, no intermediate
    // plane round-trip.
    if (spec.omega_mode == OmegaMode::kAdaptive) {
      ScorePlaneAdaptive(n, pi.data(), ci.data(), psat_.data(),
                         consumer_satisfaction, spec.epsilon, score_.data());
    } else {
      ScorePlaneFixed(n, pi.data(), ci.data(), spec.fixed_omega, spec.epsilon,
                      score_.data());
    }
  } else {
    omega_.resize(n);
    if (spec.omega_mode == OmegaMode::kAdaptive) {
      for (size_t i = 0; i < n; ++i) {
        omega_[i] = AdaptiveOmega(
            consumer_satisfaction,
            registry.hot().Satisfaction(static_cast<uint32_t>(kn[i])));
      }
    } else {
      for (size_t i = 0; i < n; ++i) omega_[i] = spec.fixed_omega;
    }
    for (size_t i = 0; i < n; ++i) {
      score_[i] = ProviderScore(pi[i], ci[i], omega_[i], spec.epsilon);
    }
  }
  t = Lap(&phases_.score_ns, t);

  // --- rank: bounded top-n selection ---------------------------------------
  // Partial selection under the RankByScore total order (score desc,
  // provider id asc): the selected prefix is identical to a full sort at
  // O(take * kn) instead of O(kn log kn).
  const size_t take =
      std::min(static_cast<size_t>(query.n_results), n);
  idx_.resize(n);
  for (size_t i = 0; i < n; ++i) idx_[i] = static_cast<uint32_t>(i);
  for (size_t r = 0; r < take; ++r) {
    size_t best = r;
    for (size_t j = r + 1; j < n; ++j) {
      const uint32_t a = idx_[j];
      const uint32_t b = idx_[best];
      if (score_[a] > score_[b] ||
          (score_[a] == score_[b] && kn[a] < kn[b])) {
        best = j;
      }
    }
    std::swap(idx_[r], idx_[best]);
    decision->selected.push_back(kn[idx_[r]]);
  }
  Lap(&phases_.rank_ns, t);
  ++phases_.decisions;
}

void ScoreKernel::ProviderIntentions(
    const Mediator& mediator, const model::Query& query,
    std::span<const model::ProviderId> providers, IntentionList* out) {
  SBQA_CHECK(out != nullptr);
  const ProviderHotState& hot = mediator.registry().hot();
  const double now = mediator.now();
  out->clear();
  out->reserve(providers.size());
  if (kind_ == ScoreKernelKind::kExact) {
    for (model::ProviderId p : providers) {
      out->push_back(hot.Intention(static_cast<uint32_t>(p), query, now));
    }
    return;
  }
  for (model::ProviderId p : providers) {
    const auto slot = static_cast<uint32_t>(p);
    out->push_back(BatchedProviderIntention(
        hot.policy_kind(slot), hot.psi(slot),
        hot.Preference(slot, query.consumer), hot.UtilizationNorm(slot, now)));
  }
}

void ScoreKernel::ConsumerIntentions(
    Mediator& mediator, const model::Query& query,
    std::span<const model::ProviderId> providers, IntentionList* out,
    double* max_ect) {
  SBQA_CHECK(out != nullptr);
  mediator.ExpectedCompletionsOf(query, providers, &ect_);
  double normalizer = 0;
  for (double e : ect_) normalizer = std::max(normalizer, e);
  const Consumer& consumer = mediator.registry().consumer(query.consumer);
  const model::ReputationRegistry& reputation = mediator.reputation();
  out->clear();
  out->reserve(providers.size());
  if (kind_ == ScoreKernelKind::kExact) {
    for (size_t i = 0; i < providers.size(); ++i) {
      out->push_back(consumer.ComputeIntention(query, providers[i],
                                               reputation.Get(providers[i]),
                                               ect_[i], normalizer));
    }
  } else {
    const model::ConsumerPolicyKind ckind = consumer.params().policy_kind;
    const double phi = consumer.params().phi;
    const model::PreferenceProfile& prefs = consumer.preferences();
    for (size_t i = 0; i < providers.size(); ++i) {
      out->push_back(BatchedConsumerIntention(
          ckind, phi, prefs.Get(providers[i]), reputation.Get(providers[i]),
          ect_[i], normalizer));
    }
  }
  if (max_ect != nullptr) *max_ect = normalizer;
}

double ScoreKernel::RescoreConsumerIntention(Mediator& mediator,
                                             const model::Query& query,
                                             model::ProviderId provider,
                                             double ect_normalizer) {
  const double ect =
      mediator.ViewedBacklog(provider) +
      query.cost /
          mediator.registry().hot().capacity(static_cast<uint32_t>(provider));
  const double normalizer = ect_normalizer > 0 ? ect_normalizer : ect;
  const Consumer& consumer = mediator.registry().consumer(query.consumer);
  if (kind_ == ScoreKernelKind::kExact) {
    return consumer.ComputeIntention(query, provider,
                                     mediator.reputation().Get(provider), ect,
                                     normalizer);
  }
  return BatchedConsumerIntention(
      consumer.params().policy_kind, consumer.params().phi,
      consumer.preferences().Get(provider),
      mediator.reputation().Get(provider), ect, normalizer);
}

void ScoreKernel::GatherBacklogs(
    const ProviderHotState& hot, double now,
    std::span<const model::ProviderId> providers,
    std::vector<double>* out) {
  SBQA_CHECK(out != nullptr);
  const size_t n = providers.size();
  out->resize(n);
  double* dst = out->data();
  for (size_t i = 0; i < n; ++i) {
    dst[i] = hot.Backlog(static_cast<uint32_t>(providers[i]), now);
  }
}

void ScoreKernel::GatherExpectedCompletions(
    const ProviderHotState& hot, double now, double cost,
    std::span<const model::ProviderId> providers,
    std::vector<double>* out) {
  SBQA_CHECK(out != nullptr);
  const size_t n = providers.size();
  out->resize(n);
  double* dst = out->data();
  for (size_t i = 0; i < n; ++i) {
    const uint32_t slot = static_cast<uint32_t>(providers[i]);
    dst[i] = hot.Backlog(slot, now) + cost / hot.capacity(slot);
  }
}

}  // namespace sbqa::core
