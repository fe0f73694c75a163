#ifndef SBQA_CORE_SCORE_KERNEL_H_
#define SBQA_CORE_SCORE_KERNEL_H_

/// \file
/// Batched SoA scoring kernel for the phase-2 decision hot path.
///
/// Every SbQA mediation scores the consulted set Kn with Definition 3 after
/// gathering each candidate's intentions. The seed pipeline did that
/// per-candidate: two virtual policy calls, registry/reputation lookups
/// repeated across phases, two scalar std::pow per score and a full sort
/// for a top-n_results pick. This kernel moves the whole phase onto
/// structure-of-arrays planes:
///
///   gather      candidate hot state (expected completions through the
///               staleness-bounded load view, reputation, both preference
///               directions, utilization, provider satisfaction and policy
///               parameters) is pulled into pooled planes once,
///   intentions  PI/CI as flat data-parallel loops over the planes — the
///               trading blends use the exp(w*log x) identity with the
///               polynomial log/exp of util/fastmath.h,
///   score       Definition 3 via exp(omega*log PI + (1-omega)*log CI),
///               the negative branch handled as a lane select,
///   rank        bounded top-n_results selection (score desc, provider id
///               asc — the same total order as RankByScore, so the selected
///               prefix is identical to the seed's full sort).
///
/// Two selectable implementations share the structure:
///   kExact    bit-identical to the seed's per-candidate std::pow path —
///             the bit-reproducibility baseline and differential oracle.
///   kBatched  the SoA fast path (default). Scores agree with kExact to
///             ~1e-14 relative; ranks can only differ inside FP ties that
///             close. Equivalence is pinned by core_score_kernel_test.
///
/// The kernel is owned per call site (SbqaMethod owns one for its decision
/// path; each Mediator owns one for the normalization path and the
/// retry-path rescore), so plane scratch is never shared across threads.

#include <cstdint>
#include <span>
#include <vector>

#include "core/allocation_method.h"
#include "core/score.h"
#include "model/types.h"

namespace sbqa::model {
struct Query;
}

namespace sbqa::core {

class Mediator;
class ProviderHotState;

/// Which implementation scores the decision path.
enum class ScoreKernelKind {
  /// Per-candidate std::pow path, bit-identical to the seed pipeline.
  kExact,
  /// SoA planes + polynomial exp/log identity (the default).
  kBatched,
};

const char* ToString(ScoreKernelKind kind);

/// Accumulated per-phase decision-path nanoseconds. Phases only accumulate
/// while timing is enabled on the kernel; `decisions` counts every
/// ScoreAndSelect call regardless.
struct ScoreKernelPhases {
  double sample_ns = 0;      ///< KnBest K-sample + least-utilized filter
  double gather_ns = 0;      ///< plane gather (load view, reputation, ...)
  double intentions_ns = 0;  ///< PI/CI plane loops
  double score_ns = 0;       ///< omega + Definition 3 plane loops
  double rank_ns = 0;        ///< bounded top-n selection
  int64_t decisions = 0;

  void Clear();
  void Accumulate(const ScoreKernelPhases& other);
  double total_ns() const {
    return sample_ns + gather_ns + intentions_ns + score_ns + rank_ns;
  }
};

/// Scoring inputs of one mediation (a view over SbqaParams — kept separate
/// so the kernel header does not depend on core/sbqa.h).
struct ScoreSpec {
  OmegaMode omega_mode = OmegaMode::kAdaptive;
  double fixed_omega = 0.5;
  double epsilon = 1.0;
  double cold_start_consumer_satisfaction = 0.5;
};

class ScoreKernel {
 public:
  explicit ScoreKernel(ScoreKernelKind kind = ScoreKernelKind::kBatched,
                       bool timing_enabled = false)
      : kind_(kind), timing_(timing_enabled) {}

  ScoreKernelKind kind() const { return kind_; }
  bool timing_enabled() const { return timing_; }
  void set_timing_enabled(bool enabled) { timing_ = enabled; }
  const ScoreKernelPhases& phases() const { return phases_; }
  void ResetPhases() { phases_.Clear(); }

  /// Bracket for the caller-owned sample phase (KnBest runs outside the
  /// kernel): TimingNow() returns steady-clock ns when timing is enabled
  /// and 0 otherwise; AddSampleNs is a no-op when timing is off.
  int64_t TimingNow() const;
  void AddSampleNs(int64_t t0);

  /// The full phase-2 pipeline over decision->consulted (non-empty): fills
  /// provider_intentions, consumer_intentions, ect_normalizer and selected
  /// (top min(query.n_results, kn), best first). Allocation-free once the
  /// planes are warm (the decision's lists are inline up to
  /// kDecisionInlineWidth).
  void ScoreAndSelect(Mediator& mediator, const model::Query& query,
                      double now, const ScoreSpec& spec,
                      AllocationDecision* decision);

  /// PI_q[p] per provider (parallel to `providers`), replacing *out.
  void ProviderIntentions(const Mediator& mediator, const model::Query& query,
                          std::span<const model::ProviderId> providers,
                          IntentionList* out);

  /// CI_q[p] per provider (parallel to `providers`), replacing *out. The
  /// candidate set's max expected completion — the normalization context of
  /// the response-time policy — is returned through *max_ect (may be null).
  void ConsumerIntentions(Mediator& mediator, const model::Query& query,
                          std::span<const model::ProviderId> providers,
                          IntentionList* out, double* max_ect);

  /// Single-candidate CI rescore for the dispatch/retry path: scores
  /// `provider` in the first attempt's normalization context
  /// (decision.ect_normalizer) instead of against its own expected
  /// completion alone; falls back to the latter when the decision carries
  /// no normalizer (<= 0).
  double RescoreConsumerIntention(Mediator& mediator,
                                  const model::Query& query,
                                  model::ProviderId provider,
                                  double ect_normalizer);

  /// Flat SoA gathers over the hot-state arrays — the staleness-free fast
  /// path behind Mediator::BacklogsOf / ExpectedCompletionsOf, which is
  /// what the KnBest phase-2 utilization compare consumes. Replace *out.
  static void GatherBacklogs(const ProviderHotState& hot, double now,
                             std::span<const model::ProviderId> providers,
                             std::vector<double>* out);
  static void GatherExpectedCompletions(
      const ProviderHotState& hot, double now, double cost,
      std::span<const model::ProviderId> providers,
      std::vector<double>* out);

 private:
  /// Adds now - t0 to *counter and returns now (0 / no-op when timing is
  /// off).
  int64_t Lap(double* counter, int64_t t0);

  ScoreKernelKind kind_;
  bool timing_ = false;
  ScoreKernelPhases phases_;

  // SoA planes, pooled: grown to kn once, then recycled per decision.
  std::vector<double> ect_;     ///< expected completion (staleness view)
  std::vector<double> rep_;     ///< provider reputation in [0, 1]
  std::vector<double> pref_c_;  ///< consumer's preference for the provider
  std::vector<double> pref_p_;  ///< provider's preference for the consumer
  std::vector<double> util_;    ///< provider utilization in [0, 1)
  std::vector<double> psat_;    ///< provider satisfaction (Definition 2)
  std::vector<double> psi_;     ///< provider blend weight
  std::vector<double> omega_;   ///< Equation-2 (or fixed) omega per pair
  std::vector<double> score_;   ///< Definition-3 score
  /// Provider policy kind per lane, widened to double: the batched PI
  /// sweep picks between policies with an all-double compare+select, which
  /// keeps the whole plane loop vectorizable.
  std::vector<double> ppolicy_;
  std::vector<uint32_t> idx_;     ///< rank-selection permutation
};

}  // namespace sbqa::core

#endif  // SBQA_CORE_SCORE_KERNEL_H_
