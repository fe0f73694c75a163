#ifndef SBQA_CORE_SBQA_H_
#define SBQA_CORE_SBQA_H_

/// \file
/// The SbQA allocation method (paper §III): KnBest candidate filtering
/// followed by SQLB intention-balanced scoring.
///
/// Given query q and candidate set Pq, the mediator
///   1. selects k providers at random (set K),
///   2. keeps the kn least-utilized of K (set Kn),
///   3. gathers the consumer's intention CI_q[p] for every p in Kn and each
///      p's intention PI_q[p] to perform q (one message round-trip),
///   4. scores every p in Kn with Definition 3, using the self-adaptive
///      ω of Equation 2 (or a fixed application-chosen ω),
///   5. allocates q to the min(q.n, kn) best-scored providers and notifies
///      the consumer and all of Kn.
///
/// Pure SQLB (no load-aware filtering) is the special case k = kn = |Pq|,
/// exposed via SqlbParams().

#include <string>

#include "core/allocation_method.h"
#include "core/knbest.h"
#include "core/score.h"
#include "core/score_kernel.h"

namespace sbqa::core {

/// Parameters of the SbQA mediation.
struct SbqaParams {
  /// KnBest filter; {0, 0} consults all of Pq (pure SQLB).
  KnBestParams knbest{10, 4};
  /// Adaptive (Equation 2) or application-fixed ω.
  OmegaMode omega_mode = OmegaMode::kAdaptive;
  /// Used when omega_mode == kFixed; 0 = consumer interests only,
  /// 1 = provider interests only.
  double fixed_omega = 0.5;
  /// Definition 3's ε (> 0).
  double epsilon = 1.0;
  /// Consumer satisfaction assumed before any query completed (used by
  /// Equation 2 at cold start; providers start at the paper-mandated 0).
  double cold_start_consumer_satisfaction = 0.5;
  /// Which decision-path kernel scores Kn (see core/score_kernel.h): the
  /// batched SoA planes by default. ScoreKernelKind::kExact, the seed's
  /// bit-exact per-candidate std::pow pipeline, is the differential
  /// oracle that tests and the scaling bench build here; no run-level
  /// option or flag selects it.
  ScoreKernelKind scoring_kernel = ScoreKernelKind::kBatched;
  /// Collect per-phase decision timings (sample / gather / intentions /
  /// score / rank ns) on the kernel. Off by default: two steady-clock
  /// reads per phase.
  bool decision_timing = false;
  /// Report name; defaults to "SbQA" ("SQLB" via SqlbParams()).
  std::string name = "SbQA";
};

/// Convenience: parameters for pure SQLB (score every candidate, no KnBest
/// load filter).
SbqaParams SqlbParams(OmegaMode omega_mode = OmegaMode::kAdaptive,
                      double fixed_omega = 0.5);

/// The framework's flagship method.
class SbqaMethod : public AllocationMethod {
 public:
  explicit SbqaMethod(const SbqaParams& params);

  std::string name() const override { return params_.name; }
  void Allocate(const AllocationContext& ctx,
                AllocationDecision* decision) override;

  const SbqaParams& params() const { return params_; }

  /// The phase-2 scoring kernel (kind, per-phase timings).
  const ScoreKernel& kernel() const { return kernel_; }
  ScoreKernel& kernel() { return kernel_; }

 private:
  SbqaParams params_;
  /// Owns the SoA planes; reused across queries — together with the pooled
  /// decision vectors the steady-state hot path allocates nothing.
  ScoreKernel kernel_;
  KnBestScratch knbest_scratch_;
};

}  // namespace sbqa::core

#endif  // SBQA_CORE_SBQA_H_
