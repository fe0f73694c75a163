#ifndef SBQA_CORE_SATISFACTION_H_
#define SBQA_CORE_SATISFACTION_H_

/// \file
/// The SbQA satisfaction model (paper §II).
///
/// * Equation 1: a consumer's satisfaction for one query,
///   δs(c,q) = (1/n) Σ_{p ∈ P̂q} (CI_q[p]+1)/2, over the providers P̂q that
///   actually performed q, with n the number of results required.
/// * Definition 1: a consumer's long-run satisfaction — the mean of
///   δs(c,q) over its k last queries.
/// * Definition 2: a provider's long-run satisfaction — the mean of
///   (PPI_p[q]+1)/2 over the queries it performed among the k last queries
///   proposed to it; 0 when it performed none.
///
/// The companion *adequation* and *allocation satisfaction* notions are
/// defined in the SQLB paper [12] and only referenced here; this module
/// implements documented reconstructions (see DESIGN.md): adequation is the
/// windowed mean of normalized intentions over every candidate/proposal
/// (what the system offers), and allocation satisfaction relates obtained
/// satisfaction to the best satisfaction achievable for the same window.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "util/check.h"
#include "util/sliding_window.h"

namespace sbqa::core {

class ProviderHotState;

/// Maps an intention in [-1, 1] to the unit interval: (i + 1) / 2.
inline double NormalizeIntention(double intention) {
  if (intention < -1.0) intention = -1.0;
  if (intention > 1.0) intention = 1.0;
  return (intention + 1.0) / 2.0;
}

/// Equation 1. `performer_intentions` holds CI_q[p] for each p ∈ P̂q (the
/// providers that performed q); `n_required` is q.n. If fewer than
/// `n_required` providers performed, the missing terms count as zero, which
/// is exactly the paper's divisor-by-n semantics. Extra performers beyond
/// n (over-allocation) are averaged over the actual count instead so the
/// value stays in [0, 1].
double ConsumerQuerySatisfaction(std::span<const double> performer_intentions,
                                 int n_required);

/// Reconstructed adequation for one query: the mean normalized intention
/// over the candidate set the mediator considered. Measures what the system
/// could offer, independent of the final choice. Returns 0 for an empty set.
double ConsumerQueryAdequation(std::span<const double> candidate_intentions);

/// Reconstructed allocation satisfaction for one query: obtained
/// satisfaction divided by the best satisfaction achievable by allocating
/// the n most-preferred candidates. 1 when the mediator did as well as
/// possible; 1 (vacuously) when nothing was achievable.
double ConsumerQueryAllocationSatisfaction(
    double obtained_satisfaction,
    std::span<const double> candidate_intentions, int n_required);

/// Long-run consumer-side memory over the k last issued queries (Def. 1).
class ConsumerSatisfactionTracker {
 public:
  /// `k` is the interaction-memory length (window capacity).
  explicit ConsumerSatisfactionTracker(size_t k);

  /// Records the per-query values once query q completes.
  void RecordQuery(double satisfaction, double adequation,
                   double allocation_satisfaction);

  /// Definition 1. Returns `empty_value` before any query completed
  /// (the paper leaves this undefined; callers that aggregate should check
  /// sample_count()).
  double satisfaction(double empty_value = 0.0) const {
    return satisfaction_.Mean(empty_value);
  }
  /// Windowed mean adequation (reconstruction).
  double adequation(double empty_value = 0.0) const {
    return adequation_.Mean(empty_value);
  }
  /// Windowed mean allocation satisfaction (reconstruction).
  double allocation_satisfaction(double empty_value = 1.0) const {
    return allocation_.Mean(empty_value);
  }

  size_t sample_count() const { return satisfaction_.size(); }
  size_t capacity() const { return satisfaction_.capacity(); }
  bool window_full() const { return satisfaction_.full(); }

 private:
  util::WindowedMean satisfaction_;
  util::WindowedMean adequation_;
  util::WindowedMean allocation_;
};

/// Which denominator Definition 2 uses. The paper text divides by the
/// number of *performed* queries (kPerformedOnly); dividing by the window
/// size instead (kAllProposed) additionally penalizes a low win-rate and is
/// provided for the ablation bench.
enum class ProviderSatisfactionDenominator {
  kPerformedOnly,
  kAllProposed,
};

/// Long-run provider-side memory over the k last *proposed* queries
/// (Definition 2). Each proposal records the provider's expressed intention
/// PPI_p[q] and whether the provider ended up performing q.
///
/// A view over one slot of a ProviderHotState block, where the window and
/// its running sums live (one copy: the registry's provider views and the
/// mediator's hot path read and write the same slot). A standalone tracker
/// (tests, tools) owns a private single-slot block.
class ProviderSatisfactionTracker {
 public:
  /// Standalone: a private block holding one window of `k` proposals.
  explicit ProviderSatisfactionTracker(
      size_t k, ProviderSatisfactionDenominator mode =
                    ProviderSatisfactionDenominator::kPerformedOnly);

  /// View over `slot` of `hot`, which must outlive the view.
  ProviderSatisfactionTracker(ProviderHotState* hot, uint32_t slot);

  ~ProviderSatisfactionTracker();  // out of line: ProviderHotState is opaque

  /// Records one mediation in which this provider was consulted.
  void RecordProposal(double intention, bool performed);

  /// Definition 2; 0 when no proposed query was performed (or none proposed).
  double satisfaction() const;

  /// Reconstructed adequation: mean normalized intention over *all*
  /// proposals in the window (what the mediator offers this provider).
  /// Returns 0 when nothing was proposed.
  double adequation() const;

  /// Reconstructed allocation satisfaction: Definition-2 satisfaction
  /// relative to the best achievable had the provider performed the queries
  /// it wanted most (the top-m intentions among proposals, m = performed
  /// count). 1 when optimal or vacuous. O(k log k), allocation-free once
  /// warm.
  double allocation_satisfaction() const;

  size_t proposal_count() const;
  size_t performed_count() const;
  size_t capacity() const;
  bool window_full() const { return proposal_count() == capacity(); }

  ProviderSatisfactionDenominator mode() const;

 private:
  std::unique_ptr<ProviderHotState> owned_;  ///< standalone trackers only
  ProviderHotState* hot_;
  uint32_t slot_ = 0;
};

}  // namespace sbqa::core

#endif  // SBQA_CORE_SATISFACTION_H_
