#ifndef SBQA_CORE_KNBEST_H_
#define SBQA_CORE_KNBEST_H_

/// \file
/// The KnBest provider-selection strategy [Quiané-Ruiz et al., DASFAA 2007]
/// that SbQA uses as its first mediation phase (paper §III):
///
///   1. select a set K of `k` providers uniformly at random from Pq;
///   2. keep the `kn` least-utilized providers of K (set Kn).
///
/// Randomizing before load-filtering generalizes the classic
/// "two random choices" balancer: small kn ≈ pure load balancing over a
/// random sample, kn = k ≈ pure random allocation, and anything in between
/// trades herd-avoidance for load awareness. As a standalone baseline,
/// KnBest allocates the query to n providers chosen at random within Kn.
///
/// Both phases run in O(k): the K-sample comes straight off the candidate
/// index (never materializing Pq), and Kn is carved out with nth_element
/// plus a bounded sort instead of sorting the whole sample. Backlog ties
/// resolve by a fresh random key per selection, which preserves the
/// original "shuffle then stable sort" tie-randomization distribution.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/allocation_method.h"
#include "core/candidate_index.h"
#include "model/types.h"
#include "util/rng.h"

namespace sbqa::core {

class Mediator;

/// Parameters of the two-step selection.
struct KnBestParams {
  /// Size of the random sample K. 0 means "all of Pq" (disables the random
  /// step, turning the filter into global least-utilized).
  size_t k_candidates = 10;
  /// Number of least-utilized providers kept (|Kn|). 0 means "keep all of
  /// K" (disables the load step, turning the filter into pure random).
  size_t kn_best = 4;
  /// Final pick of the *standalone* KnBestMethod within Kn: false = the
  /// DASFAA randomized choice (herd-avoiding), true = greedily take the n
  /// least utilized (ablation knob; SbQA's SQLB scoring ignores this).
  bool greedy_final = false;
};

/// Reusable per-method scratch for the two-phase selection, so the hot path
/// allocates nothing per query once warm.
struct KnBestScratch {
  std::vector<model::ProviderId> k_sample;
  std::vector<double> backlogs;
  /// (backlog, random tie key, sample position) triples; holds the
  /// bounded insertion-selection buffer of the kn least utilized. The tie
  /// key randomizes equal-backlog ordering.
  struct Entry {
    double backlog;
    uint64_t tie;
    uint32_t index;
  };
  std::vector<Entry> entries;
};

/// Phase 2 alone: appends to *out the `keep` least-utilized members of
/// `sample` (backlogs parallel to sample), ascending by backlog with
/// random tie-breaking. Requires 0 < keep <= sample.size(). O(|sample| +
/// keep log keep).
void KeepKnLeastUtilized(std::span<const model::ProviderId> sample,
                         std::span<const double> backlogs, size_t keep,
                         util::Rng& rng,
                         std::vector<KnBestScratch::Entry>* scratch,
                         ProviderList* out);

/// Runs the full two-phase selection straight off an indexed candidate
/// view: uniform K-sample in O(k), backlogs through the mediator's load
/// view, then the kn least utilized. Replaces *out with Kn ordered by
/// ascending viewed backlog (random ties). O(k + kn log kn); never
/// materializes Pq (unless k covers all of it).
void SelectKnBestFrom(const CandidateSet& candidates, Mediator& mediator,
                      const KnBestParams& params, KnBestScratch* scratch,
                      ProviderList* out);

/// Runs the two-step KnBest selection over an explicit candidate list and
/// returns Kn ordered by ascending backlog (least utilized first).
/// `backlogs` must be parallel to `candidates` (seconds of queued work per
/// provider). O(k + kn log kn) — the list is sampled, not sorted.
std::vector<model::ProviderId> SelectKnBest(
    const std::vector<model::ProviderId>& candidates,
    const std::vector<double>& backlogs, const KnBestParams& params,
    util::Rng& rng);

/// KnBest as a standalone allocation method: Kn via the two-phase
/// selection, then the final n providers drawn at random within Kn (the
/// DASFAA formulation).
class KnBestMethod : public AllocationMethod {
 public:
  explicit KnBestMethod(const KnBestParams& params) : params_(params) {}

  std::string name() const override {
    return params_.greedy_final ? "KnBest-greedy" : "KnBest";
  }
  void Allocate(const AllocationContext& ctx,
                AllocationDecision* decision) override;

  const KnBestParams& params() const { return params_; }

 private:
  KnBestParams params_;
  KnBestScratch scratch_;
  /// Reused buffer for the randomized final pick within Kn.
  std::vector<model::ProviderId> pick_scratch_;
};

}  // namespace sbqa::core

#endif  // SBQA_CORE_KNBEST_H_
