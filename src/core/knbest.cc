#include "core/knbest.h"

#include <algorithm>

#include "core/mediator.h"
#include "util/check.h"

namespace sbqa::core {

namespace {

/// Effective |K| for a candidate population of size n.
size_t EffectiveK(const KnBestParams& params, size_t n) {
  if (params.k_candidates == 0 || params.k_candidates >= n) return n;
  return params.k_candidates;
}

/// Effective |Kn| for a sample of size k.
size_t EffectiveKn(const KnBestParams& params, size_t k) {
  if (params.kn_best == 0 || params.kn_best >= k) return k;
  return params.kn_best;
}

}  // namespace

void KeepKnLeastUtilized(std::span<const model::ProviderId> sample,
                         std::span<const double> backlogs, size_t keep,
                         util::Rng& rng,
                         std::vector<KnBestScratch::Entry>* scratch,
                         ProviderList* out) {
  SBQA_CHECK_EQ(sample.size(), backlogs.size());
  SBQA_CHECK(scratch != nullptr);
  SBQA_CHECK(out != nullptr);
  SBQA_CHECK_GT(keep, 0u);
  SBQA_CHECK_LE(keep, sample.size());

  // A fresh random key per entry makes equal-backlog ordering uniformly
  // random regardless of how the sample was emitted — the same
  // distribution the original shuffle + stable_sort produced.
  //
  // Bounded insertion selection: `scratch` holds the `keep` least-utilized
  // entries seen so far, sorted ascending by (backlog, tie). For the hot
  // k≈20 / kn≈8 regime this runs a handful of cache-resident compares per
  // entry — measurably cheaper than nth_element + sort — and produces the
  // identical result (keys are unique, so the order is total).
  const auto less = [](const KnBestScratch::Entry& a,
                       const KnBestScratch::Entry& b) {
    if (a.backlog != b.backlog) return a.backlog < b.backlog;
    return a.tie < b.tie;
  };
  scratch->clear();
  scratch->reserve(keep);
  for (size_t i = 0; i < sample.size(); ++i) {
    // One rng draw per entry, in sample order (the tie-randomization
    // contract the distribution tests pin down).
    const KnBestScratch::Entry entry{backlogs[i], rng.Next(),
                                     static_cast<uint32_t>(i)};
    if (scratch->size() == keep && !less(entry, scratch->back())) continue;
    size_t pos = scratch->size();
    if (scratch->size() < keep) {
      scratch->push_back(entry);
    } else {
      pos = keep - 1;
    }
    while (pos > 0 && less(entry, (*scratch)[pos - 1])) {
      (*scratch)[pos] = (*scratch)[pos - 1];
      --pos;
    }
    (*scratch)[pos] = entry;
  }
  out->reserve(out->size() + scratch->size());
  for (const KnBestScratch::Entry& entry : *scratch) {
    out->push_back(sample[entry.index]);
  }
}

void SelectKnBestFrom(const CandidateSet& candidates, Mediator& mediator,
                      const KnBestParams& params, KnBestScratch* scratch,
                      ProviderList* out) {
  SBQA_CHECK(scratch != nullptr);
  SBQA_CHECK(out != nullptr);
  out->clear();
  const size_t n = candidates.size();
  if (n == 0) return;

  const size_t k = EffectiveK(params, n);
  candidates.SampleUniform(k, mediator.rng(), &scratch->k_sample);
  mediator.BacklogsOf(scratch->k_sample, &scratch->backlogs);
  KeepKnLeastUtilized(scratch->k_sample, scratch->backlogs,
                      EffectiveKn(params, k), mediator.rng(),
                      &scratch->entries, out);
}

std::vector<model::ProviderId> SelectKnBest(
    const std::vector<model::ProviderId>& candidates,
    const std::vector<double>& backlogs, const KnBestParams& params,
    util::Rng& rng) {
  SBQA_CHECK_EQ(candidates.size(), backlogs.size());
  if (candidates.empty()) return {};

  // Step 1: uniform K-sample of positions into `candidates`.
  const size_t k = EffectiveK(params, candidates.size());
  util::SampleScratch stamps;
  std::vector<size_t> picked;
  rng.SampleIndices(candidates.size(), k, &stamps, &picked);

  std::vector<model::ProviderId> sample;
  std::vector<double> sample_backlogs;
  sample.reserve(k);
  sample_backlogs.reserve(k);
  for (size_t index : picked) {
    sample.push_back(candidates[index]);
    sample_backlogs.push_back(backlogs[index]);
  }

  // Step 2: the kn least utilized of K, random ties.
  std::vector<KnBestScratch::Entry> entries;
  ProviderList kn;
  KeepKnLeastUtilized(sample, sample_backlogs, EffectiveKn(params, k), rng,
                      &entries, &kn);
  return {kn.begin(), kn.end()};
}

void KnBestMethod::Allocate(const AllocationContext& ctx,
                            AllocationDecision* decision) {
  SBQA_CHECK(ctx.query != nullptr);
  SBQA_CHECK(ctx.candidates != nullptr);
  SBQA_CHECK(ctx.mediator != nullptr);
  SBQA_CHECK(decision != nullptr);

  SelectKnBestFrom(*ctx.candidates, *ctx.mediator, params_, &scratch_,
                   &decision->consulted);

  const size_t n = static_cast<size_t>(ctx.query->n_results);
  const size_t take = std::min(n, decision->consulted.size());
  if (params_.greedy_final) {
    // Greedy variant: Kn comes back ordered by ascending backlog, so the
    // first n are the least utilized.
    decision->selected.assign(decision->consulted.begin(),
                              decision->consulted.begin() +
                                  static_cast<long>(take));
  } else {
    // DASFAA formulation: the final n providers are drawn at random within
    // Kn (randomization avoids the herd effect of always picking the same
    // least-loaded host). Partial Fisher-Yates over a reused copy —
    // identical draws to Rng::SampleWithoutReplacement, no allocation.
    pick_scratch_.assign(decision->consulted.begin(),
                         decision->consulted.end());
    util::Rng& rng = ctx.mediator->rng();
    for (size_t i = 0; i < take; ++i) {
      const size_t j =
          i + static_cast<size_t>(rng.UniformInt(
                  0, static_cast<int64_t>(pick_scratch_.size() - 1 - i)));
      std::swap(pick_scratch_[i], pick_scratch_[j]);
    }
    decision->selected.assign(pick_scratch_.begin(),
                              pick_scratch_.begin() +
                                  static_cast<long>(take));
  }
}

}  // namespace sbqa::core
