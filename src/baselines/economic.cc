#include "baselines/economic.h"

#include <algorithm>

#include "core/mediator.h"
#include "util/check.h"

namespace sbqa::baselines {

EconomicMethod::EconomicMethod(const EconomicParams& params)
    : params_(params) {
  SBQA_CHECK_GT(params.price_per_second, 0);
  SBQA_CHECK_GE(params.load_markup, 0);
  SBQA_CHECK_GT(params.budget_factor, 0);
  SBQA_CHECK_GE(params.interest_discount, 0);
  SBQA_CHECK_LT(params.interest_discount, 1);
}

double EconomicMethod::BidOf(const core::AllocationContext& ctx,
                             model::ProviderId provider) const {
  const core::ProviderHotState& hot = ctx.mediator->registry().hot();
  const auto slot = static_cast<uint32_t>(provider);
  const double processing_seconds = ctx.query->cost / hot.capacity(slot);
  double bid = processing_seconds * params_.price_per_second *
               (1.0 + params_.load_markup * hot.UtilizationNorm(slot, ctx.now));
  if (params_.interest_discount > 0) {
    // Interested providers (preference > 0) shave their margin.
    const double pref = hot.Preference(slot, ctx.query->consumer);
    if (pref > 0) bid *= 1.0 - params_.interest_discount * pref;
  }
  return bid;
}

void EconomicMethod::Allocate(const core::AllocationContext& ctx,
                              core::AllocationDecision* decision) {
  const std::vector<model::ProviderId>& candidates = ctx.candidates->All();

  // Budget per result: what the query would cost on a nominal-capacity,
  // idle provider, scaled by the consumer's willingness to pay.
  const double budget =
      params_.budget_factor * ctx.query->cost * params_.price_per_second;

  bids_.clear();
  bids_.reserve(candidates.size());
  for (model::ProviderId p : candidates) bids_.push_back(BidOf(ctx, p));

  ranking_.Rank(bids_, ctx.mediator->rng());

  const size_t n = std::min(candidates.size(),
                            static_cast<size_t>(ctx.query->n_results));
  decision->used_bid_round = true;  // the auction costs one round-trip
  for (size_t i = 0; i < ranking_.size() && decision->selected.size() < n;
       ++i) {
    const uint32_t c = ranking_[i];
    if (bids_[c] > budget) break;  // sorted: everything after is worse
    decision->selected.push_back(candidates[c]);
  }
  // Bids are prices, not expressed intentions: only the winners are
  // "proposed" a query in the Definition-2 sense, so `consulted` is left to
  // default to the selected set.
}

}  // namespace sbqa::baselines
