#include "baselines/capacity_based.h"

#include <algorithm>

#include "core/mediator.h"

namespace sbqa::baselines {

void CapacityBasedMethod::Allocate(const core::AllocationContext& ctx,
                                   core::AllocationDecision* decision) {
  const std::vector<model::ProviderId>& candidates = ctx.candidates->All();
  ctx.mediator->BacklogsOf(candidates, &backlogs_);
  // Equal backlogs (e.g. all idle) break randomly.
  ranking_.Rank(backlogs_, ctx.mediator->rng());

  const size_t n = std::min(candidates.size(),
                            static_cast<size_t>(ctx.query->n_results));
  decision->selected.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    decision->selected.push_back(candidates[ranking_[i]]);
  }
}

}  // namespace sbqa::baselines
