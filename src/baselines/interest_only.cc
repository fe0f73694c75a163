#include "baselines/interest_only.h"

#include <algorithm>

#include "core/mediator.h"
#include "core/score.h"

namespace sbqa::baselines {

void InterestOnlyMethod::Allocate(const core::AllocationContext& ctx,
                                  core::AllocationDecision* decision) {
  const std::vector<model::ProviderId>& candidates = ctx.candidates->All();
  const core::Registry& registry = ctx.mediator->registry();
  const core::Consumer& consumer = registry.consumer(ctx.query->consumer);
  const core::ProviderHotState& hot = registry.hot();

  scored_.clear();
  scored_.reserve(candidates.size());
  for (model::ProviderId p : candidates) {
    core::ScoredProvider sp;
    sp.provider = p;
    sp.provider_intention =
        hot.Preference(static_cast<uint32_t>(p), ctx.query->consumer);
    sp.consumer_intention = consumer.preferences().Get(p);
    sp.omega = 0.5;
    sp.score = core::ProviderScore(sp.provider_intention,
                                   sp.consumer_intention, 0.5, epsilon_);
    scored_.push_back(sp);
  }
  core::RankByScore(&scored_);

  const size_t n = std::min(candidates.size(),
                            static_cast<size_t>(ctx.query->n_results));
  decision->selected.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    decision->selected.push_back(scored_[i].provider);
  }
}

}  // namespace sbqa::baselines
