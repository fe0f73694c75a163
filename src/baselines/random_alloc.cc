#include "baselines/random_alloc.h"

#include "core/mediator.h"

namespace sbqa::baselines {

void RandomMethod::Allocate(const core::AllocationContext& ctx,
                            core::AllocationDecision* decision) {
  // Uniform n-subset of Pq straight off the candidate index: O(n_results),
  // never materializes the candidate list.
  ctx.candidates->SampleUniform(static_cast<size_t>(ctx.query->n_results),
                                ctx.mediator->rng(), &sample_scratch_);
  decision->selected.assign(sample_scratch_.begin(), sample_scratch_.end());
}

}  // namespace sbqa::baselines
