#ifndef SBQA_BASELINES_RANDOM_ALLOC_H_
#define SBQA_BASELINES_RANDOM_ALLOC_H_

/// \file
/// Random allocation: q.n providers drawn uniformly from Pq. The simplest
/// interest- and load-oblivious reference point.

#include <string>
#include <vector>

#include "core/allocation_method.h"

namespace sbqa::baselines {

/// Uniform random choice of n distinct providers.
class RandomMethod : public core::AllocationMethod {
 public:
  std::string name() const override { return "Random"; }
  void Allocate(const core::AllocationContext& ctx,
                core::AllocationDecision* decision) override;

 private:
  /// Reused buffer for CandidateSet::SampleUniform, copied into the
  /// decision's inline list.
  std::vector<model::ProviderId> sample_scratch_;
};

}  // namespace sbqa::baselines

#endif  // SBQA_BASELINES_RANDOM_ALLOC_H_
