#ifndef SBQA_BASELINES_CAPACITY_BASED_H_
#define SBQA_BASELINES_CAPACITY_BASED_H_

/// \file
/// Capacity-based allocation [Ganesan et al., VLDB 2004-style load
/// balancing]: the query goes to the q.n providers with the most available
/// capacity, i.e. the smallest queued backlog. The paper notes BOINC's
/// dispatch is equivalent to this technique — volunteers with idle capacity
/// pull work regardless of anyone's interests.

#include <string>
#include <vector>

#include "baselines/ranking.h"
#include "core/allocation_method.h"

namespace sbqa::baselines {

/// Least-backlog-first allocation with randomized tie-breaking.
class CapacityBasedMethod : public core::AllocationMethod {
 public:
  std::string name() const override { return "Capacity"; }
  void Allocate(const core::AllocationContext& ctx,
                core::AllocationDecision* decision) override;

 private:
  /// Reused per-query scratch (full-scan method; allocation-free once
  /// warm).
  std::vector<double> backlogs_;
  RandomTieRanking ranking_;
};

}  // namespace sbqa::baselines

#endif  // SBQA_BASELINES_CAPACITY_BASED_H_
