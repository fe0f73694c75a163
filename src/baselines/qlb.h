#ifndef SBQA_BASELINES_QLB_H_
#define SBQA_BASELINES_QLB_H_

/// \file
/// Query load balancing: allocates to the q.n providers with the shortest
/// *expected completion time* for this specific query (backlog plus this
/// query's processing time on that provider). Unlike plain capacity-based
/// allocation it accounts for heterogeneous capacities, so it is the
/// strongest pure-performance baseline.

#include <string>
#include <vector>

#include "baselines/ranking.h"
#include "core/allocation_method.h"

namespace sbqa::baselines {

/// Shortest-expected-completion-time allocation with randomized ties.
class QlbMethod : public core::AllocationMethod {
 public:
  std::string name() const override { return "QLB"; }
  void Allocate(const core::AllocationContext& ctx,
                core::AllocationDecision* decision) override;

 private:
  /// Reused per-query scratch (full-scan method; allocation-free once
  /// warm).
  std::vector<double> ect_;
  RandomTieRanking ranking_;
};

}  // namespace sbqa::baselines

#endif  // SBQA_BASELINES_QLB_H_
