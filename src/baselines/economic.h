#ifndef SBQA_BASELINES_ECONOMIC_H_
#define SBQA_BASELINES_ECONOMIC_H_

/// \file
/// Economic (Mariposa-style [Stonebraker et al., VLDBJ 1996]) allocation:
/// the mediator holds an auction. Every candidate provider bids a price for
/// processing the query — the busier the provider, the higher its bid — and
/// the consumer's budget caps what is acceptable. The cheapest q.n
/// affordable bids win.
///
/// Prices encode load, not interests: that is precisely why the paper uses
/// this baseline to show that microeconomic balancing alone leaves
/// participants dissatisfied (Scenarios 1-2).

#include <string>
#include <vector>

#include "baselines/ranking.h"
#include "core/allocation_method.h"

namespace sbqa::baselines {

/// Auction parameters.
struct EconomicParams {
  /// Base price per second of processing (arbitrary currency).
  double price_per_second = 1.0;
  /// Load markup: bid = base * (1 + markup * utilization_norm).
  double load_markup = 4.0;
  /// Consumer budget per result, as a multiple of the query's base price at
  /// nominal (capacity 1) speed. Bids above budget are rejected.
  double budget_factor = 3.0;
  /// Optional interest discount in [0, 1): an interested provider lowers its
  /// bid by up to this fraction (0 = pure Mariposa, ablation knob).
  double interest_discount = 0.0;
};

/// Lowest-bid auction within a per-query budget.
class EconomicMethod : public core::AllocationMethod {
 public:
  explicit EconomicMethod(const EconomicParams& params = {});

  std::string name() const override { return "Economic"; }
  void Allocate(const core::AllocationContext& ctx,
                core::AllocationDecision* decision) override;

  /// The bid provider p would submit for `query` right now (exposed for
  /// tests).
  double BidOf(const core::AllocationContext& ctx,
               model::ProviderId provider) const;

  const EconomicParams& params() const { return params_; }

 private:
  EconomicParams params_;
  /// Reused per-query scratch (full-scan method; allocation-free once
  /// warm).
  std::vector<double> bids_;
  RandomTieRanking ranking_;
};

}  // namespace sbqa::baselines

#endif  // SBQA_BASELINES_ECONOMIC_H_
