#include "core/satisfaction.h"

#include <algorithm>
#include <vector>

namespace sbqa::core {

double ConsumerQuerySatisfaction(std::span<const double> performer_intentions,
                                 int n_required) {
  SBQA_CHECK_GE(n_required, 1);
  double sum = 0;
  for (double ci : performer_intentions) sum += NormalizeIntention(ci);
  // Divisor is max(n, |P̂q|): exactly n when the mediator allocated at most
  // n providers (the Equation 1 case), and the performer count under
  // over-allocation so the value cannot exceed 1.
  const int divisor =
      std::max(n_required, static_cast<int>(performer_intentions.size()));
  return sum / static_cast<double>(divisor);
}

double ConsumerQueryAdequation(std::span<const double> candidate_intentions) {
  if (candidate_intentions.empty()) return 0.0;
  double sum = 0;
  for (double ci : candidate_intentions) sum += NormalizeIntention(ci);
  return sum / static_cast<double>(candidate_intentions.size());
}

double ConsumerQueryAllocationSatisfaction(
    double obtained_satisfaction,
    std::span<const double> candidate_intentions, int n_required) {
  SBQA_CHECK_GE(n_required, 1);
  // Called once per finalized query; the simulator is single-threaded, so a
  // thread-local scratch keeps the hot path allocation-free once warm.
  static thread_local std::vector<double> sorted;
  sorted.clear();
  sorted.reserve(candidate_intentions.size());
  for (double ci : candidate_intentions) {
    sorted.push_back(NormalizeIntention(ci));
  }
  // Only the n best are summed: order just those, largest first.
  const size_t take =
      std::min(sorted.size(), static_cast<size_t>(n_required));
  std::partial_sort(sorted.begin(), sorted.begin() + static_cast<long>(take),
                    sorted.end(), std::greater<double>());
  double best = 0;
  for (size_t i = 0; i < take; ++i) best += sorted[i];
  best /= static_cast<double>(n_required);
  if (best <= 0) return 1.0;  // nothing achievable: vacuously optimal
  const double ratio = obtained_satisfaction / best;
  return std::clamp(ratio, 0.0, 1.0);
}

ConsumerSatisfactionTracker::ConsumerSatisfactionTracker(size_t k)
    : satisfaction_(k), adequation_(k), allocation_(k) {}

void ConsumerSatisfactionTracker::RecordQuery(double satisfaction,
                                              double adequation,
                                              double allocation_satisfaction) {
  SBQA_DCHECK_GE(satisfaction, 0);
  SBQA_DCHECK_LE(satisfaction, 1);
  satisfaction_.Push(satisfaction);
  adequation_.Push(adequation);
  allocation_.Push(allocation_satisfaction);
}

ProviderSatisfactionTracker::ProviderSatisfactionTracker(
    size_t k, ProviderSatisfactionDenominator mode)
    : window_(k), mode_(mode) {}

void ProviderSatisfactionTracker::RecordProposal(double intention,
                                                 bool performed) {
  const Proposal incoming{NormalizeIntention(intention), performed};
  if (window_.full()) {
    const Proposal& evicted = window_.oldest();
    sum_norm_all_ -= evicted.normalized_intention;
    if (evicted.performed) {
      sum_norm_performed_ -= evicted.normalized_intention;
      --performed_count_;
    }
  }
  window_.Push(incoming);
  sum_norm_all_ += incoming.normalized_intention;
  if (incoming.performed) {
    sum_norm_performed_ += incoming.normalized_intention;
    ++performed_count_;
  }
}

double ProviderSatisfactionTracker::satisfaction() const {
  if (performed_count_ == 0) return 0.0;  // Definition 2: SQ^k_p = ∅ case
  switch (mode_) {
    case ProviderSatisfactionDenominator::kPerformedOnly:
      return sum_norm_performed_ / static_cast<double>(performed_count_);
    case ProviderSatisfactionDenominator::kAllProposed:
      return sum_norm_performed_ / static_cast<double>(window_.size());
  }
  return 0.0;
}

double ProviderSatisfactionTracker::adequation() const {
  if (window_.empty()) return 0.0;
  return sum_norm_all_ / static_cast<double>(window_.size());
}

double ProviderSatisfactionTracker::allocation_satisfaction() const {
  if (performed_count_ == 0) return 1.0;  // vacuous
  std::vector<double> intentions;
  intentions.reserve(window_.size());
  for (size_t i = 0; i < window_.size(); ++i) {
    intentions.push_back(window_[i].normalized_intention);
  }
  std::sort(intentions.begin(), intentions.end(), std::greater<double>());
  double best = 0;
  for (size_t i = 0; i < performed_count_; ++i) best += intentions[i];
  if (best <= 0) return 1.0;
  const double obtained = sum_norm_performed_;
  const double ratio = obtained / best;
  return std::clamp(ratio, 0.0, 1.0);
}

}  // namespace sbqa::core
