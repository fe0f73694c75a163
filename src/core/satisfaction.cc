#include "core/satisfaction.h"

#include <algorithm>
#include <vector>

#include "core/hot_state.h"
#include "core/provider.h"

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
    : owned_(std::make_unique<ProviderHotState>()), hot_(owned_.get()) {
  ProviderParams params;
  params.memory_k = k;
  params.satisfaction_mode = mode;
  hot_->Reserve(1, k);
  slot_ = hot_->Append(params);
}

ProviderSatisfactionTracker::ProviderSatisfactionTracker(ProviderHotState* hot,
                                                         uint32_t slot)
    : hot_(hot), slot_(slot) {
  SBQA_CHECK(hot_ != nullptr);
  SBQA_CHECK_LT(static_cast<size_t>(slot_), hot_->size());
}

ProviderSatisfactionTracker::~ProviderSatisfactionTracker() = default;

void ProviderSatisfactionTracker::RecordProposal(double intention,
                                                 bool performed) {
  hot_->RecordProposal(slot_, intention, performed);
}

double ProviderSatisfactionTracker::satisfaction() const {
  return hot_->Satisfaction(slot_);
}

double ProviderSatisfactionTracker::adequation() const {
  return hot_->Adequation(slot_);
}

double ProviderSatisfactionTracker::allocation_satisfaction() const {
  return hot_->AllocationSatisfaction(slot_);
}

size_t ProviderSatisfactionTracker::proposal_count() const {
  return hot_->proposal_count(slot_);
}

size_t ProviderSatisfactionTracker::performed_count() const {
  return hot_->performed_count(slot_);
}

size_t ProviderSatisfactionTracker::capacity() const {
  return hot_->memory_k(slot_);
}

ProviderSatisfactionDenominator ProviderSatisfactionTracker::mode() const {
  return hot_->satisfaction_mode(slot_);
}

}  // namespace sbqa::core
