#include "core/hot_state.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "core/provider.h"

namespace sbqa::core {

void ProviderHotState::Reserve(size_t slots, size_t window_entries) {
  if (slots > capacity_.capacity()) {
    capacity_.reserve(slots);
    tau_.reserve(slots);
    busy_until_.reserve(slots);
    outstanding_.reserve(slots);
    queue_epoch_.reserve(slots);
    psi_.reserve(slots);
    policy_.reserve(slots);
    alive_.reserve(slots);
    error_rate_.reserve(slots);
    busy_seconds_.reserve(slots);
    instances_performed_.reserve(slots);
    windows_.reserve(slots);
    for (std::vector<double>& column : pref_columns_) {
      if (!column.empty()) column.reserve(slots);
    }
  }
  const size_t wanted =
      window_entries > arena_used_ ? window_entries - arena_used_ : 0;
  if (wanted > arena_free_) AddArenaChunk(wanted);
}

void ProviderHotState::AddArenaChunk(size_t entries) {
  // new T[] default-initializes: no zero fill, so a chunk's pages stay
  // untouched until proposals land in them.
  arena_chunks_.emplace_back(new double[entries]);
  arena_next_ = arena_chunks_.back().get();
  arena_free_ = entries;
}

uint32_t ProviderHotState::Append(const ProviderParams& params) {
  SBQA_CHECK_GT(params.capacity, 0);
  SBQA_CHECK_GT(params.tau_utilization, 0);
  SBQA_CHECK_GE(params.error_rate, 0);
  SBQA_CHECK_LE(params.error_rate, 1);
  SBQA_CHECK_GE(params.memory_k, 1u);
  SBQA_CHECK_LE(params.memory_k,
                size_t{std::numeric_limits<uint32_t>::max()});
  if (params.policy_kind == model::ProviderPolicyKind::kUtilizationTrading) {
    SBQA_CHECK_GE(params.psi, 0);
    SBQA_CHECK_LE(params.psi, 1);
  }
  const size_t slot = size();
  const size_t k = params.memory_k;
  if (slot == capacity_.capacity()) {
    // Unreserved growth: every plane at once, and an arena chunk sized as
    // if the new slots all had this provider's k.
    const size_t slots = std::max(kMinSlots, 2 * slot);
    Reserve(slots, arena_used_ + (slots - slot) * k);
  }
  if (k > arena_free_) AddArenaChunk(std::max(k, arena_used_));

  capacity_.push_back(params.capacity);
  tau_.push_back(params.tau_utilization);
  busy_until_.push_back(0.0);
  outstanding_.push_back(0);
  queue_epoch_.push_back(0);
  psi_.push_back(params.psi);
  policy_.push_back(static_cast<uint8_t>(params.policy_kind));
  alive_.push_back(1);
  error_rate_.push_back(params.error_rate);
  busy_seconds_.push_back(0.0);
  instances_performed_.push_back(0);
  ProposalWindow window;
  window.mode = params.satisfaction_mode;
  window.k = static_cast<uint32_t>(k);
  window.ring = arena_next_;
  windows_.push_back(window);
  arena_next_ += k;
  arena_free_ -= k;
  arena_used_ += k;
  for (std::vector<double>& column : pref_columns_) {
    if (!column.empty()) column.push_back(0.0);
  }
  return static_cast<uint32_t>(slot);
}

double ProviderHotState::Intention(uint32_t slot, const model::Query& query,
                                   double now) const {
  model::ProviderIntentionContext ctx;
  ctx.query = &query;
  ctx.preference = Preference(slot, query.consumer);
  ctx.utilization = UtilizationNorm(slot, now);
  // The policy is built on the stack from the slot's kind and psi: no
  // second copy of either, and no virtual call.
  double intention = 0;
  switch (policy_kind(slot)) {
    case model::ProviderPolicyKind::kPreferenceOnly:
      intention = model::PreferenceProviderPolicy().Compute(ctx);
      break;
    case model::ProviderPolicyKind::kUtilizationTrading:
      intention =
          model::UtilizationTradingProviderPolicy(psi_[slot]).Compute(ctx);
      break;
    case model::ProviderPolicyKind::kLoadOnly:
      intention = model::LoadOnlyProviderPolicy().Compute(ctx);
      break;
  }
  return std::clamp(intention, -1.0, 1.0);
}

void ProviderHotState::SetPreference(uint32_t slot,
                                     model::ConsumerId consumer,
                                     double preference) {
  SBQA_CHECK_GE(consumer, 0);
  SBQA_CHECK_LT(static_cast<size_t>(slot), size());
  const auto c = static_cast<size_t>(consumer);
  if (c >= pref_columns_.size()) pref_columns_.resize(c + 1);
  std::vector<double>& column = pref_columns_[c];
  if (column.empty()) {
    column.reserve(capacity_.capacity());
    column.assign(size(), 0.0);
  }
  // PreferenceProfile's clamp: NaN passes through unchanged.
  if (preference < -1.0) preference = -1.0;
  if (preference > 1.0) preference = 1.0;
  column[slot] = preference;
}

void ProviderHotState::RecordProposal(uint32_t slot, double intention,
                                      bool performed) {
  ProposalWindow& w = windows_[slot];
  const double norm = NormalizeIntention(intention);
  double* ring = w.ring;
  if (w.size == w.k) {
    // The oldest entry sits where the next write goes.
    const double evicted = ring[w.next];
    const double evicted_norm = std::fabs(evicted);
    w.sum_all -= evicted_norm;
    if (std::signbit(evicted)) {
      w.sum_performed -= evicted_norm;
      --w.performed;
    }
  } else {
    ++w.size;
  }
  ring[w.next] = performed ? -norm : norm;
  w.next = w.next + 1 == w.k ? 0 : w.next + 1;
  w.sum_all += norm;
  if (performed) {
    w.sum_performed += norm;
    ++w.performed;
  }
}

double ProviderHotState::AllocationSatisfaction(uint32_t slot) const {
  const ProposalWindow& w = windows_[slot];
  if (w.performed == 0) return 1.0;  // vacuous
  // Collector walks call this once per provider; the per-thread scratch
  // keeps them allocation-free once it holds the largest window.
  static thread_local std::vector<double> sorted;
  sorted.clear();
  for (uint32_t i = 0; i < w.size; ++i) sorted.push_back(std::fabs(w.ring[i]));
  // Only the `performed` best are summed: order just those, largest first
  // (the same prefix, summed in the same order, as a full sort).
  const auto take = static_cast<long>(w.performed);
  std::partial_sort(sorted.begin(), sorted.begin() + take, sorted.end(),
                    std::greater<double>());
  double best = 0;
  for (long i = 0; i < take; ++i) best += sorted[static_cast<size_t>(i)];
  if (best <= 0) return 1.0;
  return std::clamp(w.sum_performed / best, 0.0, 1.0);
}

}  // namespace sbqa::core
