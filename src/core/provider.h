#ifndef SBQA_CORE_PROVIDER_H_
#define SBQA_CORE_PROVIDER_H_

/// \file
/// Provider runtime state: processing queue, utilization, preferences,
/// intention policy and the Definition-2 satisfaction memory, all held in
/// the registry's ProviderHotState block (core/hot_state.h). In the BOINC
/// instantiation a provider is one volunteer host.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/hot_state.h"
#include "core/satisfaction.h"
#include "model/intention.h"
#include "model/query.h"
#include "model/types.h"
#include "util/check.h"

namespace sbqa::core {

/// Static configuration of one provider.
struct ProviderParams {
  /// Processing speed in work units per second (heterogeneous across the
  /// population). A query of cost c takes c / capacity seconds.
  double capacity = 1.0;
  /// Interaction-memory length k for Definition 2.
  size_t memory_k = 50;
  /// Denominator convention for Definition 2 (see satisfaction.h).
  ProviderSatisfactionDenominator satisfaction_mode =
      ProviderSatisfactionDenominator::kPerformedOnly;
  /// How this provider computes its intentions.
  model::ProviderPolicyKind policy_kind =
      model::ProviderPolicyKind::kUtilizationTrading;
  /// Preference weight for the utilization-trading policy.
  double psi = 0.7;
  /// Backlog normalization constant (seconds): utilization is
  /// backlog / (backlog + tau_utilization), so tau is the backlog at which a
  /// provider reports 50% utilization.
  double tau_utilization = 10.0;
  /// BOINC layer: probability that a returned result is invalid (malicious
  /// or faulty host). Drives reputation through validation.
  double error_rate = 0.0;
  /// Query classes this provider can treat (BOINC: the applications the
  /// volunteer attaches to); empty = all. Applied at construction, so
  /// class-restricted populations can be declared through AddProvider —
  /// including the engine facade — instead of mutating the registry
  /// afterwards. RestrictClasses() still works for later changes.
  std::vector<model::QueryClassId> allowed_classes;
  /// Human-readable label for reports (optional).
  std::string label;
};

class Provider;

/// Gets told whenever a provider's Pq-eligibility inputs change (liveness
/// or class restrictions), so the registry's candidate index can stay
/// current without rescanning the population.
class ProviderObserver {
 public:
  virtual ~ProviderObserver() = default;
  virtual void OnProviderEligibilityChanged(const Provider& provider) = 0;
};

/// A provider's preferences towards consumers (BOINC: towards projects),
/// in [-1, 1], 0 when unset: a view over its entries of the hot block's
/// per-consumer preference columns.
class ProviderPreferences {
 public:
  ProviderPreferences(ProviderHotState* hot, uint32_t slot)
      : hot_(hot), slot_(slot) {}

  double Get(model::ConsumerId consumer) const {
    return hot_->Preference(slot_, consumer);
  }
  /// Clamped into [-1, 1]. Quiescent points only (setup, barriers).
  void Set(model::ConsumerId consumer, double preference) {
    hot_->SetPreference(slot_, consumer, preference);
  }

 private:
  ProviderHotState* hot_;
  uint32_t slot_;
};

/// A provider p ∈ P: a view over its slot of a ProviderHotState block
/// (queue, liveness, policy, preferences, Definition-2 window, completion
/// counters), plus the cold fields no query reads (label, class
/// restrictions, departure flag). Its queue is a FIFO modelled as an
/// absolute busy-until horizon (sufficient because instances are
/// non-preemptive and ordered).
class Provider {
 public:
  /// Standalone construction (tests, tools): the provider owns a private
  /// single-slot hot-state block.
  Provider(model::ProviderId id, const ProviderParams& params);

  /// Registry construction: the provider's state lives at `hot_slot` of
  /// the registry's shared block (appended from the same params by the
  /// caller). `hot` must outlive the provider.
  Provider(model::ProviderId id, const ProviderParams& params,
           ProviderHotState* hot, uint32_t hot_slot);

  model::ProviderId id() const { return id_; }
  const std::string& label() const { return label_; }
  double capacity() const { return hot_->capacity(hot_slot_); }
  double error_rate() const { return hot_->error_rate(hot_slot_); }

  /// Eligibility-change subscriber (at most one: the owning registry).
  void set_observer(ProviderObserver* observer) { observer_ = observer; }

  /// Whether the provider currently accepts work (false while offline or
  /// after departing).
  bool alive() const { return hot_->alive(hot_slot_); }
  void set_alive(bool alive) {
    if (this->alive() == alive) return;
    hot_->set_alive(hot_slot_, alive);
    NotifyEligibilityChanged();
  }

  /// Whether the provider left permanently out of dissatisfaction
  /// (Scenario 2). A departed provider never comes back online; a churned
  /// (temporarily offline) one does.
  bool departed() const { return departed_; }
  void MarkDeparted() {
    departed_ = true;
    set_alive(false);
  }

  /// Preferences towards consumers (BOINC: towards projects), in [-1, 1].
  ProviderPreferences preferences() { return {hot_, hot_slot_}; }
  const ProviderPreferences preferences() const { return {hot_, hot_slot_}; }

  /// Restricts the query classes this provider can treat; empty = all.
  void RestrictClasses(std::unordered_set<model::QueryClassId> classes) {
    allowed_classes_ = std::move(classes);
    NotifyEligibilityChanged();
  }
  const std::unordered_set<model::QueryClassId>& allowed_classes() const {
    return allowed_classes_;
  }
  bool CanTreat(model::QueryClassId query_class) const {
    return allowed_classes_.empty() || allowed_classes_.contains(query_class);
  }

  // --- Queueing -----------------------------------------------------------

  /// Seconds of queued work remaining at time `now` (0 when idle).
  double Backlog(double now) const { return hot_->Backlog(hot_slot_, now); }

  /// Expected completion delay (seconds from `now`) if a query of `cost`
  /// work units were enqueued now: backlog + cost / capacity.
  double ExpectedCompletion(double now, double cost) const {
    SBQA_DCHECK_GE(cost, 0);
    return hot_->ExpectedCompletion(hot_slot_, now, cost);
  }

  /// Enqueues an instance of `cost` work units at time `now`; returns the
  /// absolute finish time. The caller schedules the completion event.
  double Enqueue(double now, double cost) {
    SBQA_DCHECK_GE(cost, 0);
    return hot_->Enqueue(hot_slot_, now, cost);
  }

  /// Accounting hook on instance completion.
  void OnInstanceFinished(double cost) {
    hot_->OnInstanceFinished(hot_slot_, cost);
  }

  /// Drops all queued work (provider departure) and bumps the queue epoch,
  /// invalidating any already-scheduled completion events.
  void DropQueue(double now) { hot_->DropQueue(hot_slot_, now); }

  /// Incremented by DropQueue; a service chain's head completion captures
  /// the epoch when it is scheduled and no-ops when it changed (the stale
  /// head of dropped work).
  uint64_t queue_epoch() const { return hot_->queue_epoch(hot_slot_); }

  /// Normalized utilization in [0, 1): backlog / (backlog + tau).
  double UtilizationNorm(double now) const {
    return hot_->UtilizationNorm(hot_slot_, now);
  }

  /// Instances currently queued or in service.
  int outstanding() const { return hot_->outstanding(hot_slot_); }

  /// The hot-state block holding this provider and its slot in it.
  const ProviderHotState& hot_state() const { return *hot_; }
  uint32_t hot_slot() const { return hot_slot_; }

  /// Total seconds of work completed (for run-level utilization stats).
  double busy_seconds() const { return hot_->busy_seconds(hot_slot_); }
  int64_t instances_performed() const {
    return hot_->instances_performed(hot_slot_);
  }

  // --- Intentions & satisfaction -------------------------------------------

  /// PI_q[p]: this provider's intention to perform `q` at time `now`.
  double ComputeIntention(const model::Query& query, double now) const {
    return hot_->Intention(hot_slot_, query, now);
  }

  /// Definition-2 memory (a view over the slot's window).
  ProviderSatisfactionTracker satisfaction_tracker() {
    return {hot_, hot_slot_};
  }
  const ProviderSatisfactionTracker satisfaction_tracker() const {
    return {hot_, hot_slot_};
  }

  /// Definition 2 shorthand.
  double satisfaction() const { return hot_->Satisfaction(hot_slot_); }

 private:
  void NotifyEligibilityChanged() {
    if (observer_ != nullptr) observer_->OnProviderEligibilityChanged(*this);
  }

  model::ProviderId id_;
  ProviderObserver* observer_ = nullptr;
  bool departed_ = false;
  std::unordered_set<model::QueryClassId> allowed_classes_;
  std::string label_;
  /// The standalone provider's private block (null for registry providers).
  std::unique_ptr<ProviderHotState> owned_hot_;
  ProviderHotState* hot_;
  uint32_t hot_slot_ = 0;
};

}  // namespace sbqa::core

#endif  // SBQA_CORE_PROVIDER_H_
