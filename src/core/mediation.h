#ifndef SBQA_CORE_MEDIATION_H_
#define SBQA_CORE_MEDIATION_H_

/// \file
/// Mediation event types and the observer interface through which the
/// metrics layer and experiment harness watch a running mediator.

#include <cstdint>
#include <vector>

#include "core/allocation_method.h"
#include "model/query.h"
#include "model/types.h"

namespace sbqa::core {

/// Everything known about a query once the mediator finalizes it.
struct QueryOutcome {
  model::Query query;
  /// Simulation time of finalization.
  double completed_at = 0;
  /// completed_at - query.issued_at (includes mediation round-trips,
  /// queueing and processing).
  double response_time = 0;
  /// Results the consumer required (q.n).
  int results_required = 0;
  /// Results actually received (|P̂q|).
  int results_received = 0;
  /// Results that passed validation (BOINC layer; equals results_received
  /// when no provider is faulty).
  int valid_results = 0;
  /// Whether valid_results reached the consumer's quorum.
  bool validated = false;
  /// Whether the query was finalized by its timeout.
  bool timed_out = false;
  /// Whether no provider could be allocated at all.
  bool unallocated = false;
  /// Whether the query was rejected at admission (overload shedding at the
  /// facade). The mediator never sets this; the engine synthesizes shed
  /// outcomes before the query reaches mediation.
  bool shed = false;
  /// Mediation attempts consumed (1 = no retry; > 1 means the query was
  /// re-mediated after failed attempts).
  int attempts = 1;
  /// Cross-shard hops this query took before being mediated (0 = the local
  /// pool served it; 1 = a peer shard's pool served it — or reported it
  /// unallocated — on the one-hop borrow path).
  int hops = 0;
  /// δs(c, q) per Equation 1.
  double satisfaction = 0;
  /// Reconstructed per-query adequation over the consulted set.
  double adequation = 0;
  /// Reconstructed per-query allocation satisfaction.
  double allocation_satisfaction = 0;
  /// Providers that returned a result.
  std::vector<model::ProviderId> performers;
};

/// First-class terminal outcome taxonomy: every query ends in exactly one
/// of these (surfaced through mediator stats, RunSummary, Engine::Stats
/// and the CLI).
enum class OutcomeKind : uint8_t {
  kSatisfied,  ///< >= 1 result, first attempt, before any deadline
  kTimedOut,   ///< finalized by a deadline (with whatever results arrived)
  kRetried,    ///< >= 1 result, but only after re-mediation (attempts > 1)
  kFailed,     ///< no results at all (unallocated, or every attempt failed)
  kShed,       ///< rejected at admission (overloaded facade)
};

/// Classifies a finalized outcome. Precedence: shed > unallocated/failed >
/// timed out > retried > satisfied.
inline OutcomeKind ClassifyOutcome(const QueryOutcome& outcome) {
  if (outcome.shed) return OutcomeKind::kShed;
  if (outcome.unallocated) return OutcomeKind::kFailed;
  if (outcome.timed_out) return OutcomeKind::kTimedOut;
  if (outcome.results_received <= 0) return OutcomeKind::kFailed;
  return outcome.attempts > 1 ? OutcomeKind::kRetried
                              : OutcomeKind::kSatisfied;
}

inline const char* OutcomeKindName(OutcomeKind kind) {
  switch (kind) {
    case OutcomeKind::kSatisfied: return "satisfied";
    case OutcomeKind::kTimedOut: return "timed_out";
    case OutcomeKind::kRetried: return "retried";
    case OutcomeKind::kFailed: return "failed";
    case OutcomeKind::kShed: return "shed";
  }
  return "unknown";
}

/// Callback interface for mediation events. All methods have empty default
/// implementations; implementations must not re-enter the mediator.
class MediationObserver {
 public:
  virtual ~MediationObserver() = default;

  /// A query was finalized (normally, partially, by timeout, or
  /// unallocated — inspect the outcome flags).
  virtual void OnQueryCompleted(const QueryOutcome& outcome) {
    (void)outcome;
  }

  /// An allocation decision was made (before dispatch latency).
  virtual void OnMediation(const model::Query& query,
                           const AllocationDecision& decision, double now) {
    (void)query;
    (void)decision;
    (void)now;
  }

  /// A provider left the system out of dissatisfaction.
  virtual void OnProviderDeparted(model::ProviderId provider, double now) {
    (void)provider;
    (void)now;
  }

  /// A provider went offline / came back online (availability churn, not
  /// dissatisfaction).
  virtual void OnProviderAvailabilityChanged(model::ProviderId provider,
                                             bool available, double now) {
    (void)provider;
    (void)available;
    (void)now;
  }

  /// A consumer stopped issuing queries out of dissatisfaction.
  virtual void OnConsumerRetired(model::ConsumerId consumer, double now) {
    (void)consumer;
    (void)now;
  }
};

}  // namespace sbqa::core

#endif  // SBQA_CORE_MEDIATION_H_
