#ifndef SBQA_METRICS_SUMMARY_H_
#define SBQA_METRICS_SUMMARY_H_

/// \file
/// End-of-run aggregate metrics: the rows that the demo's result tables and
/// this repository's bench binaries print.

#include <cstdint>
#include <string>
#include <vector>

namespace sbqa::metrics {

/// One experiment run, fully aggregated.
struct RunSummary {
  std::string method;     ///< allocation method name
  double duration = 0;    ///< simulated seconds

  // Satisfaction (end-of-run state of the trackers).
  double consumer_satisfaction = 0;  ///< mean δs over consumers with samples
  double provider_satisfaction = 0;  ///< mean δs over *alive* providers
  double provider_satisfaction_all = 0;  ///< mean δs incl. departed (at departure)
  double consumer_adequation = 0;
  double provider_adequation = 0;
  double consumer_allocation_satisfaction = 0;
  double provider_allocation_satisfaction = 0;
  double min_consumer_satisfaction = 0;
  double min_provider_satisfaction = 0;

  // Performance.
  double mean_response_time = 0;  ///< seconds, queries with >= 1 result
  double p50_response_time = 0;
  double p95_response_time = 0;
  double p99_response_time = 0;
  double throughput = 0;          ///< finalized queries per second
  int64_t queries_submitted = 0;
  int64_t queries_finalized = 0;
  int64_t queries_fully_served = 0;
  int64_t queries_unallocated = 0;
  int64_t queries_timed_out = 0;
  /// Cross-shard borrow protocol (0 unless sharded): queries forwarded to
  /// a peer shard because the origin's candidate pool was dry / mediated
  /// on behalf of a peer.
  int64_t queries_delegated = 0;
  int64_t queries_borrowed = 0;
  /// Mean cross-shard hops over every finalized query: the share of
  /// finalized queries a peer shard mediated, since a borrow is one hop
  /// (0 = all served locally).
  double mean_borrow_hops = 0;
  double fully_served_fraction = 0;

  // Autonomy / retention. With runtime joins, retention ratios are over
  // the final registry size (initial population + joins).
  int64_t provider_departures = 0;
  int64_t provider_offline_events = 0;  ///< churn spells, not departures
  int64_t provider_joins = 0;           ///< volunteers that joined at runtime
  int64_t consumer_retirements = 0;
  double provider_retention = 1;      ///< alive / total (offline counts as lost)
  double provider_survival = 1;       ///< 1 - departed / total (churn-agnostic)
  double consumer_retention = 1;      ///< active / total
  double capacity_retention = 1;      ///< alive capacity / total capacity

  // Load balance & fairness.
  double busy_gini = 0;          ///< Gini of per-provider busy seconds
  double busy_jain = 1;          ///< Jain index of per-provider busy seconds
  double instances_cv = 0;       ///< CV of per-provider performed instances
  double mean_provider_busy_fraction = 0;  ///< busy_seconds / duration

  // Robustness: terminal-outcome taxonomy and recovery counters (all zero
  // unless retries / health detection are configured).
  int64_t queries_satisfied = 0;    ///< >= 1 result on the first attempt
  int64_t queries_recovered = 0;    ///< >= 1 result only after re-mediation
  int64_t queries_failed = 0;       ///< allocated but no results at all
  int64_t retry_attempts = 0;       ///< re-mediations scheduled
  int64_t instances_abandoned = 0;  ///< pending instances written off by retries
  int64_t providers_suspected = 0;  ///< health-detector suspensions
  int64_t providers_probed = 0;     ///< suspensions probed back in

  // Fault plane (all zero unless the scenario configures a fault plan).
  int64_t fault_sends_dropped = 0;  ///< dispatches dropped by the injector
  int64_t fault_sends_delayed = 0;  ///< dispatches deferred by the injector
  int64_t fault_sends_crashed = 0;  ///< dispatches lost to crash windows

  // Validation (BOINC layer).
  double validated_fraction = 0;  ///< queries meeting their quorum

  // Network.
  uint64_t messages_sent = 0;
};

/// Per-participant snapshot for detailed views (Scenario 7, examples).
struct ParticipantSnapshot {
  int32_t id = -1;
  std::string label;
  bool alive = true;
  double satisfaction = 0;
  double adequation = 0;
  double allocation_satisfaction = 0;
  int64_t interactions = 0;  ///< queries completed (consumers) / proposals (providers)
  int64_t performed = 0;     ///< instances performed (providers only)
  double busy_fraction = 0;  ///< providers only
};

}  // namespace sbqa::metrics

#endif  // SBQA_METRICS_SUMMARY_H_
