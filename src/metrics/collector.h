#ifndef SBQA_METRICS_COLLECTOR_H_
#define SBQA_METRICS_COLLECTOR_H_

/// \file
/// The metrics collector observes a running mediator and periodically
/// snapshots the participant population, producing both the on-line time
/// series (paper Fig. 2b) and the end-of-run summary tables.
///
/// Observer state is kept in one stream PER OBSERVED MEDIATOR (merged on
/// read), so that in sharded mode — one mediator per shard, one worker
/// thread per shard — each stream has a single writer and the collector
/// stays race-free without locks. Population snapshots read the whole
/// registry and must only run while shards are quiescent: a lone shard
/// schedules them as simulation events (Start), several shards drive
/// Snapshot() from a ShardSet barrier hook.
///
/// Shared observers under sharding: an observer that wants to watch EVERY
/// shard cannot be attached to the mediators directly (it would be called
/// from every worker thread). AttachSharedObserver instead turns each
/// per-mediator stream into a single-writer event buffer; at every barrier
/// the driver calls FlushSharedObservers(), which replays the buffered
/// events to the shared observers in fixed (shard, FIFO) order — the same
/// merged cross-shard snapshot view the counters get, and just as
/// deterministic.

#include <memory>
#include <vector>

#include "core/mediation.h"
#include "core/mediator.h"
#include "core/registry.h"
#include "metrics/summary.h"
#include "metrics/timeseries.h"
#include "sim/simulation.h"
#include "util/sliding_window.h"
#include "util/stats.h"

namespace sbqa::metrics {

/// Observes one mediator (or a mediator group / shard set of them) for the
/// duration of a run.
class Collector {
 public:
  /// `sample_interval` seconds between population snapshots. All pointers
  /// must outlive the collector; the collector registers one observer
  /// stream on `mediator`.
  Collector(sim::Simulation* sim, core::Registry* registry,
            core::Mediator* mediator, double sample_interval = 10.0);

  /// General flavour: `sims[s]` is shard s's simulation (sims[0] is the
  /// time reference for snapshots) and `mediators` every mediator sharing
  /// the registry, whose statistics are aggregated. Network counters are
  /// summed across all sims. With one sim, Start() samples through its
  /// events; with several, drive sampling from a barrier hook via
  /// Snapshot().
  Collector(std::vector<sim::Simulation*> sims, core::Registry* registry,
            std::vector<core::Mediator*> mediators,
            double sample_interval = 10.0);

  /// Schedules periodic snapshots until `until` (simulation time) as
  /// events of sims[0]. One shard only (the snapshot reads every shard's
  /// state, which is only safe mid-run when there is one shard).
  void Start(double until);

  /// Takes one population snapshot now. In sharded mode call this from a
  /// barrier hook (all shard workers parked).
  void Snapshot();

  /// Registers an observer shared across every observed mediator (not
  /// owned; must outlive the collector). Events are buffered per mediator
  /// stream (single writer) and replayed by FlushSharedObservers — attach
  /// before the run starts. Safe in sharded mode, unlike attaching the
  /// observer to each mediator directly. Buffering COPIES each event's
  /// payload (for mediations, the full AllocationDecision): this is a
  /// diagnostics/tests path, deliberately outside the engine's
  /// allocation-free steady-state contract — runs without shared
  /// observers buffer nothing.
  void AttachSharedObserver(core::MediationObserver* observer);

  /// Replays all buffered events to the shared observers in fixed
  /// (mediator/shard, FIFO) order and clears the buffers. Call from a
  /// barrier hook (workers parked) and once after the run's final drain.
  void FlushSharedObservers();

  bool has_shared_observers() const { return !shared_observers_.empty(); }

  /// Builds the end-of-run aggregate. `duration` is the simulated run
  /// length used for throughput and busy fractions.
  RunSummary Summarize(double duration) const;

  /// Per-participant final states for detailed views.
  std::vector<ParticipantSnapshot> ConsumerSnapshots() const;
  std::vector<ParticipantSnapshot> ProviderSnapshots() const;

  const RunSeries& series() const { return series_; }
  /// Response-time distribution merged across the observed mediators.
  util::Histogram response_histogram() const;

 private:
  /// Single-writer observer state of one mediator. In sharded mode only
  /// the owning shard's thread touches it; merged on read at barriers /
  /// end of run.
  struct Stream final : core::MediationObserver {
    /// One buffered mediation event, replayed to the shared observers at
    /// barriers. Only recorded when shared observers are attached.
    struct PendingEvent {
      enum class Kind : uint8_t {
        kMediation,
        kCompleted,
        kDeparted,
        kAvailability,
        kRetired,
      };
      Kind kind = Kind::kCompleted;
      bool available = false;
      double now = 0;
      model::ProviderId provider = model::kInvalidId;
      model::ConsumerId consumer = model::kInvalidId;
      model::Query query;
      core::AllocationDecision decision;
      core::QueryOutcome outcome;
    };

    Stream(Collector* owner);

    void OnQueryCompleted(const core::QueryOutcome& outcome) override;
    void OnMediation(const model::Query& query,
                     const core::AllocationDecision& decision,
                     double now) override;
    void OnProviderDeparted(model::ProviderId provider, double now) override;
    void OnProviderAvailabilityChanged(model::ProviderId provider,
                                       bool available, double now) override;
    void OnConsumerRetired(model::ConsumerId consumer, double now) override;

    PendingEvent& Buffer(PendingEvent::Kind kind, double now);

    Collector* owner;
    int64_t completed = 0;
    int64_t validated = 0;
    util::Histogram response_hist;
    util::WindowedMean recent_response;
    /// Satisfaction of departed providers frozen at departure time, so the
    /// "all providers" aggregate includes them.
    std::vector<double> departed_provider_satisfaction;
    /// Events awaiting the next FlushSharedObservers (empty when no shared
    /// observer is attached).
    std::vector<PendingEvent> pending;
  };

  void ScheduleTick();
  /// Sums counters and merges distributions across the observed mediators.
  core::MediatorStats AggregateStats() const;
  int64_t TotalCompleted() const;
  int64_t TotalValidated() const;

  std::vector<sim::Simulation*> sims_;
  core::Registry* registry_;
  std::vector<core::Mediator*> mediators_;
  std::vector<std::unique_ptr<Stream>> streams_;
  std::vector<core::MediationObserver*> shared_observers_;
  double sample_interval_;
  double sample_until_ = 0;

  RunSeries series_;
  int64_t completed_at_last_sample_ = 0;
  size_t initial_provider_count_ = 0;
};

}  // namespace sbqa::metrics

#endif  // SBQA_METRICS_COLLECTOR_H_
