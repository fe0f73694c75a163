#include "metrics/collector.h"

#include <algorithm>
#include <utility>

#include "sim/network.h"
#include "util/check.h"

namespace sbqa::metrics {

Collector::Stream::Stream(Collector* owner_in)
    : owner(owner_in), response_hist(0.0, 120.0, 480), recent_response(256) {}

Collector::Stream::PendingEvent& Collector::Stream::Buffer(
    PendingEvent::Kind kind, double now) {
  pending.emplace_back();
  PendingEvent& event = pending.back();
  event.kind = kind;
  event.now = now;
  return event;
}

void Collector::Stream::OnQueryCompleted(const core::QueryOutcome& outcome) {
  ++completed;
  if (outcome.validated) ++validated;
  if (outcome.results_received >= 1) {
    response_hist.Add(outcome.response_time);
    recent_response.Push(outcome.response_time);
  }
  if (!owner->shared_observers_.empty()) {
    Buffer(PendingEvent::Kind::kCompleted, outcome.completed_at).outcome =
        outcome;
  }
}

void Collector::Stream::OnMediation(const model::Query& query,
                                    const core::AllocationDecision& decision,
                                    double now) {
  if (owner->shared_observers_.empty()) return;
  PendingEvent& event = Buffer(PendingEvent::Kind::kMediation, now);
  event.query = query;
  event.decision = decision;
}

void Collector::Stream::OnProviderDeparted(model::ProviderId provider,
                                           double now) {
  // The departing provider is owned by the mediator's shard, so this read
  // stays within the single-writer discipline.
  departed_provider_satisfaction.push_back(
      owner->registry_->hot().Satisfaction(static_cast<uint32_t>(provider)));
  if (!owner->shared_observers_.empty()) {
    Buffer(PendingEvent::Kind::kDeparted, now).provider = provider;
  }
}

void Collector::Stream::OnProviderAvailabilityChanged(
    model::ProviderId provider, bool available, double now) {
  if (owner->shared_observers_.empty()) return;
  PendingEvent& event = Buffer(PendingEvent::Kind::kAvailability, now);
  event.provider = provider;
  event.available = available;
}

void Collector::Stream::OnConsumerRetired(model::ConsumerId consumer,
                                          double now) {
  if (owner->shared_observers_.empty()) return;
  Buffer(PendingEvent::Kind::kRetired, now).consumer = consumer;
}

Collector::Collector(sim::Simulation* sim, core::Registry* registry,
                     core::Mediator* mediator, double sample_interval)
    : Collector(std::vector<sim::Simulation*>{sim}, registry,
                std::vector<core::Mediator*>{mediator}, sample_interval) {}

Collector::Collector(std::vector<sim::Simulation*> sims,
                     core::Registry* registry,
                     std::vector<core::Mediator*> mediators,
                     double sample_interval)
    : sims_(std::move(sims)),
      registry_(registry),
      mediators_(std::move(mediators)),
      sample_interval_(sample_interval) {
  SBQA_CHECK(!sims_.empty());
  for (sim::Simulation* sim : sims_) SBQA_CHECK(sim != nullptr);
  SBQA_CHECK(registry_ != nullptr);
  SBQA_CHECK(!mediators_.empty());
  SBQA_CHECK_GT(sample_interval, 0);
  initial_provider_count_ = registry_->provider_count();
  streams_.reserve(mediators_.size());
  for (core::Mediator* mediator : mediators_) {
    SBQA_CHECK(mediator != nullptr);
    streams_.push_back(std::make_unique<Stream>(this));
    mediator->AddObserver(streams_.back().get());
  }
}

void Collector::AttachSharedObserver(core::MediationObserver* observer) {
  SBQA_CHECK(observer != nullptr);
  shared_observers_.push_back(observer);
}

void Collector::FlushSharedObservers() {
  if (shared_observers_.empty()) return;
  // Fixed (mediator/shard, FIFO) replay order — the deterministic merged
  // view of the run's event streams.
  for (const auto& stream : streams_) {
    for (const Stream::PendingEvent& event : stream->pending) {
      for (core::MediationObserver* observer : shared_observers_) {
        switch (event.kind) {
          case Stream::PendingEvent::Kind::kMediation:
            observer->OnMediation(event.query, event.decision, event.now);
            break;
          case Stream::PendingEvent::Kind::kCompleted:
            observer->OnQueryCompleted(event.outcome);
            break;
          case Stream::PendingEvent::Kind::kDeparted:
            observer->OnProviderDeparted(event.provider, event.now);
            break;
          case Stream::PendingEvent::Kind::kAvailability:
            observer->OnProviderAvailabilityChanged(event.provider,
                                                    event.available,
                                                    event.now);
            break;
          case Stream::PendingEvent::Kind::kRetired:
            observer->OnConsumerRetired(event.consumer, event.now);
            break;
        }
      }
    }
    stream->pending.clear();
  }
}

core::MediatorStats Collector::AggregateStats() const {
  core::MediatorStats total;
  for (const core::Mediator* mediator : mediators_) {
    total.Merge(mediator->stats());
  }
  return total;
}

int64_t Collector::TotalCompleted() const {
  int64_t total = 0;
  for (const auto& stream : streams_) total += stream->completed;
  return total;
}

int64_t Collector::TotalValidated() const {
  int64_t total = 0;
  for (const auto& stream : streams_) total += stream->validated;
  return total;
}

util::Histogram Collector::response_histogram() const {
  util::Histogram merged(0.0, 120.0, 480);
  for (const auto& stream : streams_) merged.Merge(stream->response_hist);
  return merged;
}

void Collector::Start(double until) {
  sample_until_ = until;
  Snapshot();  // t = now baseline
  ScheduleTick();
}

void Collector::ScheduleTick() {
  sim::Simulation* sim = sims_.front();
  if (sim->now() + sample_interval_ > sample_until_) return;
  sim->scheduler().Schedule(sample_interval_, [this] {
    Snapshot();
    ScheduleTick();
  });
}

void Collector::Snapshot() {
  const double now = sims_.front()->now();

  // Consumer-side aggregates (consumers with at least one completed query).
  double c_sat = 0, c_adq = 0;
  size_t c_n = 0;
  for (const core::Consumer& c : registry_->consumers()) {
    if (c.satisfaction_tracker().sample_count() == 0) continue;
    c_sat += c.satisfaction();
    c_adq += c.satisfaction_tracker().adequation();
    ++c_n;
  }
  series_.consumer_satisfaction.Add(now, c_n ? c_sat / c_n : 0.0);
  series_.consumer_adequation.Add(now, c_n ? c_adq / c_n : 0.0);

  // Provider-side aggregates over alive providers, read off the
  // registry's hot block slot by slot.
  const core::ProviderHotState& hot = registry_->hot();
  double p_sat = 0, p_adq = 0, backlog_sum = 0;
  std::vector<double> backlogs;
  backlogs.reserve(hot.size());
  size_t p_alive = 0;
  for (uint32_t slot = 0; slot < hot.size(); ++slot) {
    if (!hot.alive(slot)) continue;
    p_sat += hot.Satisfaction(slot);
    p_adq += hot.Adequation(slot);
    const double b = hot.Backlog(slot, now);
    backlog_sum += b;
    backlogs.push_back(b);
    ++p_alive;
  }
  series_.provider_satisfaction.Add(now, p_alive ? p_sat / p_alive : 0.0);
  series_.provider_adequation.Add(now, p_alive ? p_adq / p_alive : 0.0);
  series_.alive_providers.Add(now, static_cast<double>(p_alive));
  series_.active_consumers.Add(
      now, static_cast<double>(registry_->active_consumer_count()));
  const double total_capacity = registry_->TotalCapacity();
  series_.alive_capacity_fraction.Add(
      now, total_capacity > 0 ? registry_->AliveCapacity() / total_capacity
                              : 0.0);
  series_.mean_backlog.Add(now, p_alive ? backlog_sum / p_alive : 0.0);
  series_.backlog_gini.Add(now, util::GiniCoefficient(std::move(backlogs)));

  // Windowed recent-response mean, weighted across the streams' windows.
  double window_sum = 0;
  size_t window_n = 0;
  for (const auto& stream : streams_) {
    window_sum += stream->recent_response.Sum();
    window_n += stream->recent_response.size();
  }
  series_.recent_response_time.Add(
      now, window_n ? window_sum / static_cast<double>(window_n) : 0.0);

  const int64_t completed = TotalCompleted();
  const double completed_delta =
      static_cast<double>(completed - completed_at_last_sample_);
  completed_at_last_sample_ = completed;
  series_.throughput.Add(now, completed_delta / sample_interval_);
}

RunSummary Collector::Summarize(double duration) const {
  SBQA_CHECK_GT(duration, 0);
  RunSummary s;
  s.method = mediators_.front()->method().name();
  s.duration = duration;

  // Consumer side.
  double c_sat = 0, c_adq = 0, c_alloc = 0;
  double c_min = 1.0;
  size_t c_n = 0;
  for (const core::Consumer& c : registry_->consumers()) {
    if (c.satisfaction_tracker().sample_count() == 0) continue;
    const double v = c.satisfaction();
    c_sat += v;
    c_min = std::min(c_min, v);
    c_adq += c.satisfaction_tracker().adequation();
    c_alloc += c.satisfaction_tracker().allocation_satisfaction();
    ++c_n;
  }
  s.consumer_satisfaction = c_n ? c_sat / c_n : 0.0;
  s.consumer_adequation = c_n ? c_adq / c_n : 0.0;
  s.consumer_allocation_satisfaction = c_n ? c_alloc / c_n : 0.0;
  s.min_consumer_satisfaction = c_n ? c_min : 0.0;

  // Provider side.
  double p_sat = 0, p_adq = 0, p_alloc = 0, busy = 0;
  double p_min = 1.0;
  size_t p_alive = 0;
  const core::ProviderHotState& hot = registry_->hot();
  std::vector<double> busy_seconds;
  std::vector<double> instance_counts;
  busy_seconds.reserve(hot.size());
  instance_counts.reserve(hot.size());
  double p_sat_all = 0;
  for (uint32_t slot = 0; slot < hot.size(); ++slot) {
    busy_seconds.push_back(hot.busy_seconds(slot));
    instance_counts.push_back(
        static_cast<double>(hot.instances_performed(slot)));
    busy += hot.busy_seconds(slot);
    if (!hot.alive(slot)) continue;
    const double v = hot.Satisfaction(slot);
    p_sat += v;
    p_sat_all += v;
    p_min = std::min(p_min, v);
    p_adq += hot.Adequation(slot);
    p_alloc += hot.AllocationSatisfaction(slot);
    ++p_alive;
  }
  for (const auto& stream : streams_) {
    for (double v : stream->departed_provider_satisfaction) p_sat_all += v;
  }
  const size_t p_total = registry_->provider_count();
  s.provider_satisfaction = p_alive ? p_sat / p_alive : 0.0;
  s.provider_satisfaction_all =
      p_total ? p_sat_all / static_cast<double>(p_total) : 0.0;
  s.provider_adequation = p_alive ? p_adq / p_alive : 0.0;
  s.provider_allocation_satisfaction = p_alive ? p_alloc / p_alive : 0.0;
  s.min_provider_satisfaction = p_alive ? p_min : 0.0;

  // Performance.
  const core::MediatorStats ms = AggregateStats();
  const util::Histogram response = response_histogram();
  s.mean_response_time = response.mean();
  s.p50_response_time = response.Percentile(0.50);
  s.p95_response_time = response.Percentile(0.95);
  s.p99_response_time = response.Percentile(0.99);
  s.queries_submitted = ms.queries_submitted;
  s.queries_finalized = ms.queries_finalized;
  s.queries_fully_served = ms.queries_fully_served;
  s.queries_unallocated = ms.queries_unallocated;
  s.queries_timed_out = ms.queries_timed_out;
  s.queries_delegated = ms.queries_delegated;
  s.queries_borrowed = ms.queries_borrowed;
  s.mean_borrow_hops = ms.queries_finalized
                           ? static_cast<double>(ms.queries_rehomed) /
                                 static_cast<double>(ms.queries_finalized)
                           : 0.0;
  s.queries_satisfied = ms.queries_satisfied;
  s.queries_recovered = ms.queries_recovered;
  s.queries_failed = ms.queries_failed;
  s.retry_attempts = ms.retry_attempts;
  s.instances_abandoned = ms.instances_abandoned;
  s.providers_suspected = ms.providers_suspected;
  s.providers_probed = ms.providers_probed;
  s.throughput = static_cast<double>(ms.queries_finalized) / duration;
  s.fully_served_fraction =
      ms.queries_finalized
          ? static_cast<double>(ms.queries_fully_served) /
                static_cast<double>(ms.queries_finalized)
          : 0.0;

  // Autonomy.
  s.provider_departures = ms.provider_departures;
  s.provider_offline_events = ms.provider_offline_events;
  s.provider_joins = static_cast<int64_t>(registry_->provider_count()) -
                     static_cast<int64_t>(initial_provider_count_);
  s.consumer_retirements = ms.consumer_retirements;
  s.provider_retention =
      p_total ? static_cast<double>(p_alive) / static_cast<double>(p_total)
              : 1.0;
  s.provider_survival =
      p_total ? 1.0 - static_cast<double>(ms.provider_departures) /
                          static_cast<double>(p_total)
              : 1.0;
  const size_t c_total = registry_->consumer_count();
  s.consumer_retention =
      c_total ? static_cast<double>(registry_->active_consumer_count()) /
                    static_cast<double>(c_total)
              : 1.0;
  const double total_capacity = registry_->TotalCapacity();
  s.capacity_retention =
      total_capacity > 0 ? registry_->AliveCapacity() / total_capacity : 1.0;

  // Fairness over the whole population (including departed providers:
  // their busy history is part of the run).
  s.busy_gini = util::GiniCoefficient(busy_seconds);
  s.busy_jain = util::JainFairnessIndex(busy_seconds);
  util::RunningStats inst_stats;
  for (double v : instance_counts) inst_stats.Add(v);
  s.instances_cv = inst_stats.cv();
  s.mean_provider_busy_fraction =
      p_total ? busy / (static_cast<double>(p_total) * duration) : 0.0;

  const int64_t completed = TotalCompleted();
  s.validated_fraction =
      completed ? static_cast<double>(TotalValidated()) /
                      static_cast<double>(completed)
                : 0.0;
  uint64_t messages = 0;
  for (sim::Simulation* sim : sims_) messages += sim->network().messages_sent();
  s.messages_sent = messages;
  return s;
}

std::vector<ParticipantSnapshot> Collector::ConsumerSnapshots() const {
  std::vector<ParticipantSnapshot> out;
  out.reserve(registry_->consumer_count());
  for (const core::Consumer& c : registry_->consumers()) {
    ParticipantSnapshot snap;
    snap.id = c.id();
    snap.label = c.params().label;
    snap.alive = c.active();
    snap.satisfaction = c.satisfaction();
    snap.adequation = c.satisfaction_tracker().adequation();
    snap.allocation_satisfaction =
        c.satisfaction_tracker().allocation_satisfaction();
    snap.interactions = c.queries_completed();
    out.push_back(std::move(snap));
  }
  return out;
}

std::vector<ParticipantSnapshot> Collector::ProviderSnapshots() const {
  std::vector<ParticipantSnapshot> out;
  out.reserve(registry_->provider_count());
  const double now = sims_.front()->now();
  const core::ProviderHotState& hot = registry_->hot();
  for (const core::Provider& p : registry_->providers()) {
    const uint32_t slot = p.hot_slot();
    ParticipantSnapshot snap;
    snap.id = p.id();
    snap.label = p.label();
    snap.alive = hot.alive(slot);
    snap.satisfaction = hot.Satisfaction(slot);
    snap.adequation = hot.Adequation(slot);
    snap.allocation_satisfaction = hot.AllocationSatisfaction(slot);
    snap.interactions = static_cast<int64_t>(hot.proposal_count(slot));
    snap.performed = hot.instances_performed(slot);
    snap.busy_fraction = now > 0 ? hot.busy_seconds(slot) / now : 0.0;
    out.push_back(std::move(snap));
  }
  return out;
}

}  // namespace sbqa::metrics
