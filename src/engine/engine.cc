#include "engine/engine.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "core/mediation.h"
#include "core/mediator.h"
#include "core/registry.h"
#include "core/shard_directory.h"
#include "experiments/methods.h"
#include "model/query.h"
#include "model/reputation.h"
#include "runtime/wallclock_shard_set.h"
#include "sim/simulation.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/slot_pool.h"

namespace sbqa {

namespace {

/// Manual-clock step of WaitIdle on the single-runtime engine.
constexpr double kManualIdleStep = 0.001;

/// Epoch applier of the sharded engine: routes each membership op applied
/// by Registry::AdvanceEpoch to the owning shard's mediator and grows the
/// reputation registry for joins. Runs on the barrier leader with every
/// shard worker parked.
class EngineMembership final : public core::MembershipApplier {
 public:
  EngineMembership(core::Registry* registry,
                   std::vector<core::Mediator*> mediators,
                   model::ReputationRegistry* reputation)
      : registry_(registry),
        mediators_(std::move(mediators)),
        reputation_(reputation) {}

  void ApplyAvailability(model::ProviderId provider,
                         bool available) override {
    Owner(provider)->ApplyProviderAvailability(provider, available);
  }

  void ApplyDeparture(model::ProviderId provider) override {
    Owner(provider)->ApplyProviderDeparture(provider);
  }

  void OnProviderJoined(model::ProviderId provider) override {
    reputation_->GrowTo(registry_->provider_count());
    // Grow every mediator's per-provider tables NOW, at the barrier, so
    // first contact with the newcomer stays allocation-free on the query
    // path (any shard can touch it: dispatch on the owner, failure
    // bookkeeping on a borrower).
    for (core::Mediator* mediator : mediators_) {
      mediator->EnsureProviderTables(provider);
    }
  }

 private:
  core::Mediator* Owner(model::ProviderId provider) {
    return mediators_[registry_->ProviderShard(provider)];
  }

  core::Registry* registry_;
  std::vector<core::Mediator*> mediators_;
  model::ReputationRegistry* reputation_;
};

/// Field-by-field sum of two mediator counter blocks (parallel Welford for
/// the running stats) — the cross-shard aggregate Stats() reports.
void MergeMediatorStats(core::MediatorStats* into,
                        const core::MediatorStats& s) {
  into->queries_submitted += s.queries_submitted;
  into->queries_finalized += s.queries_finalized;
  into->queries_unallocated += s.queries_unallocated;
  into->queries_timed_out += s.queries_timed_out;
  into->queries_fully_served += s.queries_fully_served;
  into->instances_dispatched += s.instances_dispatched;
  into->instances_completed += s.instances_completed;
  into->instances_failed += s.instances_failed;
  into->provider_departures += s.provider_departures;
  into->provider_offline_events += s.provider_offline_events;
  into->consumer_retirements += s.consumer_retirements;
  into->queries_delegated += s.queries_delegated;
  into->queries_borrowed += s.queries_borrowed;
  into->queries_rehomed += s.queries_rehomed;
  into->queries_satisfied += s.queries_satisfied;
  into->queries_recovered += s.queries_recovered;
  into->queries_failed += s.queries_failed;
  into->retry_attempts += s.retry_attempts;
  into->instances_abandoned += s.instances_abandoned;
  into->instances_dispatched_dead += s.instances_dispatched_dead;
  into->providers_suspected += s.providers_suspected;
  into->providers_probed += s.providers_probed;
  into->response_time.Merge(s.response_time);
  into->query_satisfaction.Merge(s.query_satisfaction);
}

}  // namespace

/// Everything behind the facade. Also the mediation observer that turns
/// QueryOutcomes into user callbacks.
struct Engine::Impl final : core::MediationObserver {
  EngineOptions options;

  /// Exactly one of these backs `runtime` (shard_set: runtime == shard 0).
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<rt::WallClockRuntime> wall;
  std::unique_ptr<rt::WallClockShardSet> shard_set;
  /// When options.fault_plan is enabled, wraps the backing runtime and
  /// becomes `runtime` — the mediation stack sees faults; the facade's own
  /// control paths (Submit posts, probes) go through exempt delegation.
  /// Sharded engines get one injector per shard instead, with per-shard
  /// derived fault streams.
  std::unique_ptr<rt::FaultInjector> fault;
  std::vector<std::unique_ptr<rt::FaultInjector>> shard_faults;
  rt::Runtime* runtime = nullptr;

  core::Registry registry;
  std::unique_ptr<model::ReputationRegistry> reputation;
  /// Single-runtime engine's mediator (null when sharded)...
  std::unique_ptr<core::Mediator> mediator;
  /// ...or one mediator partition per shard (empty when unsharded).
  std::vector<std::unique_ptr<core::Mediator>> mediators;
  std::vector<core::Mediator*> mediator_ptrs;
  core::ShardDirectory directory;
  std::unique_ptr<EngineMembership> membership;
  /// Serializes Start/Stop against Stats/Snapshot: a probe posted to the
  /// executor is only awaited while this lock keeps Stop from joining the
  /// service thread underneath it, and started/stopped reads are
  /// race-free under it.
  mutable std::mutex lifecycle_mu;
  bool started = false;
  bool stopped = false;

  /// Slot-versioned ticket pool mapping in-flight query ids to their
  /// outcome callbacks. Acquired on driver threads (Submit), released on
  /// the executor (Deliver) — hence the mutex; steady state recycles slots
  /// without allocating. The pool's 31-bit generations keep tickets (which
  /// become model::QueryId, an int64) positive.
  std::mutex ticket_mu;
  util::SlotPool<OutcomeCallback> tickets;
  std::atomic<int64_t> tickets_live{0};
  /// Queries rejected at admission (max_pending / bounded submit queue).
  std::atomic<int64_t> queries_shed{0};

  /// Whether a service thread owns the executor (then cross-thread reads
  /// of mediator state must hop through RunOnExecutor, or RunAtBarrier in
  /// sharded mode).
  bool threaded() const {
    return options.mode == EngineMode::kWallClock &&
           !options.wallclock.manual_clock && started && !stopped;
  }
  bool sharded() const { return shard_set != nullptr; }

  /// Runs `fn` at a quiescent point of the engine: inline before Start,
  /// at a barrier (workers parked) in sharded mode, on the executor in
  /// threaded single-runtime mode, directly otherwise (sim / manual clock:
  /// the caller IS the executor context). Blocks until `fn` ran.
  template <typename Fn>
  void RunQuiescent(Fn&& fn) {
    if (started && sharded()) {
      shard_set->RunAtBarrier(fn);
    } else if (threaded()) {
      RunOnExecutor(fn);
    } else {
      fn();
    }
  }

  uint64_t AcquireTicket(OutcomeCallback callback) {
    std::lock_guard<std::mutex> lock(ticket_mu);
    const uint64_t ticket = tickets.Acquire();
    tickets.at(util::SlotPool<OutcomeCallback>::SlotOf(ticket)) =
        std::move(callback);
    tickets_live.fetch_add(1, std::memory_order_relaxed);
    return ticket;
  }

  /// Takes back a ticket whose query never reached the mediator (bounded
  /// submit queue rejected it). Returns the callback for shed delivery.
  OutcomeCallback ReclaimTicket(uint64_t id) {
    std::lock_guard<std::mutex> lock(ticket_mu);
    OutcomeCallback callback =
        std::move(tickets.at(util::SlotPool<OutcomeCallback>::SlotOf(id)));
    tickets.Release(id);
    tickets_live.fetch_sub(1, std::memory_order_release);
    return callback;
  }

  /// Synchronous shed delivery, on the CALLER's thread: the query was
  /// rejected at admission and never reaches the executor.
  void ShedQuery(OutcomeCallback callback) {
    queries_shed.fetch_add(1, std::memory_order_relaxed);
    if (!callback) return;
    QueryResult result;
    result.shed = true;
    result.outcome = core::OutcomeKind::kShed;
    result.submitted_at = runtime->now();
    result.completed_at = result.submitted_at;
    callback(result);
  }

  // --- MediationObserver -----------------------------------------------------

  void OnQueryCompleted(const core::QueryOutcome& outcome) override {
    const uint64_t id = static_cast<uint64_t>(outcome.query.id);
    OutcomeCallback callback;
    {
      std::lock_guard<std::mutex> lock(ticket_mu);
      OutcomeCallback* held = tickets.Resolve(id);
      if (held == nullptr) return;  // stale/duplicate outcome
      callback = std::move(*held);
      tickets.Release(id);
      // tickets_live is decremented only AFTER the callback ran (below):
      // WaitIdle's contract is "every outcome delivered", not "every
      // ticket slot recycled".
    }
    if (!callback) {
      tickets_live.fetch_sub(1, std::memory_order_release);
      return;
    }
    QueryResult result;
    result.ticket = id;
    result.submitted_at = outcome.query.issued_at;
    result.completed_at = outcome.completed_at;
    result.response_time = outcome.response_time;
    result.results_required = outcome.results_required;
    result.results_received = outcome.results_received;
    result.valid_results = outcome.valid_results;
    result.validated = outcome.validated;
    result.timed_out = outcome.timed_out;
    result.unallocated = outcome.unallocated;
    result.shed = outcome.shed;
    result.attempts = outcome.attempts;
    result.outcome = core::ClassifyOutcome(outcome);
    result.satisfaction = outcome.satisfaction;
    result.adequation = outcome.adequation;
    result.allocation_satisfaction = outcome.allocation_satisfaction;
    callback(result);  // outside the lock: the callback may Submit
    tickets_live.fetch_sub(1, std::memory_order_release);
  }

  /// Runs `fn` on the executor and blocks until it finished (threaded
  /// mode's safe window into mediator/registry state).
  template <typename Fn>
  void RunOnExecutor(Fn&& fn) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    runtime->Post([&] {
      fn();
      // Notify while holding the lock: the waiter owns cv's storage and
      // may destroy it the moment it can re-acquire the mutex.
      std::lock_guard<std::mutex> lock(mu);
      done = true;
      cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  }

  EngineStats GatherStats() const {
    core::MediatorStats merged;
    if (!mediators.empty()) {
      for (const std::unique_ptr<core::Mediator>& m : mediators) {
        MergeMediatorStats(&merged, m->stats());
      }
    } else {
      merged = mediator->stats();
    }
    const core::MediatorStats& s = merged;
    EngineStats out;
    out.queries_submitted = s.queries_submitted;
    out.queries_finalized = s.queries_finalized;
    out.queries_fully_served = s.queries_fully_served;
    out.queries_unallocated = s.queries_unallocated;
    out.queries_timed_out = s.queries_timed_out;
    out.instances_dispatched = s.instances_dispatched;
    out.instances_completed = s.instances_completed;
    out.instances_failed = s.instances_failed;
    out.queries_in_flight = tickets_live.load(std::memory_order_relaxed);
    out.queries_satisfied = s.queries_satisfied;
    out.queries_recovered = s.queries_recovered;
    out.queries_failed = s.queries_failed;
    out.queries_shed = queries_shed.load(std::memory_order_relaxed);
    out.retry_attempts = s.retry_attempts;
    out.providers_suspected = s.providers_suspected;
    out.providers_probed = s.providers_probed;
    if (fault != nullptr) {
      const rt::FaultStats& f = fault->stats();
      out.fault_sends_dropped = f.sends_dropped;
      out.fault_sends_delayed = f.sends_delayed;
      out.fault_sends_crashed = f.sends_crashed;
    }
    for (const std::unique_ptr<rt::FaultInjector>& injector : shard_faults) {
      const rt::FaultStats& f = injector->stats();
      out.fault_sends_dropped += f.sends_dropped;
      out.fault_sends_delayed += f.sends_delayed;
      out.fault_sends_crashed += f.sends_crashed;
    }
    out.queries_delegated = s.queries_delegated;
    out.queries_borrowed = s.queries_borrowed;
    if (shard_set != nullptr) {
      out.shard_barriers = static_cast<int64_t>(shard_set->barriers());
      out.shard_early_barriers =
          static_cast<int64_t>(shard_set->early_barriers());
    }
    out.mean_response_time = s.response_time.mean();
    out.mean_satisfaction = s.query_satisfaction.mean();
    return out;
  }

  std::vector<EngineShardStats> GatherShardStats() const {
    std::vector<EngineShardStats> rows;
    rows.reserve(mediators.size());
    for (uint32_t s = 0; s < mediators.size(); ++s) {
      const core::MediatorStats& m = mediators[s]->stats();
      EngineShardStats row;
      row.shard = s;
      row.queries_submitted = m.queries_submitted;
      row.queries_finalized = m.queries_finalized;
      row.queries_delegated = m.queries_delegated;
      row.queries_borrowed = m.queries_borrowed;
      const rt::WallClockRuntime& rt = shard_set->runtime(s);
      row.pending_timers = static_cast<int64_t>(rt.pending_timers());
      row.tasks_executed = static_cast<int64_t>(rt.tasks_executed());
      rows.push_back(row);
    }
    return rows;
  }

  EngineSnapshot GatherSnapshot() const {
    EngineSnapshot snapshot;
    snapshot.now = runtime->now();
    snapshot.providers.reserve(registry.provider_count());
    for (const core::Provider& p : registry.providers()) {
      ProviderSnapshot row;
      row.id = p.id();
      row.label = p.params().label;
      row.alive = p.alive();
      row.satisfaction = p.satisfaction();
      row.adequation = p.satisfaction_tracker().adequation();
      row.instances_performed = p.instances_performed();
      row.busy_seconds = p.busy_seconds();
      snapshot.providers.push_back(std::move(row));
    }
    snapshot.consumers.reserve(registry.consumer_count());
    for (const core::Consumer& c : registry.consumers()) {
      ConsumerSnapshot row;
      row.id = c.id();
      row.label = c.params().label;
      row.active = c.active();
      row.satisfaction = c.satisfaction();
      row.adequation = c.satisfaction_tracker().adequation();
      row.queries_issued = c.queries_issued();
      snapshot.consumers.push_back(std::move(row));
    }
    return snapshot;
  }
};

Engine::Engine(EngineOptions options) : impl_(std::make_unique<Impl>()) {
  impl_->options = std::move(options);
  EngineOptions& opts = impl_->options;
  // With a hard admission cap, every in-flight query holds at most one
  // timeout timer plus a few completion/retry timers — reserve the
  // wall-clock timer pools for that bound up front so serving never
  // reallocates them. Each shard gets the FULL cap: the cap is global, and
  // saturation can skew all of it onto one shard.
  if (opts.max_pending > 0 && opts.wallclock.reserve_timers == 0) {
    opts.wallclock.reserve_timers =
        static_cast<size_t>(opts.max_pending) * 4;
  }
  if (opts.mode == EngineMode::kSimulated) {
    sim::SimulationConfig config;
    config.seed = opts.seed;
    config.latency_median = opts.latency_median;
    config.latency_sigma = opts.latency_sigma;
    config.latency_floor = opts.latency_floor;
    impl_->sim = std::make_unique<sim::Simulation>(config);
    impl_->runtime = &impl_->sim->runtime();
  } else if (opts.shards > 1) {
    rt::WallClockShardOptions config;
    config.shard_count = opts.shards;
    config.seed = opts.seed;
    config.barrier_tick = opts.shard_barrier_tick;
    config.outbox_fill_threshold = opts.shard_outbox_fill;
    config.runtime = opts.wallclock;
    config.manual_clock = opts.wallclock.manual_clock;
    impl_->shard_set = std::make_unique<rt::WallClockShardSet>(config);
    impl_->runtime = &impl_->shard_set->runtime(0);
  } else {
    rt::WallClockOptions config = opts.wallclock;
    config.seed = opts.seed;
    impl_->wall = std::make_unique<rt::WallClockRuntime>(config);
    impl_->runtime = impl_->wall.get();
  }
}

Engine::~Engine() { Stop(); }

model::ProviderId Engine::AddProvider(const ProviderOptions& options) {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lifecycle(impl.lifecycle_mu);
  if (!impl.started) return impl.registry.AddProvider(options);
  SBQA_CHECK(!impl.stopped);
  model::ProviderId id = model::kInvalidId;
  if (impl.sharded()) {
    // Post-Start joins go through the registry's epoch join log, exactly
    // like the sharded simulation's volunteer arrivals: the join is queued
    // and the epoch advanced at a barrier with every worker parked, the
    // owner shard falls out of the deterministic join hash, and the epoch
    // applier grows the reputation registry. Applying the epoch inside the
    // barrier (instead of waiting for the next membership phase) is what
    // lets the caller get the dense id back synchronously.
    impl.shard_set->RunAtBarrier([&] {
      impl.registry.QueueJoin(0, [&](core::Registry* registry) {
        id = registry->AddProvider(options);
        return id;
      });
      impl.registry.AdvanceEpoch(impl.membership.get());
    });
  } else {
    impl.RunQuiescent([&] {
      id = impl.registry.AddProvider(options);
      impl.reputation->GrowTo(impl.registry.provider_count());
    });
  }
  return id;
}

model::ConsumerId Engine::AddConsumer(const ConsumerOptions& options) {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lifecycle(impl.lifecycle_mu);
  if (!impl.started) return impl.registry.AddConsumer(options);
  SBQA_CHECK(!impl.stopped);
  model::ConsumerId id = model::kInvalidId;
  // Consumers carry no cross-shard mediation state, so a barrier (or the
  // executor) is a sufficient quiescent point — no epoch op needed.
  impl.RunQuiescent([&] { id = impl.registry.AddConsumer(options); });
  return id;
}

void Engine::SetConsumerPreference(model::ConsumerId consumer,
                                   model::ProviderId provider,
                                   double preference) {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lifecycle(impl.lifecycle_mu);
  impl.RunQuiescent([&] {
    impl.registry.consumer(consumer).preferences().Set(provider, preference);
  });
}

void Engine::SetProviderPreference(model::ProviderId provider,
                                   model::ConsumerId consumer,
                                   double preference) {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lifecycle(impl.lifecycle_mu);
  impl.RunQuiescent([&] {
    impl.registry.provider(provider).preferences().Set(consumer, preference);
  });
}

void Engine::Start() {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lifecycle(impl.lifecycle_mu);
  SBQA_CHECK(!impl.started);
  SBQA_CHECK_GT(impl.registry.provider_count(), 0u);
  SBQA_CHECK_GT(impl.registry.consumer_count(), 0u);

  // One allocation-method instance per mediator: a custom instance cannot
  // be replicated, so it requires the single-mediator configuration.
  std::unique_ptr<core::AllocationMethod> method =
      std::move(impl.options.custom_method);
  experiments::MethodSpec spec;
  if (method == nullptr) {
    SBQA_CHECK(experiments::MethodSpecFromName(impl.options.method, &spec));
  } else {
    SBQA_CHECK(impl.shard_set == nullptr);
  }
  // One master switch for the run's scoring kernel (a custom_method keeps
  // its own configuration).
  spec.sbqa.scoring_kernel = impl.options.scoring_kernel;
  spec.sbqa.decision_timing = impl.options.decision_timing;

  impl.reputation = std::make_unique<model::ReputationRegistry>(
      impl.registry.provider_count());

  core::MediatorConfig config;
  config.simulate_network = impl.options.mode == EngineMode::kSimulated &&
                            impl.options.simulate_network;
  // The fault plane interposes on destination sends, so dispatches must
  // route through them to be faultable. Under the wall-clock runtime this
  // is behavior-neutral when no fault fires: SendTo is zero-latency
  // deferred delivery and SampleLatency() is 0.
  if (impl.options.fault_plan.enabled()) config.simulate_network = true;
  config.query_timeout = impl.options.query_timeout;
  config.load_view_staleness = impl.options.load_view_staleness;
  config.max_retries = impl.options.max_retries;
  config.failure_threshold = impl.options.failure_threshold;
  config.probe_delay = impl.options.probe_delay;
  config.scoring_kernel = impl.options.scoring_kernel;

  if (impl.shard_set != nullptr) {
    // Thread-per-shard wiring: partition the registry, build one mediator
    // (optionally behind a per-shard fault injector whose streams derive
    // from (fault_plan.seed, shard)) on each shard's runtime, and wire the
    // barrier phases — epoch membership application and the consumer
    // satisfaction publish, then the cross-shard directory refresh. This
    // mirrors the sharded simulation runner.
    const uint32_t n = impl.shard_set->shard_count();
    impl.registry.SetShardCount(n);
    impl.mediators.reserve(n);
    impl.mediator_ptrs.reserve(n);
    for (uint32_t s = 0; s < n; ++s) {
      rt::Runtime* shard_rt = &impl.shard_set->runtime(s);
      if (impl.options.fault_plan.enabled()) {
        rt::FaultPlan plan = impl.options.fault_plan;
        plan.seed = util::Rng::StreamSeed(plan.seed, s);
        impl.shard_faults.push_back(
            std::make_unique<rt::FaultInjector>(shard_rt, plan));
        shard_rt = impl.shard_faults.back().get();
      }
      impl.mediators.push_back(std::make_unique<core::Mediator>(
          shard_rt, &impl.registry, impl.reputation.get(),
          experiments::MakeMethod(spec), config));
      impl.mediators.back()->AddObserver(&impl);
      impl.mediator_ptrs.push_back(impl.mediators.back().get());
    }
    for (uint32_t s = 0; s < n; ++s) {
      impl.mediators[s]->ConfigureSharding(impl.shard_set.get(), s,
                                           &impl.directory,
                                           impl.mediator_ptrs);
    }
    impl.membership = std::make_unique<EngineMembership>(
        &impl.registry, impl.mediator_ptrs, impl.reputation.get());
    Impl* im = &impl;
    impl.shard_set->SetMembershipHook([im](rt::Time) {
      im->registry.AdvanceEpoch(im->membership.get());
      im->registry.PublishConsumerSatisfaction();
    });
    impl.shard_set->AddBarrierHook([im](rt::Time) {
      im->directory.RefreshIfChanged(im->registry);
    });
    impl.directory.Refresh(impl.registry);
  } else {
    // Interpose the fault plane before any destination is registered so
    // the mediator's whole runtime view (sends, latency samples) goes
    // through it.
    if (impl.options.fault_plan.enabled()) {
      impl.fault = std::make_unique<rt::FaultInjector>(
          impl.runtime, impl.options.fault_plan);
      impl.runtime = impl.fault.get();
    }
    if (method == nullptr) method = experiments::MakeMethod(spec);
    impl.mediator = std::make_unique<core::Mediator>(
        impl.runtime, &impl.registry, impl.reputation.get(),
        std::move(method), config);
    impl.mediator->AddObserver(&impl);
  }

  // Reserve every per-in-flight pool for the admission cap: max_pending
  // hard-bounds concurrent queries, so the ticket and in-flight pools
  // never reallocate under load. Reserving builds nothing — a slot is
  // built on first use and holds its decision inline — so this costs a
  // few allocations and no touched memory whatever the cap. Each mediator
  // gets the full cap — the cap is global and saturation can skew all of
  // it onto one shard.
  if (impl.options.max_pending > 0) {
    const size_t cap = static_cast<size_t>(impl.options.max_pending);
    impl.tickets.Provision(cap);
    if (impl.mediator != nullptr) impl.mediator->ProvisionInflight(cap);
    for (core::Mediator* m : impl.mediator_ptrs) m->ProvisionInflight(cap);
  }

  impl.started = true;
  if (impl.wall != nullptr) impl.wall->Start();
  if (impl.shard_set != nullptr) impl.shard_set->Start();
}

void Engine::Stop() {
  std::lock_guard<std::mutex> lifecycle(impl_->lifecycle_mu);
  if (impl_->wall != nullptr) impl_->wall->Stop();
  if (impl_->shard_set != nullptr) impl_->shard_set->Stop();
  impl_->stopped = true;
}

uint64_t Engine::Submit(const QueryRequest& request,
                        OutcomeCallback callback) {
  Impl& impl = *impl_;
  SBQA_CHECK(impl.started);
  // Admission control: reject-newest once max_pending queries are in
  // flight. The shed callback runs synchronously on the caller's thread.
  if (impl.options.max_pending > 0 &&
      impl.tickets_live.load(std::memory_order_acquire) >=
          impl.options.max_pending) {
    impl.ShedQuery(std::move(callback));
    return 0;
  }
  const uint64_t ticket = impl.AcquireTicket(std::move(callback));
  model::Query query;
  query.id = static_cast<model::QueryId>(ticket);
  query.consumer = request.consumer;
  query.query_class = request.query_class;
  query.n_results = request.n_results;
  query.cost = request.cost;
  query.deadline = request.deadline > 0 ? request.deadline
                                        : impl.options.default_deadline;
  if (impl.sharded()) {
    // Hash-route to the consumer's owner shard; its worker mediates the
    // query (or borrows cross-shard when its own pool is dry).
    const uint32_t shard = impl.registry.ConsumerShard(request.consumer);
    core::Mediator* mediator = impl.mediator_ptrs[shard];
    util::EventFn task([mediator, query] { mediator->SubmitQuery(query); });
    if (!impl.shard_set->runtime(shard).TryPost(std::move(task))) {
      impl.ShedQuery(impl.ReclaimTicket(ticket));
      return 0;
    }
    return ticket;
  }
  core::Mediator* mediator = impl.mediator.get();
  util::EventFn task([mediator, query] { mediator->SubmitQuery(query); });
  if (impl.wall != nullptr) {
    if (!impl.wall->TryPost(std::move(task))) {
      // The bounded submit queue is full: the executor never saw the
      // query, so reclaim its ticket and shed at the door.
      impl.ShedQuery(impl.ReclaimTicket(ticket));
      return 0;
    }
  } else {
    impl.runtime->Post(std::move(task));
  }
  return ticket;
}

double Engine::now() const { return impl_->runtime->now(); }

void Engine::RunFor(double seconds) {
  Impl& impl = *impl_;
  SBQA_CHECK_GE(seconds, 0);
  if (impl.sim != nullptr) {
    impl.sim->RunFor(seconds);
  } else if (impl.options.wallclock.manual_clock) {
    if (impl.shard_set != nullptr) {
      impl.shard_set->RunFor(seconds);  // lock-step barrier windows
    } else {
      impl.wall->AdvanceTo(impl.wall->now() + seconds);
    }
  } else {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

bool Engine::WaitIdle(double budget_seconds) {
  Impl& impl = *impl_;
  SBQA_CHECK_GE(budget_seconds, 0);
  if (impl.sim != nullptr) {
    impl.sim->RunUntil(impl.sim->now() + budget_seconds);
  } else if (impl.options.wallclock.manual_clock &&
             impl.shard_set != nullptr) {
    // Window-by-window so the drain stops as soon as the outcomes landed
    // instead of spinning barriers through the whole budget.
    const double deadline = impl.shard_set->now() + budget_seconds;
    const double step = impl.options.shard_barrier_tick;
    while (impl.tickets_live.load(std::memory_order_acquire) > 0 &&
           impl.shard_set->now() < deadline) {
      impl.shard_set->RunUntil(
          std::min(deadline, impl.shard_set->now() + step));
    }
  } else if (impl.options.wallclock.manual_clock) {
    // Step in small increments: a single clock jump would stamp queued
    // submissions at the end of the window, leaving their completion
    // timers beyond it.
    const double deadline = impl.wall->now() + budget_seconds;
    while (impl.tickets_live.load(std::memory_order_acquire) > 0 &&
           impl.wall->now() < deadline) {
      impl.wall->AdvanceTo(
          std::min(deadline, impl.wall->now() + kManualIdleStep));
    }
  } else {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::duration<double>(budget_seconds));
    while (impl.tickets_live.load(std::memory_order_acquire) > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return impl.tickets_live.load(std::memory_order_acquire) == 0;
}

EngineStats Engine::Stats() const {
  Impl& impl = *impl_;
  // Holding lifecycle_mu pins the service thread alive for the whole
  // probe round trip — a concurrent Stop() cannot join it under us and
  // leave the probe stranded in the submit queue.
  std::lock_guard<std::mutex> lifecycle(impl.lifecycle_mu);
  SBQA_CHECK(impl.started);
  EngineStats stats;
  if (impl.sharded()) {
    // A barrier is the sharded engine's quiescent point (inline when the
    // workers are not running: manual clock, or after Stop).
    impl.shard_set->RunAtBarrier([&] { stats = impl.GatherStats(); });
  } else if (impl.threaded()) {
    impl.RunOnExecutor([&] { stats = impl.GatherStats(); });
  } else {
    stats = impl.GatherStats();
  }
  return stats;
}

std::vector<EngineShardStats> Engine::ShardStats() const {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lifecycle(impl.lifecycle_mu);
  SBQA_CHECK(impl.started);
  std::vector<EngineShardStats> rows;
  if (!impl.sharded()) return rows;
  impl.shard_set->RunAtBarrier([&] { rows = impl.GatherShardStats(); });
  return rows;
}

std::string Engine::ScoringKernelName() const {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lifecycle(impl.lifecycle_mu);
  if (!impl.started) return "";
  // The kernel kind is immutable after Start, so no quiescent point needed.
  std::string name;
  auto record = [&name](core::Mediator* m) {
    auto* sbqa = dynamic_cast<core::SbqaMethod*>(&m->method());
    if (sbqa != nullptr) name = core::ToString(sbqa->kernel().kind());
  };
  if (impl.mediator != nullptr) record(impl.mediator.get());
  for (core::Mediator* m : impl.mediator_ptrs) record(m);
  return name;
}

core::ScoreKernelPhases Engine::DecisionPhases() const {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lifecycle(impl.lifecycle_mu);
  core::ScoreKernelPhases phases;
  if (!impl.started) return phases;
  auto gather = [&] {
    auto accumulate = [&phases](core::Mediator* m) {
      auto* sbqa = dynamic_cast<core::SbqaMethod*>(&m->method());
      if (sbqa != nullptr) phases.Accumulate(sbqa->kernel().phases());
    };
    if (impl.mediator != nullptr) accumulate(impl.mediator.get());
    for (core::Mediator* m : impl.mediator_ptrs) accumulate(m);
  };
  if (impl.sharded()) {
    impl.shard_set->RunAtBarrier(gather);
  } else if (impl.threaded()) {
    impl.RunOnExecutor(gather);
  } else {
    gather();
  }
  return phases;
}

EngineSnapshot Engine::Snapshot() const {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lifecycle(impl.lifecycle_mu);
  SBQA_CHECK(impl.started);
  EngineSnapshot snapshot;
  if (impl.sharded()) {
    impl.shard_set->RunAtBarrier([&] { snapshot = impl.GatherSnapshot(); });
  } else if (impl.threaded()) {
    impl.RunOnExecutor([&] { snapshot = impl.GatherSnapshot(); });
  } else {
    snapshot = impl.GatherSnapshot();
  }
  return snapshot;
}

}  // namespace sbqa
