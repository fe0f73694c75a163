#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <utility>

#include "core/mediation.h"
#include "core/mediator.h"
#include "core/registry.h"
#include "experiments/assembly.h"
#include "experiments/methods.h"
#include "model/query.h"
#include "model/reputation.h"
#include "runtime/wallclock_shard_set.h"
#include "sim/shard_set.h"
#include "util/check.h"
#include "util/slot_pool.h"

namespace sbqa {

/// Everything behind the facade. Also the mediation observer that turns
/// QueryOutcomes into user callbacks.
struct Engine::Impl final : core::MediationObserver {
  EngineOptions options;

  /// The executor: an N >= 1 shard set, sim::ShardSet (kSimulated) or
  /// rt::WallClockShardSet (kWallClock). `wall` is the same set typed for
  /// the wall-clock-only calls (null in kSimulated); `runtime` is shard
  /// 0's, the facade's clock.
  std::unique_ptr<rt::BarrierCore> shards;
  rt::WallClockShardSet* wall = nullptr;
  rt::Runtime* runtime = nullptr;

  core::Registry registry;
  std::unique_ptr<model::ReputationRegistry> reputation;
  /// The mediation stack, one mediator per shard (built at Start).
  std::unique_ptr<experiments::Assembly> assembly;
  /// Serializes Start/Stop against Stats/Snapshot: a control op posted to
  /// the shard set is only awaited while this lock keeps Stop from joining
  /// the workers underneath it, and started/stopped reads are race-free
  /// under it.
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

  /// Whether the caller drives time (kSimulated, manual clock) rather
  /// than shard workers serving it against the steady clock.
  bool driven() const {
    return options.mode == EngineMode::kSimulated ||
           options.wallclock.manual_clock;
  }

  /// Runs `fn` at a quiescent point of the engine and blocks until it ran:
  /// at a barrier with every wall-clock worker parked, or inline when none
  /// runs (driven engines between windows, before Start, after Stop),
  /// where the caller IS the executor context. Inline calls skip
  /// RunAtBarrier's std::function, so building a population before Start
  /// does not allocate per preference. Callers hold lifecycle_mu, which
  /// keeps Start/Stop from changing threaded() underneath.
  template <typename Fn>
  void RunQuiescent(Fn&& fn) {
    if (wall != nullptr && wall->threaded()) {
      wall->RunAtBarrier(fn);
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

  EngineStats GatherStats() const {
    const core::MediatorStats s = assembly->stats();
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
    const rt::FaultStats faults = assembly->fault_stats();
    out.fault_sends_dropped = faults.sends_dropped;
    out.fault_sends_delayed = faults.sends_delayed;
    out.fault_sends_crashed = faults.sends_crashed;
    out.queries_delegated = s.queries_delegated;
    out.queries_borrowed = s.queries_borrowed;
    out.shard_barriers = static_cast<int64_t>(shards->barriers());
    if (wall != nullptr) {
      out.shard_early_barriers = static_cast<int64_t>(wall->early_barriers());
    }
    out.mean_response_time = s.response_time.mean();
    out.mean_satisfaction = s.query_satisfaction.mean();
    return out;
  }

  std::vector<EngineShardStats> GatherShardStats() const {
    std::vector<EngineShardStats> rows;
    const uint32_t n = shards->shard_count();
    rows.reserve(n);
    for (uint32_t s = 0; s < n; ++s) {
      const core::MediatorStats& m = assembly->gateway(s)->stats();
      EngineShardStats row;
      row.shard = s;
      row.queries_submitted = m.queries_submitted;
      row.queries_finalized = m.queries_finalized;
      row.queries_delegated = m.queries_delegated;
      row.queries_borrowed = m.queries_borrowed;
      if (wall != nullptr) {
        const rt::WallClockRuntime& rt = wall->runtime(s);
        row.pending_timers = static_cast<int64_t>(rt.pending_timers());
        row.tasks_executed = static_cast<int64_t>(rt.tasks_executed());
      }
      rows.push_back(row);
    }
    return rows;
  }

  EngineSnapshot GatherSnapshot() const {
    EngineSnapshot snapshot;
    snapshot.now = runtime->now();
    snapshot.providers.reserve(registry.provider_count());
    const core::ProviderHotState& hot = registry.hot();
    for (const core::Provider& p : registry.providers()) {
      const uint32_t slot = p.hot_slot();
      ProviderSnapshot row;
      row.id = p.id();
      row.label = p.label();
      row.alive = hot.alive(slot);
      row.satisfaction = hot.Satisfaction(slot);
      row.adequation = hot.Adequation(slot);
      row.instances_performed = hot.instances_performed(slot);
      row.busy_seconds = hot.busy_seconds(slot);
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
  SBQA_CHECK_GE(opts.shards, 1u);
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
    config.shard_count = opts.shards;
    config.shard_barrier_tick = opts.shard_barrier_tick;
    impl_->shards = std::make_unique<sim::ShardSet>(config);
  } else {
    rt::WallClockShardOptions config;
    config.shard_count = opts.shards;
    config.seed = opts.seed;
    config.barrier_tick = opts.shard_barrier_tick;
    config.runtime = opts.wallclock;
    auto wall = std::make_unique<rt::WallClockShardSet>(config);
    impl_->wall = wall.get();
    impl_->shards = std::move(wall);
  }
  impl_->runtime = &impl_->shards->shard_runtime(0);
}

Engine::~Engine() { Stop(); }

model::ProviderId Engine::AddProvider(const ProviderOptions& options) {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lifecycle(impl.lifecycle_mu);
  if (!impl.started) return impl.registry.AddProvider(options);
  SBQA_CHECK(!impl.stopped);
  // Post-Start joins go through the registry's epoch join log at a
  // quiescent point, exactly like the sharded simulation's volunteer
  // arrivals: the owner shard falls out of the deterministic join hash,
  // and the assembly grows the reputation registry and the mediators'
  // per-provider tables.
  model::ProviderId id = model::kInvalidId;
  impl.RunQuiescent([&] { id = impl.assembly->JoinProvider(options); });
  return id;
}

model::ConsumerId Engine::AddConsumer(const ConsumerOptions& options) {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lifecycle(impl.lifecycle_mu);
  if (!impl.started) return impl.registry.AddConsumer(options);
  SBQA_CHECK(!impl.stopped);
  model::ConsumerId id = model::kInvalidId;
  // Consumers carry no cross-shard mediation state, so a quiescent point is
  // enough — no epoch op needed.
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
    impl.registry.SetProviderPreference(provider, consumer, preference);
  });
}

void Engine::Start() {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lifecycle(impl.lifecycle_mu);
  SBQA_CHECK(!impl.started);
  SBQA_CHECK_GT(impl.registry.provider_count(), 0u);
  SBQA_CHECK_GT(impl.registry.consumer_count(), 0u);
  const uint32_t n = impl.shards->shard_count();
  impl.registry.SetShardCount(n);
  impl.reputation = std::make_unique<model::ReputationRegistry>(
      impl.registry.provider_count());

  experiments::AssemblyOptions wiring;
  wiring.registry = &impl.registry;
  wiring.reputation = impl.reputation.get();
  wiring.shards = impl.shards.get();
  // One allocation-method instance per mediator: a custom instance cannot
  // be replicated, so it requires a single shard.
  if (impl.options.custom_method != nullptr) {
    SBQA_CHECK_EQ(n, 1u);
    wiring.make_method = [&impl] {
      return std::move(impl.options.custom_method);
    };
  } else {
    experiments::MethodSpec spec;
    SBQA_CHECK(experiments::MethodSpecFromName(impl.options.method, &spec));
    spec.sbqa.decision_timing = impl.options.decision_timing;
    wiring.make_method = [spec] { return experiments::MakeMethod(spec); };
  }
  core::MediatorConfig& config = wiring.mediator;
  config.query_timeout = impl.options.query_timeout;
  config.max_retries = impl.options.max_retries;
  config.failure_threshold = impl.options.failure_threshold;
  config.probe_delay = impl.options.probe_delay;
  wiring.fault_plan = impl.options.fault_plan;
  impl.assembly = std::make_unique<experiments::Assembly>(std::move(wiring));
  for (core::Mediator* m : impl.assembly->mediators()) m->AddObserver(&impl);
  impl.assembly->InstallBarrierPhases();

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
    for (core::Mediator* m : impl.assembly->mediators()) {
      m->ProvisionInflight(cap);
    }
  }

  impl.started = true;
  if (impl.wall != nullptr) impl.wall->Start();
}

void Engine::Stop() {
  std::lock_guard<std::mutex> lifecycle(impl_->lifecycle_mu);
  if (impl_->wall != nullptr) impl_->wall->Stop();
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
  // Route to the consumer's owner shard (its gateway mediates the query,
  // or borrows cross-shard when its own pool is dry).
  const uint32_t shard = impl.registry.ConsumerShard(request.consumer);
  core::Mediator* mediator = impl.assembly->gateway(shard);
  util::EventFn task([mediator, query] { mediator->SubmitQuery(query); });
  if (!impl.shards->shard_runtime(shard).TryPost(std::move(task))) {
    // The shard's bounded submit queue is full: the executor never saw the
    // query, so reclaim its ticket and shed at the door.
    impl.ShedQuery(impl.ReclaimTicket(ticket));
    return 0;
  }
  return ticket;
}

double Engine::now() const { return impl_->runtime->now(); }

void Engine::RunFor(double seconds) {
  Impl& impl = *impl_;
  SBQA_CHECK_GE(seconds, 0);
  if (impl.driven()) {
    impl.shards->RunUntil(impl.shards->now() + seconds);
  } else {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

bool Engine::WaitIdle(double budget_seconds) {
  Impl& impl = *impl_;
  SBQA_CHECK_GE(budget_seconds, 0);
  if (impl.driven()) {
    // Window by window, so the drain stops as soon as the last outcome
    // landed instead of running the whole budget.
    rt::BarrierCore& shards = *impl.shards;
    const double deadline = shards.now() + budget_seconds;
    const double step = impl.options.shard_barrier_tick;
    while (impl.tickets_live.load(std::memory_order_acquire) > 0 &&
           shards.now() < deadline) {
      shards.RunUntil(std::min(deadline, shards.now() + step));
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
  // Holding lifecycle_mu pins the workers alive for the whole control-op
  // round trip — a concurrent Stop() cannot join them under us and leave
  // the op stranded in the control queue.
  std::lock_guard<std::mutex> lifecycle(impl.lifecycle_mu);
  SBQA_CHECK(impl.started);
  EngineStats stats;
  impl.RunQuiescent([&] { stats = impl.GatherStats(); });
  return stats;
}

std::vector<EngineShardStats> Engine::ShardStats() const {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lifecycle(impl.lifecycle_mu);
  SBQA_CHECK(impl.started);
  std::vector<EngineShardStats> rows;
  impl.RunQuiescent([&] { rows = impl.GatherShardStats(); });
  return rows;
}

core::ScoreKernelPhases Engine::DecisionPhases() const {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lifecycle(impl.lifecycle_mu);
  core::ScoreKernelPhases phases;
  if (!impl.started) return phases;
  impl.RunQuiescent([&] { phases = impl.assembly->decision_phases(); });
  return phases;
}

EngineSnapshot Engine::Snapshot() const {
  Impl& impl = *impl_;
  std::lock_guard<std::mutex> lifecycle(impl.lifecycle_mu);
  SBQA_CHECK(impl.started);
  EngineSnapshot snapshot;
  impl.RunQuiescent([&] { snapshot = impl.GatherSnapshot(); });
  return snapshot;
}

}  // namespace sbqa
