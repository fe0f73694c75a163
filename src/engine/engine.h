#ifndef SBQA_ENGINE_ENGINE_H_
#define SBQA_ENGINE_ENGINE_H_

/// \file
/// sbqa::Engine — the library's public embedding API. A builder-style
/// facade over the whole mediation stack (registry, reputation, allocation
/// method, mediators — wired by the same experiments::Assembly the
/// scenario runner uses) that runs the identical pipeline in either of the
/// two runtime-seam implementations:
///
///   - kSimulated: one discrete-event simulation (virtual time;
///     deterministic per seed, bit-identical to wiring the stack by hand);
///   - kWallClock: live traffic on an N >= 1 shard rt::WallClockShardSet
///     (steady-clock time, one worker thread per shard — shards = 1
///     included — thread-safe Submit from any driver thread, zero heap
///     allocations per query at steady state).
///
/// Usage:
///   sbqa::EngineOptions options;
///   options.mode = sbqa::EngineMode::kWallClock;
///   sbqa::Engine engine(std::move(options));
///   auto provider = engine.AddProvider({.capacity = 2.0});
///   auto consumer = engine.AddConsumer({.n_results = 2});
///   engine.SetConsumerPreference(consumer, provider, 0.8);
///   engine.Start();
///   engine.Submit({.consumer = consumer, .n_results = 2, .cost = 1.0},
///                 [](const sbqa::QueryResult& r) { /* outcome */ });
///   engine.WaitIdle(5.0);
///   auto stats = engine.Stats();
///
/// This header (and the src/sbqa.h umbrella) deliberately leaks nothing
/// from sim/ — the CI header-hygiene job compiles a TU including only the
/// umbrella and fails on any sim/ dependency. Simulation internals stay
/// reachable for power users through the lower layers directly.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/allocation_method.h"
#include "core/consumer.h"
#include "core/mediation.h"
#include "core/provider.h"
#include "core/score_kernel.h"
#include "model/types.h"
#include "runtime/fault.h"
#include "runtime/wallclock_runtime.h"
#include "util/event_fn.h"

namespace sbqa {

/// Which runtime-seam implementation the engine runs on.
enum class EngineMode {
  kSimulated,  ///< discrete-event virtual time (deterministic per seed)
  kWallClock,  ///< steady-clock time, a worker per shard, live Submit
};

/// Participant configuration, re-exported from the core layer.
using ProviderOptions = core::ProviderParams;
using ConsumerOptions = core::ConsumerParams;

/// Engine-wide configuration. Move-only when custom_method is set.
struct EngineOptions {
  EngineMode mode = EngineMode::kSimulated;

  /// Root seed of every derived random stream (population draws, result
  /// validation, method tie-breaks). Simulated runs are bit-reproducible
  /// per seed.
  uint64_t seed = 42;

  /// Allocation method by registry name ("sbqa", "sqlb", "knbest",
  /// "capacity", "qlb", "economic", "interest", "random", "roundrobin");
  /// ignored when custom_method is set.
  std::string method = "sbqa";
  /// Fully configured method instance (overrides `method`).
  std::unique_ptr<core::AllocationMethod> custom_method;

  /// Collect per-phase decision timings (sample / gather / intentions /
  /// score / rank ns); read them via Engine::DecisionPhases(). Off by
  /// default (two steady-clock reads per phase).
  bool decision_timing = false;

  /// Safety-net finalization deadline per query, in runtime seconds.
  double query_timeout = 600.0;
  /// Age bound (seconds) of the mediator's provider-load view; 0 = fresh.
  double load_view_staleness = 0.0;

  // --- Robustness -------------------------------------------------------------

  /// Default per-query deadline in seconds (0 = none beyond query_timeout);
  /// QueryRequest::deadline overrides it per query.
  double default_deadline = 0.0;
  /// Re-mediation attempts after a fully failed attempt (0 = legacy
  /// single-shot behavior, bit-identical to earlier releases).
  int max_retries = 0;
  /// Consecutive failures before a provider is suspected and taken out of
  /// allocation until a probe revives it (0 = detector off).
  int failure_threshold = 0;
  /// Seconds a suspected provider stays out before being probed back in.
  double probe_delay = 30.0;
  /// Admission bound: Submit sheds (rejects newest, synchronously) once
  /// this many queries are in flight. 0 = unbounded. An admitted query
  /// waiting for its shard's worker costs its ticket plus one submit-queue
  /// entry; it takes an in-flight slot and timers only when a service pass
  /// mediates it, and a pass mediates at most
  /// rt::WallClockRuntime::kPassBatch queries, so only about a batch per
  /// shard is being mediated at once.
  int64_t max_pending = 0;
  /// Deterministic fault injection interposed at the runtime seam (between
  /// the mediation stack and its executor). Disabled by default; see
  /// rt::FaultPlan / FaultProfileByName.
  rt::FaultPlan fault_plan;

  // --- kSimulated only -------------------------------------------------------

  /// Model message latencies (log-normal) instead of zero-latency hops.
  bool simulate_network = true;
  double latency_median = 0.020;  ///< one-way latency median (s)
  double latency_sigma = 0.35;    ///< log-space spread; 0 = constant
  double latency_floor = 0.001;   ///< hard minimum (s)

  // --- kWallClock only -------------------------------------------------------

  /// Per-shard runtime tuning. `wallclock.seed` is overridden by `seed`;
  /// `wallclock.manual_clock` runs the shard set without worker threads,
  /// RunFor / WaitIdle driving deterministic lock-step barrier windows —
  /// the deterministic-test seam.
  rt::WallClockOptions wallclock;

  /// Thread-per-shard serving (kWallClock only; kSimulated requires 1):
  /// the mediation stack is partitioned into this many wall-clock shards —
  /// one worker thread, runtime and mediator partition each — exchanging
  /// traffic through the barrier mailbox protocol (rt::WallClockShardSet).
  /// Submit hash-routes each query to its consumer's owner shard; a shard
  /// whose candidate pool runs dry borrows from the least-loaded peer,
  /// exactly like the sharded simulation. shards == 1 is the same shard
  /// set with one worker and no cross-shard wiring.
  uint32_t shards = 1;
  /// Barrier window width in seconds (kWallClock): how late an exchange
  /// between shards lands. A cross-shard hop, a queued membership op or a
  /// consumer-satisfaction change that a donor shard can read waits at
  /// most one tick (plus a wake) for its barrier. It is not a heartbeat: a
  /// threaded shard reaching an edge with nothing to exchange keeps
  /// serving, so shards that exchange nothing (one shard included) meet
  /// only for control ops (Stats, Snapshot, post-Start membership), which
  /// pull a barrier at once. Under manual_clock every tick is a barrier.
  double shard_barrier_tick = 0.002;
};

/// One query submission.
struct QueryRequest {
  model::ConsumerId consumer = 0;
  model::QueryClassId query_class = 0;
  /// Results required (the paper's q.n, replication factor).
  int n_results = 1;
  /// Work demand in abstract units (seconds on a capacity-1 provider).
  double cost = 1.0;
  /// Per-query deadline in seconds (0 = EngineOptions::default_deadline).
  /// The outcome callback fires no later than this after submission.
  double deadline = 0.0;
};

/// Everything the engine reports back about one finalized query.
struct QueryResult {
  /// The ticket Submit returned for this query.
  uint64_t ticket = 0;
  double submitted_at = 0;   ///< runtime seconds
  double completed_at = 0;   ///< runtime seconds
  double response_time = 0;  ///< completed_at - submitted_at
  int results_required = 0;
  int results_received = 0;
  int valid_results = 0;
  bool validated = false;    ///< valid_results reached the consumer quorum
  bool timed_out = false;
  bool unallocated = false;  ///< no provider could be allocated
  /// Rejected at admission (max_pending overload shedding); no mediation
  /// happened and the callback ran synchronously inside Submit.
  bool shed = false;
  /// Mediation attempts consumed (> 1 after deadline/retry re-mediation).
  int attempts = 1;
  /// Terminal outcome classification (satisfied/timed_out/retried/failed/
  /// shed) — the same taxonomy the mediator and CLI report.
  core::OutcomeKind outcome = core::OutcomeKind::kSatisfied;
  /// Per-query satisfaction / adequation (paper Equation 1 family).
  double satisfaction = 0;
  double adequation = 0;
  double allocation_satisfaction = 0;
};

/// Per-query outcome callback. Move-only with inline storage: a small
/// capture keeps the wall-clock Submit path allocation-free. Runs on the
/// engine's executor (a shard worker in kWallClock mode) — return
/// quickly and do not call back into the engine from it, except Submit.
using OutcomeCallback = util::InlineFn<void(const QueryResult&)>;

/// Aggregate engine counters (a stable public mirror of the mediator's).
struct EngineStats {
  int64_t queries_submitted = 0;
  int64_t queries_finalized = 0;
  int64_t queries_fully_served = 0;
  int64_t queries_unallocated = 0;
  int64_t queries_timed_out = 0;
  int64_t instances_dispatched = 0;
  int64_t instances_completed = 0;
  int64_t instances_failed = 0;
  /// Submitted queries whose outcome has not been delivered yet.
  int64_t queries_in_flight = 0;
  // Terminal outcome taxonomy. satisfied + recovered + failed + timed_out
  // covers every finalized query; shed queries never reach the mediator
  // and are counted at admission.
  int64_t queries_satisfied = 0;    ///< >= 1 result on the first attempt
  int64_t queries_recovered = 0;    ///< >= 1 result, but only after retry
  int64_t queries_failed = 0;       ///< no results (incl. unallocated)
  int64_t queries_shed = 0;         ///< rejected at admission (max_pending)
  int64_t retry_attempts = 0;       ///< re-mediations scheduled
  int64_t providers_suspected = 0;  ///< health detector suspensions
  int64_t providers_probed = 0;     ///< suspensions probed back in
  // Fault-plane telemetry (all zero when no fault_plan is configured).
  int64_t fault_sends_dropped = 0;
  int64_t fault_sends_delayed = 0;
  int64_t fault_sends_crashed = 0;
  // Cross-shard traffic (zero when shards == 1).
  int64_t queries_delegated = 0;    ///< cross-shard borrows forwarded
  int64_t queries_borrowed = 0;     ///< queries mediated for a peer shard
  // Barriers of the kWallClock shard set (zero in kSimulated). Threaded
  // shards meet on demand: at a window edge only when a shard has
  // something to exchange (a cross-shard message, a queued membership op,
  // a satisfaction change a donor can read), and at once for control ops
  // (Stats, Snapshot, post-Start membership) and the outbox fill trigger.
  // A one-shard engine's count is therefore only the control ops'; under
  // manual_clock every tick is a barrier at every shard count.
  int64_t shard_barriers = 0;       ///< barrier rendezvous performed
  int64_t shard_early_barriers = 0; ///< barriers pulled by outbox fill
  double mean_response_time = 0;    ///< queries with >= 1 result
  double mean_satisfaction = 0;     ///< mean per-query Equation 1
};

/// One shard's live counters (kWallClock engines; see Engine::ShardStats).
/// Read at a barrier, so the rows are a consistent cross-shard cut.
struct EngineShardStats {
  uint32_t shard = 0;
  int64_t queries_submitted = 0;
  int64_t queries_finalized = 0;
  int64_t queries_delegated = 0;  ///< borrows this shard sent to peers
  int64_t queries_borrowed = 0;   ///< borrows this shard served for peers
  int64_t pending_timers = 0;     ///< live timers on the shard's runtime
  int64_t tasks_executed = 0;     ///< tasks the shard's executor ran
};

/// Point-in-time view of one participant.
struct ProviderSnapshot {
  model::ProviderId id = model::kInvalidId;
  std::string label;
  bool alive = true;
  double satisfaction = 0;   ///< paper Definition 2 (long-run)
  double adequation = 0;
  int64_t instances_performed = 0;
  double busy_seconds = 0;
};
struct ConsumerSnapshot {
  model::ConsumerId id = model::kInvalidId;
  std::string label;
  bool active = true;
  double satisfaction = 0;   ///< paper Definition 1 (long-run)
  double adequation = 0;
  int64_t queries_issued = 0;
};

/// Participant-level state of a running engine, read at a quiescent point
/// (the executor context).
struct EngineSnapshot {
  double now = 0;  ///< runtime seconds at snapshot time
  std::vector<ProviderSnapshot> providers;
  std::vector<ConsumerSnapshot> consumers;
};

/// The embeddable mediation engine. Build the population, Start(), then
/// Submit queries; outcomes arrive through per-query callbacks.
///
/// Threading: in kWallClock mode Submit / Stats / Snapshot / WaitIdle are
/// safe from any driver thread once Start() ran (population building is
/// not — finish it before Start). In kSimulated and manual-clock modes the
/// engine is single-threaded and the caller drives time with RunFor /
/// WaitIdle.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- Population building ---------------------------------------------------
  //
  // Before Start() these mutate the registry directly. AFTER Start() they
  // remain valid from any driver thread: the mutation is applied at a
  // quiescent point of the running engine — the next barrier of the shard
  // set (every worker parked), or the caller's own context in kSimulated
  // and manual-clock modes — and the call blocks until it took effect. A
  // provider joins through the registry's epoch JOIN LOG (owner shard
  // assigned by the deterministic join hash). In-flight queries are
  // unaffected. Do not call from an outcome callback (executor context):
  // the quiescent point would wait on itself.

  model::ProviderId AddProvider(const ProviderOptions& options);
  model::ConsumerId AddConsumer(const ConsumerOptions& options);
  /// Mutual interest in [-1, 1] (the paper's preference profiles).
  void SetConsumerPreference(model::ConsumerId consumer,
                             model::ProviderId provider, double preference);
  void SetProviderPreference(model::ProviderId provider,
                             model::ConsumerId consumer, double preference);

  /// Wires reputation + mediators over the built population and (in
  /// kWallClock mode) launches the shard workers. With max_pending set,
  /// the per-in-flight pools are reserved for the cap, not built: Start
  /// costs a fixed ~100 heap allocations whatever the cap and population.
  void Start();

  /// Stops the wall-clock shard workers (no-op otherwise). Queries still
  /// in flight are dropped without a callback. Idempotent; the destructor
  /// calls it.
  void Stop();

  // --- Traffic ---------------------------------------------------------------

  /// Submits one query; `callback` fires exactly once with the outcome
  /// (unless the engine is stopped first), on the executor. Thread-safe in
  /// kWallClock mode. Returns the query's ticket (also in the result).
  /// Allocation-free at steady state for inline-sized callbacks.
  ///
  /// Overload shedding: when admission is refused (max_pending in-flight
  /// queries, or the wall-clock submit queue is at max_queue), the query
  /// is rejected newest-first — the callback runs synchronously on the
  /// CALLING thread with a kShed result and Submit returns ticket 0.
  uint64_t Submit(const QueryRequest& request, OutcomeCallback callback);

  // --- Time ------------------------------------------------------------------

  /// Current runtime time in seconds.
  double now() const;

  /// Advances virtual time by `seconds`, running everything due
  /// (kSimulated / manual clock); blocks the calling thread that long in
  /// threaded kWallClock mode.
  void RunFor(double seconds);

  /// Waits up to `budget_seconds` of runtime time for every submitted
  /// query to deliver its outcome. Returns whether everything drained.
  bool WaitIdle(double budget_seconds);

  // --- Introspection ---------------------------------------------------------

  EngineStats Stats() const;
  EngineSnapshot Snapshot() const;
  /// Per-shard counters, one row per shard of a kWallClock engine (one row
  /// at shards = 1; empty in kSimulated), read at one barrier so the rows
  /// are a consistent cut. Thread-safe like Stats.
  std::vector<EngineShardStats> ShardStats() const;
  /// Accumulated per-phase decision timings, aggregated across shard
  /// mediators (zeros unless EngineOptions::decision_timing; `decisions`
  /// counts regardless). Call after Stop(), or from a quiescent point —
  /// the kernels belong to the worker threads while the engine runs.
  core::ScoreKernelPhases DecisionPhases() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sbqa

#endif  // SBQA_ENGINE_ENGINE_H_
