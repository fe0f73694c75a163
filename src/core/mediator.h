#ifndef SBQA_CORE_MEDIATOR_H_
#define SBQA_CORE_MEDIATOR_H_

/// \file
/// The mediator entity (paper Fig. 1): receives queries from consumers,
/// runs the pluggable allocation method, dispatches work to providers over
/// the runtime's message fabric, collects results, and maintains the
/// satisfaction bookkeeping that the whole framework revolves around.
///
/// The mediator is allocation logic, not simulation logic: it runs against
/// the abstract rt::Runtime seam (clock, timers, destination sends,
/// latency sampling, RNG splitting — see runtime/runtime.h), so the
/// identical pipeline serves the discrete-event harness (sim::SimRuntime,
/// bit-identical to the pre-seam engine) and live wall-clock traffic
/// (rt::WallClockRuntime behind the sbqa::Engine facade).
///
/// The satisfaction model is evaluated identically for every allocation
/// method (that is Scenario 1's point): the mediator computes the
/// consumer's and providers' intentions for the consulted providers even
/// when the method itself ignored them.
///
/// The per-query runtime state is pooled: in-flight queries live in a
/// slot-versioned pool (handle = generation|slot, mirroring the
/// scheduler's event pool) whose decision, instance and retry lists are
/// stored inline in the slot, and scheduled events capture only the 8-byte
/// handle. Together with the dense per-provider load view and inflight
/// lists, the steady-state simulate-one-query path performs no heap
/// allocation and no hashing.
///
/// Provider service: each provider is a FIFO server, and the mediator
/// keeps the instances it queued there as a chain of pooled 32-byte
/// records with ONE pending completion event per busy provider (the
/// chain's head); each completion schedules the next head at its stored
/// finish time, or completes it too when that time has passed. Pending
/// events therefore grow with busy providers, not with queued instances
/// (src/core/README.md, "Provider service").

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "core/allocation_method.h"
#include "core/departure.h"
#include "core/mediation.h"
#include "core/registry.h"
#include "core/satisfaction.h"
#include "core/score_kernel.h"
#include "model/query.h"
#include "model/reputation.h"
#include "runtime/barrier_core.h"
#include "runtime/runtime.h"
#include "util/rng.h"
#include "util/slot_pool.h"
#include "util/small_vec.h"
#include "util/stats.h"

namespace sbqa::sim {
class Simulation;
}  // namespace sbqa::sim

namespace sbqa::core {

class ShardDirectory;

/// Mediator-level configuration.
struct MediatorConfig {
  /// When false, all message latencies are zero (useful for unit tests and
  /// micro-benchmarks; processing time still elapses).
  bool simulate_network = true;
  /// A query is finalized with whatever results arrived this many seconds
  /// after dispatch (safety net; provider departures already fail fast).
  double query_timeout = 600.0;
  /// Age (seconds) of the mediator's view of provider load: backlogs used
  /// for KnBest / capacity-based / QLB decisions refresh at most this
  /// often per provider, modelling periodic load reports instead of
  /// omniscient queue knowledge. 0 = always fresh. Providers' *own*
  /// utilization (used in their intentions) is always fresh.
  double load_view_staleness = 0.0;
  /// Retry budget: extra mediation attempts after one that ended with ZERO
  /// completed results (every instance failed, or the attempt deadline
  /// fired with nothing received). Each retry re-runs allocation against
  /// providers not yet tried for this query, after a capped exponential
  /// backoff. 0 disables re-mediation entirely (bit-identical to the
  /// pre-retry pipeline).
  int max_retries = 0;
  double retry_backoff_base = 0.05;   ///< first backoff (seconds)
  double retry_backoff_cap = 1.0;     ///< backoff ceiling, pre-jitter (s)
  double retry_backoff_jitter = 0.1;  ///< extra uniform fraction [0, jitter)
  /// Health detector: a provider accumulating this many CONSECUTIVE failed
  /// instances (unresponsive or failing attempts; any completed result
  /// resets the count) is suspected — taken offline through the normal
  /// availability machinery (epoch-deferred in sharded mode) — and probed
  /// back in after probe_delay seconds. 0 disables.
  int failure_threshold = 0;
  double probe_delay = 30.0;
  /// Kernel backing the mediator's own intention computations (the
  /// normalization path when a method leaves the intention vectors empty,
  /// and the dispatch path's single-candidate rescore). Set it together
  /// with SbqaParams::scoring_kernel: kExact is the oracle that tests and
  /// the scaling bench build, the batched default is what every run uses.
  ScoreKernelKind scoring_kernel = ScoreKernelKind::kBatched;
};

/// Aggregate counters maintained by the mediator.
struct MediatorStats {
  int64_t queries_submitted = 0;
  int64_t queries_finalized = 0;
  int64_t queries_unallocated = 0;
  int64_t queries_timed_out = 0;
  int64_t queries_fully_served = 0;  ///< received == required
  int64_t instances_dispatched = 0;
  int64_t instances_completed = 0;
  int64_t instances_failed = 0;
  int64_t provider_departures = 0;
  int64_t provider_offline_events = 0;  ///< churn, not dissatisfaction
  int64_t consumer_retirements = 0;
  /// Cross-shard borrow protocol (sharded mode only): queries this
  /// mediator forwarded to a peer shard because its own candidate pool for
  /// the class was dry, and queries it mediated on behalf of a peer.
  int64_t queries_delegated = 0;
  int64_t queries_borrowed = 0;
  /// Finalized queries whose outcome a peer shard re-homed here
  /// (consumer-side, like queries_finalized): the delegated queries that
  /// have landed. Each took exactly one cross-shard hop.
  int64_t queries_rehomed = 0;
  /// Terminal outcome taxonomy (consumer-side: counted where the outcome
  /// lands, like queries_finalized). kShed is facade-level and stays 0
  /// here; kTimedOut is queries_timed_out above; kFailed splits into
  /// queries_unallocated + queries_failed.
  int64_t queries_satisfied = 0;  ///< kSatisfied terminals
  int64_t queries_recovered = 0;  ///< kRetried terminals (saved by a retry)
  int64_t queries_failed = 0;     ///< kFailed terminals minus unallocated
  /// Re-mediations scheduled (attempts beyond each query's first).
  int64_t retry_attempts = 0;
  /// Pending instances written off when their attempt was abandoned for a
  /// retry (their late results, if any, are dropped by the attempt guard).
  int64_t instances_abandoned = 0;
  /// Instances dispatched to a provider that was already dead at dispatch
  /// (departed/offline between selection and the dispatch event); they are
  /// accounted as failed on arrival — or by the attempt deadline when the
  /// fault plane eats the dispatch.
  int64_t instances_dispatched_dead = 0;
  /// Health detector activity.
  int64_t providers_suspected = 0;
  int64_t providers_probed = 0;
  util::RunningStats response_time;
  util::RunningStats query_satisfaction;

  /// Adds `other`'s counters (parallel Welford for the running stats): the
  /// aggregate over a mediator group or a shard set.
  void Merge(const MediatorStats& other);
};

/// The mediation pipeline. One mediator per simulated system.
class Mediator {
 public:
  /// All raw pointers must outlive the mediator. `method` is owned. The
  /// mediator runs entirely inside `runtime`'s executor context: it splits
  /// its RNG stream and registers its inbox at construction, and every
  /// event it schedules runs there.
  Mediator(rt::Runtime* runtime, Registry* registry,
           model::ReputationRegistry* reputation,
           std::unique_ptr<AllocationMethod> method,
           const MediatorConfig& config = {});

  /// Convenience: runs on `sim`'s owned SimRuntime adapter — bit-identical
  /// to the historical Simulation-coupled mediator. Defined in
  /// sim/sim_runtime.cc so core translation units stay sim-free.
  Mediator(sim::Simulation* sim, Registry* registry,
           model::ReputationRegistry* reputation,
           std::unique_ptr<AllocationMethod> method,
           const MediatorConfig& config = {});

  Mediator(const Mediator&) = delete;
  Mediator& operator=(const Mediator&) = delete;

  /// Optional hooks.
  void AddObserver(MediationObserver* observer);
  /// Enables the departure model; `run_sweep` additionally schedules the
  /// periodic whole-population evaluation (in a mediator group exactly
  /// one mediator should run the sweep).
  void SetDepartureModel(const DepartureConfig& config, bool run_sweep = true);

  /// Mediator groups: mediators sharing one registry split the consumer
  /// population. Peers get their in-flight instances failed when this
  /// mediator takes a provider out (departure or churn). `peers` may
  /// contain `this`; it is ignored.
  void SetPeers(std::vector<Mediator*> peers);

  /// Sharded mode: wires this mediator as shard `shard`'s mediator of a
  /// shard set (an rt::BarrierCore: sim::ShardSet or
  /// rt::WallClockShardSet). Its candidate pool becomes registry partition
  /// `shard`, its departure sweep covers only shard-owned participants,
  /// and a dry candidate pool triggers the cross-shard borrow path: the
  /// query is forwarded over the mailbox to the least-loaded shard that has
  /// candidates for the class (per `directory`), mediated there against
  /// that shard's providers, and the outcome is routed back here for the
  /// consumer-side bookkeeping — so provider state is only ever touched by
  /// its owning shard, and consumer state by its own. `shards` and
  /// `directory` must outlive the mediator; `shard_mediators[s]` is shard
  /// s's mediator (including this one).
  void ConfigureSharding(rt::BarrierCore* shards, uint32_t shard,
                         const ShardDirectory* directory,
                         std::vector<Mediator*> shard_mediators);

  /// This mediator's shard id (0 when unsharded).
  uint32_t shard() const { return shard_id_; }

  // --- Cross-shard mailbox entry points (public for the EventFn closures
  // --- the mailbox delivers; not part of the user API) ---------------------

  /// A peer shard's mediator forwarded `query` here (its pool was dry).
  void OnDelegatedQuery(model::Query query, uint32_t origin_shard);
  /// A borrowed query finalized on its executing shard; records the
  /// consumer-side outcome at home. `outcome` points into the performer's
  /// pooled outbound slab (stable address, untouched by the performer until
  /// released); `slot` is mailed back to `performer` afterwards so the slab
  /// entry recycles on its owning shard.
  void OnDelegatedOutcome(const QueryOutcome& outcome, Mediator* performer,
                          uint32_t slot);
  /// Mailbox return hop of the outcome slab: hands a slot whose outcome the
  /// home shard consumed back to this (the owning) mediator's free list.
  void ReleaseOutboundOutcome(uint32_t slot);

  /// Entry point: the consumer issues `query` at the current simulation
  /// time (query.issued_at is stamped here). The mediation proceeds through
  /// scheduled events; results land in the satisfaction trackers, observers
  /// and stats.
  void SubmitQuery(model::Query query);

  /// Availability (churn) control: taking a provider offline fails its
  /// pending instances and drops its queue; bringing it back online makes
  /// it eligible for Pq again. Departed providers (dissatisfaction) stay
  /// gone. No-op when the state does not change. In sharded mode
  /// (deferred_membership()) the change becomes an epoch op: it is queued
  /// into the registry's membership log and takes effect at the next
  /// barrier, applied by the epoch applier via ApplyProviderAvailability.
  void SetProviderAvailability(model::ProviderId provider, bool available);

  /// Whether membership mutations (availability churn, departures, joins)
  /// defer to the registry's epoch log instead of applying immediately.
  /// True exactly when the mediator is wired into a shard fabric.
  bool deferred_membership() const { return shard_set_ != nullptr; }

  /// Deferred-membership mode only: queues a provider join into this
  /// shard's slice of the registry's membership log and requests the
  /// barrier that applies it. Shard context only, like every Queue* op.
  void QueueJoin(Registry::JoinFn join);

  // --- Epoch-applier entry points (barrier driver, workers parked) ----------

  /// Immediate-mode body of an availability change; called by the epoch
  /// applier at barriers in sharded mode (and by SetProviderAvailability
  /// directly when unsharded). Must run on this mediator's shard context.
  void ApplyProviderAvailability(model::ProviderId provider, bool available);

  /// Immediate-mode body of a permanent departure: marks the provider
  /// departed, drops its queue and fails its in-flight instances, which
  /// finalizes affected queries through the normal outcome machinery
  /// (borrowed queries route their outcomes home over the mailbox).
  /// Idempotent — the membership log may hold duplicate departure ops for
  /// one window.
  void ApplyProviderDeparture(model::ProviderId provider);

  /// Grows the dense per-provider tables (load view, health, inflight
  /// lists, service chains, delivery destinations) to cover `provider`
  /// (inclusive), so a join's growth allocations happen at the barrier
  /// instead of on first contact mid-query. The constructor reserves the
  /// tables for Registry::reserved_providers(), so joins up to the
  /// registry's reservation grow them without relocating. Must run on this
  /// mediator's shard context (or with its worker parked).
  void EnsureProviderTables(model::ProviderId provider);

  /// Reserves the in-flight pool for `slots` concurrent queries (one
  /// allocation; a slot is built, and its memory first touched, when it is
  /// first acquired), the service-record pool for kInstanceInlineWidth
  /// queued instances per slot, and the timeout ring's floor. With an
  /// admission cap of `slots` the pool then never reallocates, and a slot
  /// holds its decision inline, so a recycled slot mediates without
  /// allocating. A decision wider than kDecisionInlineWidth grows its
  /// slot's spill buffer once; a provider's inflight list that outgrows
  /// kProviderInflightInlineWidth reserves `slots` handles, once. Call at
  /// Start.
  void ProvisionInflight(size_t slots);

  // --- Helpers for allocation methods --------------------------------------

  Registry& registry() { return *registry_; }
  const Registry& registry() const { return *registry_; }
  model::ReputationRegistry& reputation() { return *reputation_; }
  util::Rng& rng() { return rng_; }
  double now() const { return rt_->now(); }
  rt::Runtime& runtime() { return *rt_; }

  /// The mediator's (possibly stale) view of one provider's backlog.
  double ViewedBacklog(model::ProviderId provider);

  /// Seconds of queued work for each provider (parallel to `providers`),
  /// through the staleness-bounded load view.
  std::vector<double> BacklogsOf(std::span<const model::ProviderId> providers);

  /// Allocation-free variant: replaces *out (hot path; callers reuse their
  /// own scratch buffer).
  void BacklogsOf(std::span<const model::ProviderId> providers,
                  std::vector<double>* out);

  /// Expected completion delay of `query` on each provider (viewed backlog
  /// plus the query's processing time at that provider's capacity).
  std::vector<double> ExpectedCompletionsOf(
      const model::Query& query, std::span<const model::ProviderId> providers);

  /// Allocation-free variant: replaces *out.
  void ExpectedCompletionsOf(const model::Query& query,
                             std::span<const model::ProviderId> providers,
                             std::vector<double>* out);

  /// PI_q[p] for each provider (parallel array).
  std::vector<double> ComputeProviderIntentions(
      const model::Query& query,
      std::span<const model::ProviderId> providers) const;

  /// CI_q[p] for each provider (parallel array). Supplies the consumer
  /// policy with reputation and expected-completion context (through the
  /// staleness-bounded load view).
  std::vector<double> ComputeConsumerIntentions(
      const model::Query& query, std::span<const model::ProviderId> providers);

  /// Scalar single-provider CI_q[p] (the provider's own expected completion
  /// is the normalization context, matching ComputeConsumerIntentions over
  /// the singleton set). Allocation-free.
  double ComputeConsumerIntention(const model::Query& query,
                                  model::ProviderId provider);

  // --- Introspection --------------------------------------------------------

  const MediatorStats& stats() const { return stats_; }
  AllocationMethod& method() { return *method_; }
  const MediatorConfig& config() const { return config_; }
  /// Queries submitted but not yet finalized.
  size_t inflight_count() const { return inflight_pool_.live_count(); }
  /// In-flight pool slots ever built (high-water mark of concurrency;
  /// steady-state mediation recycles them without allocating).
  size_t inflight_slot_capacity() const { return inflight_pool_.size(); }
  /// Service records: instances this mediator has queued on providers and
  /// not yet completed or dropped (O(pool): walks the free list), and
  /// records ever built (the pool's high-water mark; freed records are
  /// recycled).
  size_t queued_instance_count() const;
  size_t queued_record_capacity() const { return queued_.size(); }
  /// Timeout-ring introspection: current entry count, consumed (stale or
  /// fired) prefix length, and the backing vector's capacity — the
  /// load-adaptive bound regression test pins these across a rate step.
  size_t timeout_ring_size() const { return timeout_ring_.size(); }
  size_t timeout_ring_head() const { return timeout_head_; }
  size_t timeout_ring_capacity() const { return timeout_ring_.capacity(); }
  /// Whether the health detector currently suspects `provider` (false
  /// when the detector is disabled or the provider is unknown).
  bool provider_suspected(model::ProviderId provider) const {
    return static_cast<size_t>(provider) < health_.size() &&
           health_[static_cast<size_t>(provider)].suspected;
  }

 private:
  enum class InstanceStatus { kPending, kCompleted, kFailed };

  /// Slot-versioned handle to a pooled InFlight entry; scheduled events and
  /// the per-provider inflight lists carry these 8-byte handles instead of
  /// hashed query ids. A stale handle (the query finalized, the slot maybe
  /// reused) resolves to null.
  using InflightHandle = uint64_t;

  struct Instance {
    model::ProviderId provider = model::kInvalidId;
    InstanceStatus status = InstanceStatus::kPending;
    double consumer_intention = 0;  ///< CI_q[p], for Equation 1
    bool valid = false;             ///< result passed validation
  };

  /// "No per-query deadline" sentinel (far future).
  static constexpr double kNoDeadline = 1e300;

  /// Inline widths of the per-query and per-provider lists. Instances are
  /// q.n-bounded and the tried set grows by q.n per failed attempt; a
  /// longer list spills to the heap once and keeps that buffer.
  static constexpr size_t kInstanceInlineWidth = 4;
  static constexpr size_t kTriedInlineWidth = 8;
  static constexpr size_t kProviderInflightInlineWidth = 4;

  struct InFlight {
    model::Query query;
    /// The allocation decision, stored inline in the slot. consulted /
    /// consumer_intentions feed the per-query adequation reconstruction at
    /// finalization.
    AllocationDecision decision;
    util::SmallVec<Instance, kInstanceInlineWidth> instances;
    int pending = 0;
    /// Shard whose consumer issued the query (== the mediator's own shard
    /// except for borrowed queries, whose outcomes route home over the
    /// mailbox).
    uint32_t origin_shard = 0;
    /// Mediation attempt currently in flight (1 = first). Deadline events
    /// and late instance traffic from an abandoned attempt are recognized
    /// as stale by comparing against this.
    int attempt = 1;
    /// Absolute terminal deadline (issued_at + query.deadline), or
    /// kNoDeadline when the query carries none.
    double abs_deadline = kNoDeadline;
    /// Providers whose instances failed in earlier attempts; retries never
    /// select them again.
    util::SmallVec<model::ProviderId, kTriedInlineWidth> tried;
  };

  /// One pending query timeout. The timeout duration is a mediator
  /// constant, so deadlines are FIFO: instead of one cancellable scheduler
  /// event per query (whose cancelled heap entry would linger for the full
  /// timeout span), queries append to this ring and ONE sweep event walks
  /// it deadline by deadline, skipping entries whose handle went stale
  /// (query long finalized) without any per-query Schedule/Cancel.
  struct TimeoutEntry {
    double deadline;
    InflightHandle handle;
    /// Attempt the deadline belongs to: a retried query's old entry goes
    /// stale (attempt mismatch) exactly like a finalized query's does.
    int attempt;
  };

  /// Schedules `fn` after `delay` (or a zero-delay event when network
  /// simulation is off). Not a network message (no latency accounting).
  void After(double delay, rt::TaskFn fn);
  double OneWayLatency();
  /// 2 * max over `fanout`+1 sampled one-way latencies (an intention or bid
  /// round-trip to the consumer and the consulted providers in parallel).
  double RoundTripLatency(size_t fanout);

  /// Pool plumbing. Acquire resets the per-query fields (the pool keeps
  /// payloads across reuse, so a spilled list keeps its buffer).
  InflightHandle AcquireInflight();
  InFlight* Resolve(InflightHandle handle) {
    return inflight_pool_.Resolve(handle);
  }
  void ReleaseInflight(InflightHandle handle) {
    inflight_pool_.Release(handle);
  }
  static uint32_t SlotOf(InflightHandle handle) {
    return static_cast<uint32_t>(handle);
  }

  void LinkProviderInflight(model::ProviderId provider, InflightHandle h);
  void UnlinkProviderInflight(model::ProviderId provider, InflightHandle h);

  void OnQueryArrival(model::Query query);
  /// The shared mediation body: allocates `query` against this shard's
  /// candidate pool on behalf of `origin_shard`.
  void Mediate(model::Query query, uint32_t origin_shard);
  /// Runs the allocation method for the query's current attempt and
  /// schedules its dispatch (shared by first attempts and retries).
  void Allocate(InflightHandle h, const CandidateSet& candidates);
  /// Borrow path: forwards a locally unallocatable query to a peer shard
  /// with candidates (per the directory). False when unsharded or nobody
  /// has candidates.
  bool TryDelegate(const model::Query& query);
  /// Sends a borrowed query's outcome back to its origin shard through a
  /// pooled slab slot (0 heap allocations per delegated query at steady
  /// state — the mailbox closure carries a pointer, not the outcome).
  void RouteOutcomeHome(uint32_t origin_shard, const QueryOutcome& outcome);
  /// Copies `outcome` into a free outbound slab slot (growing the slab only
  /// until its high-water mark) and returns the slot index.
  uint32_t AcquireOutboundOutcome(const QueryOutcome& outcome);
  void Dispatch(InflightHandle handle);
  /// Queues an arrived instance on its provider: the finish time comes
  /// from ProviderHotState::Enqueue, the record joins the provider's chain,
  /// and a completion is scheduled only when the chain was empty.
  void OnInstanceArrival(InflightHandle handle, model::ProviderId provider,
                         double cost);
  /// Schedules the completion of `provider`'s chain head at `finish_at`,
  /// stamped with the provider's current queue epoch.
  void ScheduleHeadCompletion(model::ProviderId provider, double finish_at);
  /// The chain head finished: pops it, schedules the next head, and runs
  /// OnInstanceProcessed for the popped instance; next heads already due
  /// are popped and processed in the same call. A head whose queue was
  /// dropped since (`epoch` is stale) returns at once.
  void OnHeadCompleted(model::ProviderId provider, uint64_t epoch);
  /// Returns every record of `provider`'s chain to the pool (its queue was
  /// dropped; the pending head event goes stale with the epoch).
  void DropServiceChain(model::ProviderId provider);
  void OnInstanceProcessed(InflightHandle handle, model::ProviderId provider,
                           double cost);
  void OnResultReceived(InflightHandle handle, model::ProviderId provider,
                        bool valid);
  /// Registers the deadline of a freshly dispatched attempt. Monotonic
  /// deadlines ride the FIFO ring; out-of-order ones (per-query deadlines,
  /// clamped retries) get a dedicated one-shot timer.
  void PushTimeout(double deadline, InflightHandle handle, int attempt);
  void ScheduleTimeoutSweep(double when);
  /// Fires due timeouts and skips stale ring entries, then re-arms the
  /// sweep for the next live deadline.
  void OnTimeoutSweep();
  /// One-shot deadline for an out-of-order PushTimeout entry.
  void OnQueryDeadline(InflightHandle handle, int attempt);
  /// Retry gate, consulted by Finalize: when the attempt produced zero
  /// results and budget + deadline allow, abandons the attempt and
  /// schedules a re-mediation (the query stays live). Returns whether a
  /// retry was scheduled.
  bool MaybeScheduleRetry(InflightHandle handle);
  /// Fails the attempt's still-pending instances, unlinks them, and
  /// records every attempted provider as tried (and as a health failure).
  void AbandonAttempt(InflightHandle handle);
  /// Re-runs mediation for a retried query after its backoff.
  void BeginRetry(InflightHandle handle);
  /// Capped exponential backoff (+ jitter) before attempt+1.
  double RetryBackoff(int attempt);
  /// Health detector bookkeeping: consecutive instance failures suspend a
  /// provider through the availability machinery; a later probe revives it.
  void RecordProviderFailure(model::ProviderId provider);
  void RecordProviderSuccess(model::ProviderId provider);
  void ProbeProvider(model::ProviderId provider);
  void Finalize(InflightHandle handle, bool timed_out);
  /// Finalizes a query that never got any provider, routing the outcome to
  /// `origin_shard`'s mediator when the query was borrowed.
  void FinalizeUnallocated(const model::Query& query, uint32_t origin_shard);

  /// Resets the reusable outcome scratch and stamps the query-derived
  /// fields every finalization path shares (query, results_required).
  QueryOutcome& BeginOutcome(const model::Query& query);
  /// Shared finalization tail: stamps completion timing (completed_at /
  /// response_time as of now) and delivers the outcome — consumer-side
  /// stats at home, or routed to `origin_shard`'s mediator over the
  /// mailbox when the query was borrowed.
  void FinalizeOutcome(uint32_t origin_shard, QueryOutcome* outcome);

  /// Records the consumer-side satisfaction values for a finalized query
  /// and runs the consumer departure check.
  void RecordConsumerOutcome(QueryOutcome* outcome);

  /// Fails every pending instance held by `provider` (departure or churn),
  /// finalizing queries whose last instance died.
  void FailProviderInstances(model::ProviderId provider);
  /// Runs the departure check for one provider; when triggered, performs
  /// the departure immediately (unsharded) or queues a departure op for
  /// the next epoch (sharded — the provider stays alive until the
  /// barrier, where ApplyProviderDeparture runs).
  void MaybeDepartProvider(model::ProviderId provider);
  void MaybeRetireConsumer(model::ConsumerId consumer);
  /// Periodic whole-population departure evaluation (autonomous mode).
  void ScheduleDepartureSweep();

  void NotifyCompleted(const QueryOutcome& outcome);

  /// Fails the pending instances of `provider` on every group peer.
  void NotifyPeersProviderGone(model::ProviderId provider);

  rt::Runtime* rt_;
  Registry* registry_;
  model::ReputationRegistry* reputation_;
  std::unique_ptr<AllocationMethod> method_;
  MediatorConfig config_;
  /// Backs the normalization-path intention computations and the dispatch
  /// rescore; mutable because the const ComputeProviderIntentions shares
  /// its pooled planes.
  mutable ScoreKernel kernel_;
  util::Rng rng_;
  std::vector<MediationObserver*> observers_;
  std::vector<Mediator*> peers_;
  std::unique_ptr<DepartureModel> departure_;

  /// Sharded-mode wiring (null/empty when unsharded; shard_id_ 0 then
  /// selects registry partition 0 == the whole population).
  rt::BarrierCore* shard_set_ = nullptr;
  const ShardDirectory* directory_ = nullptr;
  std::vector<Mediator*> shard_mediators_;
  uint32_t shard_id_ = 0;
  /// Gateway only: this shard's queries delegated to a peer whose outcome
  /// has not come home yet. Only while one is out can a donor read the
  /// published satisfaction of this shard's consumers, so only then does
  /// a satisfaction change request a barrier.
  int64_t delegated_out_ = 0;

  /// Outbound outcome slab for the borrow path's re-homing hop: a deque so
  /// entries have stable addresses the home shard can read while this shard
  /// keeps acquiring slots, with payloads (and their performers capacity)
  /// kept constructed across reuse. Slots are freed by a mailbox message
  /// from the home shard, so the free list is only ever touched on this
  /// mediator's own context.
  std::deque<QueryOutcome> outbound_outcomes_;
  std::vector<uint32_t> outbound_free_;

  /// Cached load reports for the staleness-bounded view, dense by provider
  /// id — no hashing on the hot path.
  struct LoadReport {
    double reported_at = -1;
    double backlog = 0;
  };
  std::vector<LoadReport> load_view_;

  /// Slot-versioned in-flight pool.
  util::SlotPool<InFlight> inflight_pool_;
  /// Concurrent-query cap the pool was provisioned for (0 = unbounded).
  size_t inflight_cap_ = 0;

  /// FIFO timeout ring (deadline-ordered by construction) + the single
  /// armed sweep event. Memory is bounded structurally: pushes trim the
  /// stale prefix opportunistically, the live-span-adaptive compaction
  /// keeps the vector tracking the live window instead of total history,
  /// and a drain that finds the capacity far above the ring's recent size
  /// high-water re-allocates it down (off the steady-state path: steady
  /// traffic refills the ring to the same size between drains).
  std::vector<TimeoutEntry> timeout_ring_;
  size_t timeout_head_ = 0;
  bool timeout_sweep_armed_ = false;
  /// Max ring size since the ring last drained, stale prefix included —
  /// what the traffic between two drains really occupies (about rate x
  /// query_timeout); sizes the shrink target.
  size_t timeout_size_high_water_ = 0;

  /// One instance queued on a provider by this mediator: its query, its
  /// cost and the finish time Enqueue gave it, linked to the next instance
  /// queued behind it on the same provider (or, while the record is free,
  /// to the next free record).
  struct QueuedInstance {
    InflightHandle handle;
    double cost;
    double finish_at;
    uint32_t next;
  };
  static_assert(sizeof(QueuedInstance) <= 32);
  static constexpr uint32_t kNoRecord = UINT32_MAX;
  /// A provider's FIFO chain of QueuedInstance records (kNoRecord when
  /// idle). Only the head has a pending completion event.
  struct ServiceChain {
    uint32_t head = kNoRecord;
    uint32_t tail = kNoRecord;
  };
  /// The record pool: grows only past its high-water mark (reserved by
  /// ProvisionInflight), recycled through the `next` links from
  /// queued_free_.
  std::vector<QueuedInstance> queued_;
  uint32_t queued_free_ = kNoRecord;
  /// Chains, dense by provider id.
  std::vector<ServiceChain> chains_;

  /// Handles of in-flight queries with a pending instance on each provider
  /// (dense by provider id; consulted on provider departure).
  std::vector<util::SmallVec<InflightHandle, kProviderInflightInlineWidth>>
      provider_inflight_;

  /// Health detector state, dense by provider id (all zeros when
  /// config_.failure_threshold == 0).
  struct ProviderHealth {
    int consecutive_failures = 0;
    bool suspected = false;
  };
  std::vector<ProviderHealth> health_;

  /// Batching destinations: the mediator's own inbox (query arrivals and
  /// results fan into it) and one inbox per provider.
  rt::Destination inbox_ = rt::kNoDestination;
  std::vector<rt::Destination> provider_dest_;

  /// Reused per-query / per-sweep scratch — no heap allocation on the
  /// mediation hot path.
  std::vector<model::ProviderId> candidate_scratch_;
  /// Retry candidate pool minus the query's tried set (explicit-list
  /// CandidateSet backing; only the retry path touches it).
  std::vector<model::ProviderId> retry_scratch_;
  std::vector<model::ProviderId> sweep_scratch_;
  std::vector<model::ProviderId> consulted_scratch_;
  std::vector<double> performer_intentions_scratch_;
  std::vector<InflightHandle> fail_scratch_;
  QueryOutcome outcome_scratch_;
  MediatorStats stats_;
};

}  // namespace sbqa::core

#endif  // SBQA_CORE_MEDIATOR_H_
