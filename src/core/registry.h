#ifndef SBQA_CORE_REGISTRY_H_
#define SBQA_CORE_REGISTRY_H_

/// \file
/// Participant registry: owns all consumers and providers of a simulated
/// system and answers the mediator's "which providers can treat q" queries
/// (the paper's set Pq) through an incrementally maintained candidate
/// index, so the mediation hot path never scans the population.
///
/// Sharded systems partition the registry WITHOUT splitting ownership of
/// the participant objects: after SetShardCount(n) the candidate index is
/// split into n per-shard partitions (contiguous provider-id blocks, so
/// each shard's slice of the struct-of-arrays hot state is a contiguous
/// byte range — no false sharing between shard threads), the
/// active-consumer counter becomes per-shard, and every eligibility
/// notification routes to the owning shard's partition only. The ownership
/// discipline that makes the sharded engine race-free lives here:
/// participant state is only MUTATED by its owning shard; immutable-
/// after-build fields (params, policies, preference profiles) may be read
/// by any shard. Cross-shard aggregates (alive_provider_count,
/// AliveCapacity, active_consumer_count) must only be read when shards are
/// quiescent — at a barrier, or after the run.
///
/// Elastic membership (epoch protocol): in sharded mode the population is
/// only ever mutated at barrier EPOCHS, never mid-window. Shard threads
/// enqueue membership ops during a window — QueueAvailabilityChange /
/// QueueDeparture / QueueJoin, each into its source shard's single-writer
/// log — and the barrier driver applies the whole log in one
/// AdvanceEpoch() call with every worker parked, in fixed
/// (op-kind, source-shard, FIFO) order: availability changes first, then
/// departures (so a departure queued in the same window as a revival is
/// the last word), then joins (so new dense ids never depend on the
/// window's other traffic). Joins grow the shared provider vectors, the
/// SoA hot-state arrays and the owner shard's CandidateIndex partition in
/// place (amortized block growth — safe exactly because every worker is
/// parked); the owner shard of a joined provider is a deterministic
/// SplitMix64 hash of its id, so ownership never migrates mid-run and a
/// rerun reproduces the same assignment bit for bit. Every applied epoch
/// bumps membership_epoch(), which ShardDirectory snapshots to skip
/// refreshes when nothing changed.
///
/// Consumer satisfaction crosses shards the same way: a borrowed query is
/// scored on the donor shard with its consumer's Definition-1 satisfaction
/// (Equation 2's δs(c)), while the consumer's home shard keeps recording
/// outcomes into that memory. The home shard marks each consumer whose
/// memory changed; at every barrier pass the driver copies the marked ones
/// into a published slot (PublishConsumerSatisfaction), and a decision on
/// any other shard reads that copy (ConsumerSatisfactionFor).

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/candidate_index.h"
#include "core/consumer.h"
#include "core/hot_state.h"
#include "core/provider.h"
#include "model/query.h"
#include "model/types.h"

namespace sbqa::core {

class Registry;

/// Performs the mediator-side effects of membership ops applied at an
/// epoch barrier (failing a departing provider's in-flight instances,
/// wiring a joined volunteer's reputation slot and churn process, ...).
/// Registry::AdvanceEpoch orchestrates the fixed application order; the
/// applier routes each op to the owning shard's mediator. Runs on the
/// barrier driver thread with every shard worker parked.
class MembershipApplier {
 public:
  virtual ~MembershipApplier() = default;

  /// Applies one availability change (churn on/off) to `provider`.
  virtual void ApplyAvailability(model::ProviderId provider,
                                 bool available) = 0;
  /// Applies one permanent departure to `provider`. May be called more
  /// than once per provider (the op dedupes at apply time, not at queue
  /// time); implementations must be idempotent.
  virtual void ApplyDeparture(model::ProviderId provider) = 0;
  /// Called right after a queued join materialized `provider` (its owner
  /// shard is Registry::ProviderShard(provider) by then).
  virtual void OnProviderJoined(model::ProviderId provider) = 0;
};

/// Owns participants; ids are dense indices assigned on insertion.
///
/// The registry subscribes to every participant's eligibility/activity
/// notifications (set_alive, MarkDeparted, RestrictClasses, set_active), so
/// the candidate index and the population counters stay exact no matter
/// which code path mutates a participant.
class Registry : private ProviderObserver, private ConsumerObserver {
 public:
  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  model::ProviderId AddProvider(const ProviderParams& params);
  model::ConsumerId AddConsumer(const ConsumerParams& params);

  /// Makes room for `providers` providers in all, whose Definition-2
  /// windows hold `window_entries` proposals in all (vector::reserve
  /// semantics): the provider table, the hot-state planes and arena, and
  /// the candidate index's per-provider tables, so building a population
  /// (and the joins counted in `providers`) grows them once instead of at
  /// every doubling. Mediators built afterwards reserve their own
  /// per-provider tables for reserved_providers().
  void ReserveProviders(size_t providers, size_t window_entries);
  /// Providers the registry has room for without relocating its tables.
  size_t reserved_providers() const { return providers_.capacity(); }

  /// Provider `provider`'s preference towards `consumer` (clamped into
  /// [-1, 1]); written into the hot block's preference column. Quiescent
  /// points only (population setup, barriers).
  void SetProviderPreference(model::ProviderId provider,
                             model::ConsumerId consumer, double preference);

  size_t provider_count() const { return providers_.size(); }
  size_t consumer_count() const { return consumers_.size(); }

  Provider& provider(model::ProviderId id);
  const Provider& provider(model::ProviderId id) const;
  Consumer& consumer(model::ConsumerId id);
  const Consumer& consumer(model::ConsumerId id) const;

  // --- Sharding -------------------------------------------------------------

  /// Partitions the registry into `shard_count` shards: providers get
  /// contiguous id blocks, consumers go round-robin (id % shard_count),
  /// and the candidate index is rebuilt as per-shard partitions. Call once,
  /// after the initial population is built and before the simulation runs.
  void SetShardCount(uint32_t shard_count);
  uint32_t shard_count() const { return shard_count_; }

  /// Owning shard of a provider / consumer.
  uint32_t ProviderShard(model::ProviderId id) const {
    return provider_shard_[static_cast<size_t>(id)];
  }
  uint32_t ConsumerShard(model::ConsumerId id) const {
    return static_cast<uint32_t>(id) % shard_count_;
  }

  // --- Barrier-published consumer satisfaction ------------------------------

  /// Definition-1 satisfaction of one consumer plus the number of queries
  /// in its memory (0 selects the scorer's cold-start stand-in).
  struct ConsumerSatisfaction {
    double satisfaction = 0;
    size_t sample_count = 0;
  };

  /// Notes that `id`'s satisfaction memory changed. Owning shard's context
  /// only (each shard's change list is single-writer); no-op unsharded.
  void MarkConsumerSatisfactionChanged(model::ConsumerId id);

  /// Copies every consumer marked since the last call into its published
  /// slot. Barrier driver only, workers parked — call it after the
  /// membership phase, which can finalize queries too. O(marked consumers),
  /// and allocation-free: a change list never outgrows its shard's
  /// consumers, which it is reserved for.
  void PublishConsumerSatisfaction();

  /// The satisfaction a decision on shard `reader` scores `id` with: the
  /// live memory when `reader` owns the consumer, else the copy published
  /// at the last barrier (the owner may be writing the live one).
  ConsumerSatisfaction ConsumerSatisfactionFor(model::ConsumerId id,
                                               uint32_t reader) const;

  // --- Elastic membership (epoch protocol) ----------------------------------

  /// A queued join: materializes one provider (AddProvider plus whatever
  /// preference/profile setup the caller's domain needs) and returns its id.
  /// Invoked by AdvanceEpoch on the barrier driver thread.
  using JoinFn = std::function<model::ProviderId(Registry*)>;

  /// Enqueue membership ops from shard `source_shard`'s execution context
  /// (its worker thread mid-window, or the driver at a barrier). Each
  /// source shard's log is single-writer, so no locks are involved; ops
  /// take effect at the next AdvanceEpoch, in (op-kind, source-shard,
  /// FIFO) order.
  void QueueAvailabilityChange(uint32_t source_shard,
                               model::ProviderId provider, bool available);
  void QueueDeparture(uint32_t source_shard, model::ProviderId provider);
  void QueueJoin(uint32_t source_shard, JoinFn join);

  /// Whether any membership op is waiting for the next epoch.
  bool HasPendingMembershipOps() const;

  /// Applies the whole membership log (barrier driver only, workers
  /// parked): all availability changes, then all departures, then all
  /// joins, each kind swept source-shard 0..n-1 in FIFO order. Ops
  /// enqueued DURING application (e.g. a joined volunteer's churn process
  /// starting offline) land in the next epoch. Bumps membership_epoch()
  /// when at least one op was applied. No-op on an empty log.
  void AdvanceEpoch(MembershipApplier* applier);

  /// Monotonic count of applied (non-empty) membership epochs. The
  /// ShardDirectory snapshots this to skip refreshes when membership did
  /// not change.
  uint64_t membership_epoch() const { return membership_epoch_; }
  /// Total membership ops applied across all epochs (bench/telemetry).
  uint64_t membership_ops_applied() const { return membership_ops_applied_; }

  /// Deterministic owner shard of a provider joining with dense id `id`
  /// (SplitMix64 avalanche mod shard count; always 0 when unsharded).
  /// Stable for the whole run: provider state never migrates between
  /// shards.
  uint32_t JoinOwnerShard(model::ProviderId id) const;

  /// The paper's Pq restricted to one shard's provider partition, as an
  /// index-backed view: O(1) to build, O(1) size, O(k) uniform sampling.
  /// `scratch` backs lazy materialization for full-scan methods and must
  /// outlive the returned set. The mediation hot path of shard s only ever
  /// touches partition s — cross-shard candidate borrowing goes through
  /// the mailbox protocol (see Mediator), never through this call.
  CandidateSet CandidatesForShard(uint32_t shard, const model::Query& query,
                                  std::vector<model::ProviderId>* scratch)
      const;

  /// Unsharded convenience (partition 0 == the whole population when
  /// shard_count() == 1): the paper's Pq as an index-backed view.
  CandidateSet CandidatesFor(const model::Query& query,
                             std::vector<model::ProviderId>* scratch) const;

  /// Pq materialized across all partitions (ascending ids). Convenience
  /// for tests and tooling; the mediation path uses CandidatesForShard.
  std::vector<model::ProviderId> ProvidersFor(const model::Query& query) const;

  /// Replaces *out with every alive provider id (all partitions,
  /// partition-then-index order). O(alive).
  void CollectAliveProviders(std::vector<model::ProviderId>* out) const;

  /// Replaces *out with shard `shard`'s alive provider ids (index order).
  void CollectAliveProvidersForShard(
      uint32_t shard, std::vector<model::ProviderId>* out) const;

  /// O(#shards), maintained incrementally by the partitions. Cross-shard
  /// aggregate: only read at barriers / after the run in sharded mode.
  size_t alive_provider_count() const;
  size_t active_consumer_count() const;

  /// Active consumers owned by one shard (the directory's load signal;
  /// barrier-read only in sharded mode). O(1).
  size_t active_consumer_count(uint32_t shard) const {
    return static_cast<size_t>(active_consumers_[shard]);
  }

  /// Sum of capacities of alive providers (the paper's "total system
  /// capacity" that dissatisfaction erodes). O(#shards); barrier-read only
  /// in sharded mode.
  double AliveCapacity() const;
  /// Sum of capacities of all providers ever registered. O(1).
  double TotalCapacity() const { return total_capacity_; }

  /// Read access to shard `shard`'s live candidate-index partition
  /// (invariant checks, the cross-shard directory refresh, benches).
  const CandidateIndex& shard_index(uint32_t shard) const {
    return *partitions_[shard];
  }
  /// Unsharded convenience: the single partition of a shard_count()==1
  /// registry.
  const CandidateIndex& candidate_index() const { return *partitions_[0]; }

  /// The id-indexed hot state of all registry providers: the only copy of
  /// every per-provider value the query lifecycle touches (the per-query
  /// path indexes it directly; Provider is a view over it). A shard thread
  /// only writes the slots of the providers it owns.
  const ProviderHotState& hot() const { return hot_; }
  ProviderHotState& hot() { return hot_; }

  std::vector<Provider>& providers() { return providers_; }
  const std::vector<Provider>& providers() const { return providers_; }
  std::vector<Consumer>& consumers() { return consumers_; }
  const std::vector<Consumer>& consumers() const { return consumers_; }

 private:
  void OnProviderEligibilityChanged(const Provider& provider) override {
    partitions_[ProviderShard(provider.id())]->OnProviderChanged(provider);
  }
  void OnConsumerActivityChanged(const Consumer& consumer) override {
    // Owning shard only (single writer per counter in sharded mode).
    int64_t& count = active_consumers_[ConsumerShard(consumer.id())];
    if (consumer.active()) {
      ++count;
    } else {
      --count;
    }
  }

  /// One source shard's slice of the membership log (single writer: that
  /// shard's thread mid-window, or the driver at barriers), padded so two
  /// shards' op bookkeeping never shares a cache line mid-window.
  struct alignas(64) MembershipOps {
    /// (provider, online) availability changes, FIFO.
    std::vector<std::pair<model::ProviderId, uint8_t>> availability;
    /// Departures, FIFO; may hold duplicates (deduped at apply).
    std::vector<model::ProviderId> departures;
    /// Joins, FIFO.
    std::vector<JoinFn> joins;
  };

  std::vector<Provider> providers_;
  std::vector<Consumer> consumers_;
  ProviderHotState hot_;
  /// Candidate-index partitions, one per shard (exactly one before
  /// SetShardCount).
  std::vector<std::unique_ptr<CandidateIndex>> partitions_;
  /// Owning shard per provider (contiguous blocks after SetShardCount).
  std::vector<uint32_t> provider_shard_;
  /// Active-consumer count per owning shard.
  std::vector<int64_t> active_consumers_;
  /// Per consumer: the barrier-published satisfaction, and whether the
  /// consumer sits on its owner's change list. The owner writes `marked`
  /// mid-window while other shards read `published` — distinct fields.
  struct PublishedConsumer {
    ConsumerSatisfaction published;
    bool marked = false;
  };
  std::vector<PublishedConsumer> published_consumers_;
  /// Consumers marked since the last publish, per owning shard (single
  /// writer; padded like the membership log).
  struct alignas(64) MarkedConsumers {
    std::vector<model::ConsumerId> ids;
  };
  std::vector<MarkedConsumers> marked_consumers_;
  /// Membership log, indexed by source shard (size shard_count_).
  std::vector<MembershipOps> pending_membership_;
  /// Apply-time scratch (same shape as the log): AdvanceEpoch swaps the
  /// WHOLE log here before running any op, so ops enqueued during
  /// application — of any kind — land in the next epoch. Vector storage
  /// circulates between the two arrays, so steady-state epochs allocate
  /// nothing.
  std::vector<MembershipOps> apply_scratch_;
  uint64_t membership_epoch_ = 0;
  uint64_t membership_ops_applied_ = 0;
  uint32_t shard_count_ = 1;
  double total_capacity_ = 0;
};

}  // namespace sbqa::core

#endif  // SBQA_CORE_REGISTRY_H_
