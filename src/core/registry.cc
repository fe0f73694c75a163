#include "core/registry.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/rng.h"

namespace sbqa::core {

Registry::Registry() {
  partitions_.push_back(std::make_unique<CandidateIndex>());
  active_consumers_.push_back(0);
  pending_membership_.resize(1);
  apply_scratch_.resize(1);
}

model::ProviderId Registry::AddProvider(const ProviderParams& params) {
  const auto id = static_cast<model::ProviderId>(providers_.size());
  const uint32_t slot = hot_.Append(params);
  SBQA_CHECK_EQ(static_cast<size_t>(slot), static_cast<size_t>(id));
  providers_.emplace_back(id, params, &hot_, slot);
  providers_.back().set_observer(this);
  // Providers joining after SetShardCount (open systems) get their owner
  // shard from the deterministic id hash — stable for the whole run, so
  // provider state never migrates; the initial population gets contiguous
  // blocks in SetShardCount.
  provider_shard_.push_back(JoinOwnerShard(id));
  partitions_[provider_shard_.back()]->OnProviderAdded(providers_.back());
  total_capacity_ += params.capacity;
  return id;
}

void Registry::ReserveProviders(size_t providers, size_t window_entries) {
  providers_.reserve(providers);
  provider_shard_.reserve(providers);
  hot_.Reserve(providers, window_entries);
  for (const auto& partition : partitions_) partition->Reserve(providers);
}

void Registry::SetProviderPreference(model::ProviderId provider,
                                     model::ConsumerId consumer,
                                     double preference) {
  SBQA_CHECK_GE(provider, 0);
  SBQA_CHECK_LT(static_cast<size_t>(provider), providers_.size());
  hot_.SetPreference(static_cast<uint32_t>(provider), consumer, preference);
}

model::ConsumerId Registry::AddConsumer(const ConsumerParams& params) {
  const auto id = static_cast<model::ConsumerId>(consumers_.size());
  consumers_.emplace_back(id, params);
  consumers_.back().set_observer(this);
  ++active_consumers_[ConsumerShard(id)];  // consumers start active
  published_consumers_.emplace_back();
  if (shard_count_ > 1) {
    // A runtime join: keep the owner's change list able to hold every
    // consumer it owns (SetShardCount reserved it for the initial ones).
    marked_consumers_[ConsumerShard(id)].ids.reserve(
        consumers_.size() / shard_count_ + 1);
  }
  return id;
}

Provider& Registry::provider(model::ProviderId id) {
  SBQA_CHECK_GE(id, 0);
  SBQA_CHECK_LT(static_cast<size_t>(id), providers_.size());
  return providers_[static_cast<size_t>(id)];
}

const Provider& Registry::provider(model::ProviderId id) const {
  SBQA_CHECK_GE(id, 0);
  SBQA_CHECK_LT(static_cast<size_t>(id), providers_.size());
  return providers_[static_cast<size_t>(id)];
}

Consumer& Registry::consumer(model::ConsumerId id) {
  SBQA_CHECK_GE(id, 0);
  SBQA_CHECK_LT(static_cast<size_t>(id), consumers_.size());
  return consumers_[static_cast<size_t>(id)];
}

const Consumer& Registry::consumer(model::ConsumerId id) const {
  SBQA_CHECK_GE(id, 0);
  SBQA_CHECK_LT(static_cast<size_t>(id), consumers_.size());
  return consumers_[static_cast<size_t>(id)];
}

void Registry::SetShardCount(uint32_t shard_count) {
  SBQA_CHECK_GE(shard_count, 1u);
  if (shard_count == 1 && partitions_.size() == 1) {
    // Already the single-partition layout. Keep the incrementally built
    // index AS IS: a rebuild would reorder its dense sets (providers that
    // were restricted after registration occupy different slots), which
    // would perturb uniform sampling and break the bit-for-bit equivalence
    // between shard_count=1 and the classic single-engine runner.
    shard_count_ = 1;
    return;
  }
  shard_count_ = shard_count;

  // Contiguous provider blocks: shard s owns ids [s*block, (s+1)*block).
  // Contiguity keeps each shard's slice of the SoA hot state a disjoint
  // byte range, so shard threads never false-share a cache line.
  const size_t count = providers_.size();
  const size_t block = (count + shard_count - 1) / shard_count;
  partitions_.clear();
  for (uint32_t s = 0; s < shard_count; ++s) {
    partitions_.push_back(std::make_unique<CandidateIndex>());
    partitions_.back()->Reserve(reserved_providers());
  }
  for (size_t i = 0; i < count; ++i) {
    const uint32_t shard =
        block == 0 ? 0
                   : static_cast<uint32_t>(
                         std::min<size_t>(i / block, shard_count - 1));
    provider_shard_[i] = shard;
    partitions_[shard]->OnProviderAdded(providers_[i]);
  }

  active_consumers_.assign(shard_count, 0);
  marked_consumers_.clear();
  marked_consumers_.resize(shard_count);
  for (MarkedConsumers& marked : marked_consumers_) {
    marked.ids.reserve(consumers_.size() / shard_count + 1);
  }
  for (const Consumer& c : consumers_) {
    if (c.active()) ++active_consumers_[ConsumerShard(c.id())];
    published_consumers_[static_cast<size_t>(c.id())] = PublishedConsumer{
        {c.satisfaction(), c.satisfaction_tracker().sample_count()}, false};
  }
  pending_membership_.clear();
  pending_membership_.resize(shard_count);
  apply_scratch_.clear();
  apply_scratch_.resize(shard_count);
}

// --- Barrier-published consumer satisfaction ---------------------------------

void Registry::MarkConsumerSatisfactionChanged(model::ConsumerId id) {
  if (shard_count_ <= 1) return;
  PublishedConsumer& slot = published_consumers_[static_cast<size_t>(id)];
  if (slot.marked) return;
  slot.marked = true;
  marked_consumers_[ConsumerShard(id)].ids.push_back(id);
}

void Registry::PublishConsumerSatisfaction() {
  for (MarkedConsumers& marked : marked_consumers_) {
    for (model::ConsumerId id : marked.ids) {
      const Consumer& c = consumers_[static_cast<size_t>(id)];
      PublishedConsumer& slot = published_consumers_[static_cast<size_t>(id)];
      slot.published = {c.satisfaction(),
                        c.satisfaction_tracker().sample_count()};
      slot.marked = false;
    }
    marked.ids.clear();
  }
}

Registry::ConsumerSatisfaction Registry::ConsumerSatisfactionFor(
    model::ConsumerId id, uint32_t reader) const {
  if (ConsumerShard(id) != reader) {
    return published_consumers_[static_cast<size_t>(id)].published;
  }
  const Consumer& c = consumer(id);
  return {c.satisfaction(), c.satisfaction_tracker().sample_count()};
}

// --- Elastic membership (epoch protocol) -------------------------------------

uint32_t Registry::JoinOwnerShard(model::ProviderId id) const {
  if (shard_count_ <= 1) return 0;
  // SplitMix64 avalanche of the dense id: deterministic, uniform, and
  // independent of the join's source shard or the window's other traffic.
  return static_cast<uint32_t>(
      util::SplitMix64Avalanche(
          static_cast<uint64_t>(static_cast<uint32_t>(id))) %
      shard_count_);
}

void Registry::QueueAvailabilityChange(uint32_t source_shard,
                                       model::ProviderId provider,
                                       bool available) {
  SBQA_DCHECK_LT(source_shard, pending_membership_.size());
  pending_membership_[source_shard].availability.emplace_back(
      provider, available ? uint8_t{1} : uint8_t{0});
}

void Registry::QueueDeparture(uint32_t source_shard,
                              model::ProviderId provider) {
  SBQA_DCHECK_LT(source_shard, pending_membership_.size());
  pending_membership_[source_shard].departures.push_back(provider);
}

void Registry::QueueJoin(uint32_t source_shard, JoinFn join) {
  SBQA_DCHECK_LT(source_shard, pending_membership_.size());
  pending_membership_[source_shard].joins.push_back(std::move(join));
}

bool Registry::HasPendingMembershipOps() const {
  for (const MembershipOps& ops : pending_membership_) {
    if (!ops.availability.empty() || !ops.departures.empty() ||
        !ops.joins.empty()) {
      return true;
    }
  }
  return false;
}

void Registry::AdvanceEpoch(MembershipApplier* applier) {
  SBQA_CHECK(applier != nullptr);
  if (!HasPendingMembershipOps()) return;
  // The WHOLE log is swapped out before any op runs: application may
  // enqueue follow-up ops (a joined volunteer's churn process starting
  // offline), and those belong to the NEXT epoch regardless of their
  // kind — not to a moving target in this one.
  for (size_t s = 0; s < pending_membership_.size(); ++s) {
    std::swap(pending_membership_[s], apply_scratch_[s]);
  }
  // Fixed (op-kind, source-shard, FIFO) order.
  uint64_t applied = 0;
  for (MembershipOps& ops : apply_scratch_) {
    for (const auto& [provider, available] : ops.availability) {
      applier->ApplyAvailability(provider, available != 0);
      ++applied;
    }
  }
  for (MembershipOps& ops : apply_scratch_) {
    for (model::ProviderId provider : ops.departures) {
      applier->ApplyDeparture(provider);
      ++applied;
    }
  }
  for (MembershipOps& ops : apply_scratch_) {
    for (JoinFn& join : ops.joins) {
      const model::ProviderId id = join(this);
      SBQA_CHECK_EQ(static_cast<size_t>(id) + 1, providers_.size());
      applier->OnProviderJoined(id);
      ++applied;
    }
  }
  for (MembershipOps& ops : apply_scratch_) {
    ops.availability.clear();
    ops.departures.clear();
    ops.joins.clear();  // releases the applied closures; keeps capacity
  }
  membership_ops_applied_ += applied;
  if (applied > 0) ++membership_epoch_;
}

CandidateSet Registry::CandidatesForShard(
    uint32_t shard, const model::Query& query,
    std::vector<model::ProviderId>* scratch) const {
  return CandidateSet(partitions_[shard].get(), query.query_class, scratch);
}

CandidateSet Registry::CandidatesFor(
    const model::Query& query,
    std::vector<model::ProviderId>* scratch) const {
  return CandidatesForShard(0, query, scratch);
}

std::vector<model::ProviderId> Registry::ProvidersFor(
    const model::Query& query) const {
  std::vector<model::ProviderId> out;
  std::vector<model::ProviderId> partition;
  for (const auto& index : partitions_) {
    index->CollectFor(query.query_class, &partition);
    out.insert(out.end(), partition.begin(), partition.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Registry::CollectAliveProviders(
    std::vector<model::ProviderId>* out) const {
  SBQA_CHECK(out != nullptr);
  partitions_[0]->CollectAlive(out);
  std::vector<model::ProviderId> partition;
  for (size_t s = 1; s < partitions_.size(); ++s) {
    partitions_[s]->CollectAlive(&partition);
    out->insert(out->end(), partition.begin(), partition.end());
  }
}

void Registry::CollectAliveProvidersForShard(
    uint32_t shard, std::vector<model::ProviderId>* out) const {
  partitions_[shard]->CollectAlive(out);
}

size_t Registry::alive_provider_count() const {
  size_t total = 0;
  for (const auto& index : partitions_) total += index->alive_count();
  return total;
}

size_t Registry::active_consumer_count() const {
  int64_t total = 0;
  for (int64_t count : active_consumers_) total += count;
  return static_cast<size_t>(total);
}

double Registry::AliveCapacity() const {
  double total = 0;
  for (const auto& index : partitions_) total += index->alive_capacity();
  return total;
}

}  // namespace sbqa::core
