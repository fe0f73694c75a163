// Tests for the partitioned registry (per-shard candidate-index views,
// contiguous provider blocks, per-shard consumer counters), the
// epoch-based membership mutation log (fixed apply order, deterministic
// join owner-shard hash, in-place partition growth) and the
// barrier-refreshed cross-shard candidate directory with its load-aware
// donor selection, and the barrier-published consumer satisfaction.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "core/shard_directory.h"
#include "util/rng.h"

namespace sbqa::core {
namespace {

void Populate(Registry* registry, size_t providers, size_t consumers) {
  for (size_t i = 0; i < providers; ++i) {
    ProviderParams params;
    params.capacity = 1.0 + static_cast<double>(i % 3);
    registry->AddProvider(params);
  }
  for (size_t i = 0; i < consumers; ++i) {
    registry->AddConsumer(ConsumerParams{});
  }
}

model::Query QueryOfClass(model::QueryClassId c) {
  model::Query query;
  query.query_class = c;
  return query;
}

TEST(RegistryShardTest, ContiguousBlocksCoverEveryProviderExactlyOnce) {
  Registry registry;
  Populate(&registry, 10, 3);
  registry.SetShardCount(4);
  // 10 providers over 4 shards: blocks of 3 -> 3, 3, 3, 1.
  std::vector<size_t> per_shard(4, 0);
  uint32_t last_shard = 0;
  for (model::ProviderId p = 0; p < 10; ++p) {
    const uint32_t shard = registry.ProviderShard(p);
    ASSERT_LT(shard, 4u);
    EXPECT_GE(shard, last_shard);  // contiguous, nondecreasing blocks
    last_shard = shard;
    ++per_shard[shard];
  }
  EXPECT_EQ(per_shard, (std::vector<size_t>{3, 3, 3, 1}));

  size_t total_alive = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    total_alive += registry.shard_index(s).alive_count();
  }
  EXPECT_EQ(total_alive, 10u);
  EXPECT_EQ(registry.alive_provider_count(), 10u);
}

TEST(RegistryShardTest, ShardViewsPartitionCandidates) {
  Registry registry;
  Populate(&registry, 12, 2);
  registry.SetShardCount(3);
  std::vector<model::ProviderId> scratch;
  std::vector<model::ProviderId> seen;
  for (uint32_t s = 0; s < 3; ++s) {
    const CandidateSet view =
        registry.CandidatesForShard(s, QueryOfClass(0), &scratch);
    EXPECT_EQ(view.size(), 4u);
    for (model::ProviderId p : view.All()) {
      EXPECT_EQ(registry.ProviderShard(p), s);
      seen.push_back(p);
    }
  }
  std::sort(seen.begin(), seen.end());
  std::vector<model::ProviderId> expected;
  for (model::ProviderId p = 0; p < 12; ++p) expected.push_back(p);
  EXPECT_EQ(seen, expected);  // disjoint union == whole population
}

TEST(RegistryShardTest, EligibilityChangesRouteToOwningPartition) {
  Registry registry;
  Populate(&registry, 8, 1);
  registry.SetShardCount(2);
  registry.provider(6).set_alive(false);  // shard 1 (block size 4)
  EXPECT_EQ(registry.shard_index(0).alive_count(), 4u);
  EXPECT_EQ(registry.shard_index(1).alive_count(), 3u);
  EXPECT_EQ(registry.alive_provider_count(), 7u);
  registry.provider(6).set_alive(true);
  EXPECT_EQ(registry.shard_index(1).alive_count(), 4u);
}

TEST(RegistryShardTest, PerShardSamplingStaysInPartition) {
  Registry registry;
  Populate(&registry, 20, 1);
  registry.SetShardCount(4);
  util::Rng rng(3);
  std::vector<model::ProviderId> scratch;
  std::vector<model::ProviderId> sample;
  for (int draw = 0; draw < 20; ++draw) {
    const CandidateSet view =
        registry.CandidatesForShard(2, QueryOfClass(0), &scratch);
    view.SampleUniform(3, rng, &sample);
    ASSERT_EQ(sample.size(), 3u);
    for (model::ProviderId p : sample) {
      EXPECT_EQ(registry.ProviderShard(p), 2u);
    }
  }
}

TEST(RegistryShardTest, ConsumerCountersArePerShard) {
  Registry registry;
  Populate(&registry, 4, 6);
  registry.SetShardCount(3);
  EXPECT_EQ(registry.active_consumer_count(), 6u);
  EXPECT_EQ(registry.ConsumerShard(0), 0u);
  EXPECT_EQ(registry.ConsumerShard(4), 1u);  // round robin
  registry.consumer(4).set_active(false);
  registry.consumer(2).set_active(false);
  EXPECT_EQ(registry.active_consumer_count(), 4u);
  registry.consumer(4).set_active(true);
  EXPECT_EQ(registry.active_consumer_count(), 5u);
}

TEST(RegistryShardTest, SingleShardKeepsIncrementallyBuiltIndex) {
  Registry registry;
  Populate(&registry, 6, 1);
  const CandidateIndex* before = &registry.candidate_index();
  registry.SetShardCount(1);
  // No rebuild: the exact index object (and therefore its sampling order)
  // survives, which keeps shard_count=1 bit-identical to the classic
  // engine.
  EXPECT_EQ(&registry.candidate_index(), before);
}

TEST(ShardDirectoryTest, CountsFollowPartitions) {
  Registry registry;
  Populate(&registry, 9, 3);
  registry.provider(0).RestrictClasses({model::QueryClassId{2}});
  registry.SetShardCount(3);
  ShardDirectory directory;
  directory.Refresh(registry);

  ASSERT_EQ(directory.shard_count(), 3u);
  // Shard 0: two generalists + one provider restricted to class 2.
  EXPECT_EQ(directory.CountFor(0, 0), 2u);
  EXPECT_EQ(directory.CountFor(0, 2), 3u);
  EXPECT_EQ(directory.CountFor(1, 0), 3u);
  EXPECT_EQ(directory.CountFor(2, 7), 3u);  // unknown class: generalists
}

TEST(ShardDirectoryTest, FindShardWithPicksLeastLoadedDonor) {
  Registry registry;
  Populate(&registry, 8, 2);
  registry.SetShardCount(4);
  // Starve shards 1 and 2 of class 5: restrict their providers to class 0.
  for (model::ProviderId p = 2; p < 6; ++p) {
    registry.provider(p).RestrictClasses({model::QueryClassId{0}});
  }
  // Consumers round-robin: c0 on shard 0, c1 on shard 1; shards 2 and 3
  // carry no consumer load.
  ShardDirectory directory;
  directory.Refresh(registry);

  // Class-5 candidates live on shards 0 (load 1 consumer / 2 candidates)
  // and 3 (load 0 / 2): the least-loaded donor is shard 3 from anywhere.
  EXPECT_EQ(directory.FindShardWith(5, 1), 3u);
  // From shard 3 itself the only remaining donor is shard 0.
  EXPECT_EQ(directory.FindShardWith(5, 3), 0u);
  // Class 0 is everywhere with 2 candidates per shard; loads are
  // {1, 1, 0, 0} consumers. From shard 0 the least-loaded donors are
  // shards 2 and 3 (tied at 0): the tie-break is the first in wrap order,
  // shard 2.
  EXPECT_EQ(directory.FindShardWith(0, 0), 2u);
  // Same tie from shard 2's perspective: wrap order 3 -> 0 -> 1 makes
  // shard 3 the deterministic winner.
  EXPECT_EQ(directory.FindShardWith(0, 2), 3u);

  // Retire c1: shard 1 drops to load 0 and the three-way tie goes to the
  // first shard in wrap order from the origin — shard 1.
  registry.consumer(1).set_active(false);
  directory.Refresh(registry);
  EXPECT_EQ(directory.FindShardWith(0, 0), 1u);
}

TEST(ShardDirectoryTest, LoadAwareSelectionPrefersFewerConsumersPerCandidate) {
  Registry registry;
  Populate(&registry, 9, 6);
  registry.SetShardCount(3);
  // Shard 2 loses two of its three providers: 6 consumers round-robin ->
  // 2 per shard; loads are shard 0: 2/3, shard 1: 2/3, shard 2: 2/1.
  registry.provider(7).set_alive(false);
  registry.provider(8).set_alive(false);
  ShardDirectory directory;
  directory.Refresh(registry);

  // From shard 2, both peers tie at 2 consumers / 3 candidates: wrap
  // order picks shard 0.
  EXPECT_EQ(directory.FindShardWith(0, 2), 0u);
  // From shard 0, shard 1 (2/3) beats shard 2 (2/1).
  EXPECT_EQ(directory.FindShardWith(0, 0), 1u);
  // Cross-multiplied comparison, not integer division: shard 1 with 2/3
  // load must also beat a later shard at 1/1 (1*3 > 2*1).
  registry.consumer(2).set_active(false);  // shard 2 -> 1 consumer
  directory.Refresh(registry);
  EXPECT_EQ(directory.ConsumersOn(2), 1u);
  EXPECT_EQ(directory.FindShardWith(0, 0), 1u);
}

/// Records the order AdvanceEpoch applies ops in.
class RecordingApplier : public MembershipApplier {
 public:
  explicit RecordingApplier(Registry* registry) : registry_(registry) {}

  void ApplyAvailability(model::ProviderId provider, bool available) override {
    log_.push_back(std::string("avail:") + std::to_string(provider) +
                   (available ? ":on" : ":off"));
    registry_->provider(provider).set_alive(available);
  }
  void ApplyDeparture(model::ProviderId provider) override {
    log_.push_back("depart:" + std::to_string(provider));
    if (!registry_->provider(provider).departed()) {
      registry_->provider(provider).MarkDeparted();
    }
  }
  void OnProviderJoined(model::ProviderId provider) override {
    log_.push_back("join:" + std::to_string(provider));
  }

  const std::vector<std::string>& log() const { return log_; }

 private:
  Registry* registry_;
  std::vector<std::string> log_;
};

TEST(RegistryMembershipTest, AdvanceEpochAppliesInKindShardFifoOrder) {
  Registry registry;
  Populate(&registry, 8, 2);
  registry.SetShardCount(2);
  RecordingApplier applier(&registry);

  // Interleave kinds and source shards; the application order must come
  // out kind-major (availability, departures, joins), shard-minor, FIFO
  // within a (kind, shard) slice — regardless of enqueue interleaving.
  registry.QueueDeparture(1, 6);
  registry.QueueAvailabilityChange(1, 5, false);
  registry.QueueJoin(0, [](Registry* r) {
    return r->AddProvider(ProviderParams{});
  });
  registry.QueueAvailabilityChange(0, 1, false);
  registry.QueueAvailabilityChange(0, 2, false);
  registry.QueueDeparture(0, 3);
  EXPECT_TRUE(registry.HasPendingMembershipOps());
  EXPECT_EQ(registry.membership_epoch(), 0u);

  registry.AdvanceEpoch(&applier);
  EXPECT_FALSE(registry.HasPendingMembershipOps());
  EXPECT_EQ(registry.membership_epoch(), 1u);
  EXPECT_EQ(registry.membership_ops_applied(), 6u);
  const std::vector<std::string> expected = {
      "avail:1:off", "avail:2:off", "avail:5:off",
      "depart:3",    "depart:6",    "join:8",
  };
  EXPECT_EQ(applier.log(), expected);

  // The joined provider grew the registry and its owner partition in
  // place; the owner shard is the deterministic id hash.
  EXPECT_EQ(registry.provider_count(), 9u);
  EXPECT_EQ(registry.ProviderShard(8), registry.JoinOwnerShard(8));
  size_t partition_alive = 0;
  for (uint32_t s = 0; s < 2; ++s) {
    partition_alive += registry.shard_index(s).alive_count();
  }
  // Three offline + two departed out of the original 8, one alive join in.
  EXPECT_EQ(partition_alive, 4u);

  // An empty log is a no-op epoch: the counter must not advance.
  registry.AdvanceEpoch(&applier);
  EXPECT_EQ(registry.membership_epoch(), 1u);
}

TEST(RegistryMembershipTest, JoinOwnerShardIsStableAndCoversAllShards) {
  Registry registry;
  Populate(&registry, 8, 1);
  registry.SetShardCount(4);
  // Deterministic: same id, same shard, every time.
  for (model::ProviderId id = 8; id < 40; ++id) {
    EXPECT_EQ(registry.JoinOwnerShard(id), registry.JoinOwnerShard(id));
    EXPECT_LT(registry.JoinOwnerShard(id), 4u);
  }
  // And reasonably spread: over 64 future ids every shard owns some.
  std::vector<size_t> owned(4, 0);
  for (model::ProviderId id = 8; id < 72; ++id) {
    ++owned[registry.JoinOwnerShard(id)];
  }
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_GT(owned[s], 0u) << "shard " << s << " owns no joined provider";
  }

  // AddProvider after SetShardCount routes the newcomer to its hashed
  // owner partition.
  const model::ProviderId id = registry.AddProvider(ProviderParams{});
  EXPECT_EQ(registry.ProviderShard(id), registry.JoinOwnerShard(id));
  EXPECT_TRUE(
      registry.shard_index(registry.ProviderShard(id)).ContainsFor(0, id));
}

TEST(RegistryMembershipTest, OpsQueuedDuringApplyLandInNextEpoch) {
  Registry registry;
  Populate(&registry, 4, 1);
  registry.SetShardCount(2);

  // An applier that reacts to a join by queueing a follow-up availability
  // change (the "joined volunteer starts offline" pattern).
  class ChainingApplier : public RecordingApplier {
   public:
    ChainingApplier(Registry* registry) : RecordingApplier(registry),
                                          registry_(registry) {}
    void OnProviderJoined(model::ProviderId provider) override {
      RecordingApplier::OnProviderJoined(provider);
      registry_->QueueAvailabilityChange(registry_->ProviderShard(provider),
                                         provider, false);
    }
   private:
    Registry* registry_;
  };

  ChainingApplier applier(&registry);
  registry.QueueJoin(0, [](Registry* r) {
    return r->AddProvider(ProviderParams{});
  });
  registry.AdvanceEpoch(&applier);
  EXPECT_EQ(registry.membership_epoch(), 1u);
  // The follow-up op was NOT applied in the same epoch...
  EXPECT_TRUE(registry.HasPendingMembershipOps());
  EXPECT_TRUE(registry.provider(4).alive());
  // ...but lands in the next one.
  registry.AdvanceEpoch(&applier);
  EXPECT_EQ(registry.membership_epoch(), 2u);
  EXPECT_FALSE(registry.provider(4).alive());
}

TEST(ShardDirectoryTest, RefreshIfChangedSnapshotsMembershipEpoch) {
  Registry registry;
  Populate(&registry, 6, 2);
  registry.SetShardCount(2);
  RecordingApplier applier(&registry);
  ShardDirectory directory;

  EXPECT_TRUE(directory.RefreshIfChanged(registry));  // first snapshot
  EXPECT_EQ(directory.epoch(), 0u);
  // Nothing changed: the refresh is skipped.
  EXPECT_FALSE(directory.RefreshIfChanged(registry));

  // An applied epoch invalidates the snapshot.
  registry.QueueAvailabilityChange(0, 1, false);
  registry.AdvanceEpoch(&applier);
  EXPECT_TRUE(directory.RefreshIfChanged(registry));
  EXPECT_EQ(directory.epoch(), 1u);
  EXPECT_EQ(directory.CountFor(0, 0), 2u);

  // So does a consumer-side load change (retirements are not epoch ops).
  registry.consumer(0).set_active(false);
  EXPECT_TRUE(directory.RefreshIfChanged(registry));
  EXPECT_EQ(directory.ConsumersOn(0), 0u);
  EXPECT_FALSE(directory.RefreshIfChanged(registry));
}

TEST(ShardDirectoryTest, RefreshTracksChurn) {
  Registry registry;
  Populate(&registry, 4, 1);
  registry.SetShardCount(2);
  ShardDirectory directory;
  directory.Refresh(registry);
  EXPECT_EQ(directory.CountFor(1, 0), 2u);

  registry.provider(2).set_alive(false);
  registry.provider(3).set_alive(false);
  // Stale until the next barrier refresh.
  EXPECT_EQ(directory.CountFor(1, 0), 2u);
  directory.Refresh(registry);
  EXPECT_EQ(directory.CountFor(1, 0), 0u);
  EXPECT_EQ(directory.FindShardWith(0, 0), ShardDirectory::kNoShard);
  // Nobody anywhere: no borrow target from shard 1 either.
  registry.provider(0).set_alive(false);
  registry.provider(1).set_alive(false);
  directory.Refresh(registry);
  EXPECT_EQ(directory.FindShardWith(0, 1), ShardDirectory::kNoShard);
}

TEST(RegistryShardTest, ConsumerSatisfactionPublishesAtBarriers) {
  Registry registry;
  Populate(&registry, 4, 2);
  // Memory recorded before sharding is the initial published copy.
  registry.consumer(1).satisfaction_tracker().RecordQuery(0.2, 0.5, 1.0);
  registry.SetShardCount(2);  // consumer 0 on shard 0, consumer 1 on 1
  EXPECT_EQ(registry.ConsumerSatisfactionFor(1, 0).sample_count, 1u);
  EXPECT_DOUBLE_EQ(registry.ConsumerSatisfactionFor(1, 0).satisfaction, 0.2);

  // The home shard records two outcomes for consumer 0 mid-window.
  for (const double satisfaction : {0.9, 0.7}) {
    registry.consumer(0).satisfaction_tracker().RecordQuery(satisfaction, 0.5,
                                                            1.0);
    registry.MarkConsumerSatisfactionChanged(0);
  }
  // The owner reads its live memory; the other shard still sees the last
  // barrier's copy (no samples yet).
  EXPECT_EQ(registry.ConsumerSatisfactionFor(0, 0).sample_count, 2u);
  EXPECT_DOUBLE_EQ(registry.ConsumerSatisfactionFor(0, 0).satisfaction, 0.8);
  EXPECT_EQ(registry.ConsumerSatisfactionFor(0, 1).sample_count, 0u);

  // The barrier publishes the window's changes.
  registry.PublishConsumerSatisfaction();
  EXPECT_EQ(registry.ConsumerSatisfactionFor(0, 1).sample_count, 2u);
  EXPECT_DOUBLE_EQ(registry.ConsumerSatisfactionFor(0, 1).satisfaction, 0.8);

  // An unmarked change stays unpublished: only marked consumers are
  // copied, which is what keeps a publish O(changed consumers).
  registry.consumer(0).satisfaction_tracker().RecordQuery(0.0, 0.5, 1.0);
  registry.PublishConsumerSatisfaction();
  EXPECT_EQ(registry.ConsumerSatisfactionFor(0, 1).sample_count, 2u);
  registry.MarkConsumerSatisfactionChanged(0);
  registry.PublishConsumerSatisfaction();
  EXPECT_EQ(registry.ConsumerSatisfactionFor(0, 1).sample_count, 3u);
}

}  // namespace
}  // namespace sbqa::core
