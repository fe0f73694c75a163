#include "core/shard_directory.h"

#include "core/registry.h"

namespace sbqa::core {

void ShardDirectory::Refresh(const Registry& registry) {
  const uint32_t n = registry.shard_count();
  entries_.resize(n);
  for (uint32_t s = 0; s < n; ++s) {
    const CandidateIndex& index = registry.shard_index(s);
    Entry& entry = entries_[s];
    entry.generalists = index.alive_generalist_count();
    entry.active_consumers = registry.active_consumer_count(s);
    index.CollectClassCounts(&entry.class_counts);
  }
  epoch_ = registry.membership_epoch();
  snapshot_valid_ = true;
}

bool ShardDirectory::RefreshIfChanged(const Registry& registry) {
  const uint32_t n = registry.shard_count();
  if (snapshot_valid_ && entries_.size() == n &&
      epoch_ == registry.membership_epoch()) {
    bool consumers_unchanged = true;
    for (uint32_t s = 0; s < n; ++s) {
      if (entries_[s].active_consumers != registry.active_consumer_count(s)) {
        consumers_unchanged = false;
        break;
      }
    }
    if (consumers_unchanged) return false;
  }
  Refresh(registry);
  return true;
}

size_t ShardDirectory::CountFor(uint32_t shard,
                                model::QueryClassId query_class) const {
  const Entry& entry = entries_[shard];
  const auto it = std::lower_bound(
      entry.class_counts.begin(), entry.class_counts.end(), query_class,
      [](const std::pair<model::QueryClassId, size_t>& e,
         model::QueryClassId c) { return e.first < c; });
  const size_t restricted =
      (it != entry.class_counts.end() && it->first == query_class)
          ? it->second
          : 0;
  return entry.generalists + restricted;
}

uint32_t ShardDirectory::FindShardWith(model::QueryClassId query_class,
                                       uint32_t from) const {
  const uint32_t n = shard_count();
  if (n <= 1) return kNoShard;
  uint32_t best = kNoShard;
  uint64_t best_consumers = 0;
  uint64_t best_candidates = 0;
  for (uint32_t step = 1; step < n; ++step) {
    const uint32_t shard = (from + step) % n;
    const uint64_t candidates =
        static_cast<uint64_t>(CountFor(shard, query_class));
    if (candidates == 0) continue;
    const uint64_t consumers =
        static_cast<uint64_t>(entries_[shard].active_consumers);
    // Load = consumers / candidates, compared exactly by cross-
    // multiplication (no floating point, no tie surprises). A strict <
    // keeps the first shard in wrap order on equal load — the
    // deterministic tie-break.
    if (best == kNoShard ||
        consumers * best_candidates < best_consumers * candidates) {
      best = shard;
      best_consumers = consumers;
      best_candidates = candidates;
    }
  }
  return best;
}

}  // namespace sbqa::core
