#ifndef SBQA_CORE_SHARD_DIRECTORY_H_
#define SBQA_CORE_SHARD_DIRECTORY_H_

/// \file
/// Cross-shard candidate directory: a barrier-refreshed snapshot of every
/// shard's candidate availability (alive generalists + per-class restricted
/// counts) and load (active consumers). When a shard's own candidate pool
/// for a query class runs dry, its mediator consults this directory to pick
/// the borrow target — the LEAST-LOADED donor among the shards that
/// reported candidates for the class, where load is active consumers per
/// candidate, with the first shard in fixed wrap-around order from the
/// origin breaking ties — and forwards the query over the mailbox protocol.
///
/// Concurrency contract: Refresh() runs only on the barrier driver thread
/// while every shard worker is parked; shard threads treat the directory
/// as read-only during a window. The directory is therefore as old as the
/// last barrier, which is fine — a stale positive just makes the target
/// shard route the query onward to nobody and report it unallocated,
/// exactly as an unsharded dry pool would. Everything it snapshots changes
/// through a barrier want (membership ops, consumer retirements), so under
/// threaded serving it is still at most one barrier tick stale.
///
/// The snapshot records the registry's membership epoch: with elastic
/// membership every provider-side change is barrier-applied, so
/// RefreshIfChanged() can skip the O(#shards x #classes) re-collection
/// whenever neither the epoch nor any shard's active-consumer count moved
/// since the last refresh.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "model/types.h"

namespace sbqa::core {

class Registry;

/// Per-shard candidate availability as of the last barrier.
class ShardDirectory {
 public:
  static constexpr uint32_t kNoShard = UINT32_MAX;

  /// Snapshots every partition's generalist and per-class counts, each
  /// shard's active-consumer count (the load signal) and the registry's
  /// membership epoch. Driver-thread only (see the concurrency contract
  /// above). Reuses its buffers: steady-state refreshes allocate nothing.
  void Refresh(const Registry& registry);

  /// Refresh() unless nothing observable changed — membership epoch and
  /// every shard's active-consumer count equal the snapshot. Returns
  /// whether a refresh happened. Only valid when ALL provider-side
  /// mutations are epoch-applied (the sharded runner's case); callers
  /// mutating eligibility directly must use Refresh().
  bool RefreshIfChanged(const Registry& registry);

  uint32_t shard_count() const {
    return static_cast<uint32_t>(entries_.size());
  }

  /// Candidate count for `query_class` on `shard` as of the last refresh.
  size_t CountFor(uint32_t shard, model::QueryClassId query_class) const;

  /// Active consumers on `shard` as of the last refresh.
  size_t ConsumersOn(uint32_t shard) const {
    return entries_[shard].active_consumers;
  }

  /// Membership epoch the snapshot was taken at.
  uint64_t epoch() const { return epoch_; }

  /// The least-loaded donor for `query_class`: among shards (excluding
  /// `from`) that reported candidates, the one minimizing active consumers
  /// per candidate; ties go to the first in fixed wrap-around order after
  /// `from`, which keeps borrow routing deterministic and spreads
  /// different origins' borrows over different equally-loaded targets.
  /// kNoShard when nobody has any candidate.
  uint32_t FindShardWith(model::QueryClassId query_class,
                         uint32_t from) const;

 private:
  struct Entry {
    size_t generalists = 0;
    size_t active_consumers = 0;
    /// (class, alive restricted count), sorted by class.
    std::vector<std::pair<model::QueryClassId, size_t>> class_counts;
  };

  std::vector<Entry> entries_;
  uint64_t epoch_ = 0;
  bool snapshot_valid_ = false;
};

}  // namespace sbqa::core

#endif  // SBQA_CORE_SHARD_DIRECTORY_H_
