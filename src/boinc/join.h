#ifndef SBQA_BOINC_JOIN_H_
#define SBQA_BOINC_JOIN_H_

/// \file
/// Open-system dynamics: new volunteers join the platform at runtime (the
/// other half of the paper's "participants may join and leave at will").
/// Joined volunteers are full citizens — preferences, reputation slot,
/// optional availability churn — and become eligible for Pq immediately.
///
/// Sharded mode: when the driving mediator defers membership
/// (Mediator::deferred_membership), a join arrival enqueues a
/// Registry::QueueJoin op instead of growing the registry mid-window; the
/// volunteer materializes at the next epoch barrier, drawn from this
/// process's own RNG stream in fixed (source-shard, FIFO) apply order, so
/// runs stay bit-reproducible per (seed, shard_count). The epoch applier —
/// not this process — wires the newcomer's reputation slot and churn
/// process, because the owner shard is only known once the id is assigned
/// at apply time (deterministic id hash). The experiment runner gives each
/// shard its own join process with rate / shard_count and a strided slice
/// of max_joins, which partitions the configured arrival stream across
/// shards.

#include <memory>
#include <vector>

#include "boinc/population.h"
#include "core/mediator.h"
#include "model/reputation.h"
#include "runtime/runtime.h"
#include "workload/churn.h"

namespace sbqa::boinc {

/// Arrival process of new volunteers.
struct VolunteerJoinParams {
  bool enabled = false;
  /// New volunteers per second (Poisson).
  double rate = 0.05;
  /// Hard cap on runtime joins. experiments::RunScenario reserves the
  /// registry's per-provider tables for the population plus this cap.
  size_t max_joins = 1000;
  double start_time = 0.0;
};

/// Spawns volunteers into a running system.
class VolunteerJoinProcess {
 public:
  /// `spec` describes the volunteers to draw; `projects` are the consumer
  /// ids the newcomers form preferences about. All pointers must outlive
  /// the process. Runs on `runtime`'s executor.
  VolunteerJoinProcess(rt::Runtime* runtime, core::Mediator* mediator,
                       model::ReputationRegistry* reputation,
                       const BoincSpec& spec,
                       std::vector<model::ConsumerId> projects,
                       const VolunteerJoinParams& params,
                       const workload::ChurnParams& churn = {});

  void Start();

  /// Volunteers joined (sharded mode: queued; they materialize at the
  /// next epoch barrier).
  int64_t joined() const { return joined_; }
  /// Ids of materialized volunteers (sharded mode: filled at apply time).
  const std::vector<model::ProviderId>& joined_ids() const {
    return joined_ids_;
  }

 private:
  void ScheduleNext();
  void Join();

  rt::Runtime* rt_;
  core::Mediator* mediator_;
  model::ReputationRegistry* reputation_;
  BoincSpec spec_;
  std::vector<model::ConsumerId> projects_;
  VolunteerJoinParams params_;
  workload::ChurnParams churn_;
  util::Rng rng_;
  int64_t joined_ = 0;
  std::vector<model::ProviderId> joined_ids_;
  std::vector<std::unique_ptr<workload::ChurnProcess>> churn_processes_;
};

}  // namespace sbqa::boinc

#endif  // SBQA_BOINC_JOIN_H_
