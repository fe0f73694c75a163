#ifndef SBQA_EXPERIMENTS_ASSEMBLY_H_
#define SBQA_EXPERIMENTS_ASSEMBLY_H_

/// \file
/// The one assembly of the mediation stack (paper Fig. 1) onto the N >= 1
/// shard executors of an rt::BarrierCore. experiments::RunScenario and a
/// kSimulated sbqa::Engine build it over a sim::ShardSet, a kWallClock
/// engine over an rt::WallClockShardSet; no other library code wires
/// mediators, fault injectors, the cross-shard directory or the membership
/// epoch.
///
/// Per shard: an optional fault injector whose streams derive from
/// (fault_plan.seed, shard) — stream 0 is the root plan seed — and a group
/// of mediators over it, built shard-major so the per-shard RNG split order
/// is fixed. The first mediator of a group is the shard's gateway: it
/// receives cross-shard traffic, applies the shard's membership ops and
/// runs the departure sweep. At more than one shard every mediator is
/// wired into the shard set (Mediator::ConfigureSharding), membership
/// defers to the registry's epoch log, and the caller installs the barrier
/// phases (InstallBarrierPhases). At one shard none of that is wired:
/// membership applies immediately and there is no barrier work at all.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/allocation_method.h"
#include "core/departure.h"
#include "core/mediator.h"
#include "core/registry.h"
#include "core/score_kernel.h"
#include "core/shard_directory.h"
#include "model/reputation.h"
#include "runtime/barrier_core.h"
#include "runtime/fault.h"
#include "runtime/runtime.h"

namespace sbqa::experiments {

/// What to assemble. Pointers are not owned and must outlive the assembly.
struct AssemblyOptions {
  /// The population, already partitioned (Registry::SetShardCount).
  core::Registry* registry = nullptr;
  model::ReputationRegistry* reputation = nullptr;
  /// The shard set: shard s's mediators run on its shard_runtime(s), and
  /// at more than one shard it is the cross-shard transport.
  rt::BarrierCore* shards = nullptr;
  /// Mediators per shard.
  size_t group = 1;
  /// Builds one allocation-method instance per mediator, shard-major.
  std::function<std::unique_ptr<core::AllocationMethod>()> make_method;
  core::MediatorConfig mediator;
  rt::FaultPlan fault_plan;
  core::DepartureConfig departure;
  /// Runs after an epoch-applied join wired `provider` into every mediator,
  /// with its owner shard's executor and gateway (the runner starts the
  /// newcomer's availability churn here). Optional.
  std::function<void(rt::Runtime* owner_runtime, core::Mediator* gateway,
                     model::ProviderId provider)>
      on_join;
};

/// Owns the fault injectors, the mediators and the cross-shard directory,
/// and is the run's one core::MembershipApplier.
class Assembly final : private core::MembershipApplier {
 public:
  explicit Assembly(AssemblyOptions options);
  ~Assembly() override;

  Assembly(const Assembly&) = delete;
  Assembly& operator=(const Assembly&) = delete;

  uint32_t shard_count() const { return options_.shards->shard_count(); }
  size_t group() const { return options_.group; }
  /// Every mediator, shard-major: shard s's group is
  /// [s * group(), (s + 1) * group()).
  const std::vector<core::Mediator*>& mediators() const { return all_; }
  core::Mediator* gateway(uint32_t shard) const { return gateways_[shard]; }

  /// Wires the cross-shard barrier phases into the shard set: the
  /// membership phase (apply the epoch log, then publish consumer
  /// satisfaction) and the directory refresh, which runs first among the
  /// barrier hooks. Ops already queued (churn processes starting offline)
  /// are applied here, so the run starts from a settled population.
  /// Nothing to wire at one shard.
  void InstallBarrierPhases();

  /// Adds one provider to a running system through the epoch join log and
  /// applies it at once, so the newcomer is wired like any other join.
  /// Call at a quiescent point: a barrier, or a lone executor's own
  /// context.
  model::ProviderId JoinProvider(const core::ProviderParams& params);

  /// Mediator counters summed over every mediator.
  core::MediatorStats stats() const;
  /// Injector counters summed over every shard (zeros when unfaulted).
  rt::FaultStats fault_stats() const;
  /// Per-phase decision timings accumulated over every mediator.
  core::ScoreKernelPhases decision_phases() const;

 private:
  // core::MembershipApplier: each op goes to the owner shard's gateway.
  void ApplyAvailability(model::ProviderId provider, bool available) override;
  void ApplyDeparture(model::ProviderId provider) override;
  void OnProviderJoined(model::ProviderId provider) override;

  void MembershipPhase();
  void SettleMembership();
  core::Mediator* Owner(model::ProviderId provider) const {
    return gateways_[options_.registry->ProviderShard(provider)];
  }

  AssemblyOptions options_;
  /// The directory and the injectors are declared before the mediators,
  /// so they outlive the mediators that point at them.
  core::ShardDirectory directory_;
  std::vector<std::unique_ptr<rt::FaultInjector>> injectors_;
  std::vector<std::unique_ptr<core::Mediator>> mediators_;
  std::vector<core::Mediator*> all_;
  std::vector<core::Mediator*> gateways_;
};

}  // namespace sbqa::experiments

#endif  // SBQA_EXPERIMENTS_ASSEMBLY_H_
