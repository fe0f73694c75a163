#include "experiments/assembly.h"

#include <utility>

#include "core/sbqa.h"
#include "util/check.h"
#include "util/rng.h"

namespace sbqa::experiments {

Assembly::Assembly(AssemblyOptions options) : options_(std::move(options)) {
  core::Registry* registry = options_.registry;
  SBQA_CHECK(registry != nullptr);
  SBQA_CHECK(options_.reputation != nullptr);
  SBQA_CHECK(options_.make_method != nullptr);
  SBQA_CHECK(options_.shards != nullptr);
  SBQA_CHECK_GE(options_.group, 1u);
  const uint32_t n = shard_count();
  SBQA_CHECK_EQ(registry->shard_count(), n);
  const size_t group = options_.group;

  mediators_.reserve(n * group);
  for (uint32_t s = 0; s < n; ++s) {
    rt::Runtime* runtime = &options_.shards->shard_runtime(s);
    if (options_.fault_plan.enabled()) {
      rt::FaultPlan plan = options_.fault_plan;
      plan.seed = util::Rng::StreamSeed(options_.fault_plan.seed, s);
      injectors_.push_back(std::make_unique<rt::FaultInjector>(runtime, plan));
      runtime = injectors_.back().get();
    }
    for (size_t m = 0; m < group; ++m) {
      mediators_.push_back(std::make_unique<core::Mediator>(
          runtime, registry, options_.reputation, options_.make_method(),
          options_.mediator));
      all_.push_back(mediators_.back().get());
      if (m == 0) gateways_.push_back(mediators_.back().get());
    }
  }
  if (n > 1) {
    directory_.Refresh(*registry);
    // Every group member can delegate cross-shard; incoming traffic lands
    // on the gateway list's entry for each shard.
    for (uint32_t s = 0; s < n; ++s) {
      for (size_t m = 0; m < group; ++m) {
        all_[s * group + m]->ConfigureSharding(options_.shards, s, &directory_,
                                               gateways_);
      }
    }
  }
  if (group > 1) {
    // In-shard peer propagation: a provider failure reaches every group
    // member's in-flight instances.
    for (uint32_t s = 0; s < n; ++s) {
      std::vector<core::Mediator*> in_shard(
          all_.begin() + static_cast<long>(s * group),
          all_.begin() + static_cast<long>((s + 1) * group));
      for (core::Mediator* mediator : in_shard) mediator->SetPeers(in_shard);
    }
  }
  if (options_.departure.providers_can_leave ||
      options_.departure.consumers_can_leave) {
    for (size_t i = 0; i < all_.size(); ++i) {
      // The gateway sweeps its shard's partition; other group members
      // check only on their own mediation events.
      all_[i]->SetDepartureModel(options_.departure,
                                 /*run_sweep=*/i % group == 0);
    }
  }
}

Assembly::~Assembly() = default;

void Assembly::InstallBarrierPhases() {
  if (shard_count() == 1) return;
  rt::BarrierCore* shards = options_.shards;
  shards->SetMembershipHook([this](double) { MembershipPhase(); });
  SettleMembership();
  shards->AddBarrierHook(
      [this](double) { directory_.RefreshIfChanged(*options_.registry); });
}

void Assembly::MembershipPhase() {
  options_.registry->AdvanceEpoch(this);
  // Published after the epoch: applying it can finalize queries too.
  options_.registry->PublishConsumerSatisfaction();
}

void Assembly::SettleMembership() {
  if (options_.registry->HasPendingMembershipOps()) {
    options_.registry->AdvanceEpoch(this);
  }
  directory_.Refresh(*options_.registry);
}

model::ProviderId Assembly::JoinProvider(const core::ProviderParams& params) {
  // Applying the epoch right away (instead of at the next membership phase)
  // is what hands the caller the dense id synchronously.
  model::ProviderId id = model::kInvalidId;
  options_.registry->QueueJoin(0, [&id, &params](core::Registry* registry) {
    id = registry->AddProvider(params);
    return id;
  });
  options_.registry->AdvanceEpoch(this);
  return id;
}

void Assembly::ApplyAvailability(model::ProviderId provider, bool available) {
  Owner(provider)->ApplyProviderAvailability(provider, available);
}

void Assembly::ApplyDeparture(model::ProviderId provider) {
  Owner(provider)->ApplyProviderDeparture(provider);
}

void Assembly::OnProviderJoined(model::ProviderId provider) {
  options_.reputation->GrowTo(options_.registry->provider_count());
  // Grow every mediator's per-provider tables now, at the barrier, so first
  // contact with the newcomer stays allocation-free on the query path (any
  // shard can touch it: dispatch on the owner, failure bookkeeping on a
  // borrower).
  for (core::Mediator* mediator : all_) {
    mediator->EnsureProviderTables(provider);
  }
  if (options_.on_join) {
    const uint32_t owner = options_.registry->ProviderShard(provider);
    options_.on_join(&options_.shards->shard_runtime(owner), gateways_[owner],
                     provider);
  }
}

core::MediatorStats Assembly::stats() const {
  core::MediatorStats total;
  for (const core::Mediator* mediator : all_) total.Merge(mediator->stats());
  return total;
}

rt::FaultStats Assembly::fault_stats() const {
  rt::FaultStats total;
  for (const auto& injector : injectors_) {
    const rt::FaultStats& f = injector->stats();
    total.sends_seen += f.sends_seen;
    total.sends_dropped += f.sends_dropped;
    total.sends_delayed += f.sends_delayed;
    total.sends_crashed += f.sends_crashed;
    total.crash_windows += f.crash_windows;
    total.latency_skews += f.latency_skews;
  }
  return total;
}

core::ScoreKernelPhases Assembly::decision_phases() const {
  core::ScoreKernelPhases phases;
  for (core::Mediator* mediator : all_) {
    auto* sbqa = dynamic_cast<core::SbqaMethod*>(&mediator->method());
    if (sbqa != nullptr) phases.Accumulate(sbqa->kernel().phases());
  }
  return phases;
}

}  // namespace sbqa::experiments
