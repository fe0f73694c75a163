#include "experiments/runner.h"

#include <algorithm>
#include <memory>

#include "core/sbqa.h"
#include "core/shard_directory.h"
#include "metrics/collector.h"
#include "model/reputation.h"
#include "runtime/fault.h"
#include "sim/shard_set.h"
#include "util/check.h"
#include "util/rng.h"

namespace sbqa::experiments {

namespace {

/// Upper bound on one query's lifetime after issue: attempts are clamped
/// to query_timeout each, retries add capped+jittered backoffs, and the
/// per-query deadline (when set) caps everything.
double QueryLifetimeBound(const ScenarioConfig& config) {
  const core::MediatorConfig& m = config.mediator;
  double lifetime = m.query_timeout;
  if (m.max_retries > 0) {
    lifetime = (m.max_retries + 1) * m.query_timeout +
               m.max_retries * m.retry_backoff_cap *
                   (1.0 + m.retry_backoff_jitter);
  }
  if (config.query_deadline > 0) {
    lifetime = std::min(lifetime, config.query_deadline);
  }
  return lifetime;
}

/// Stamps the run's one master scoring-kernel switch (sim.scoring_kernel /
/// sim.decision_timing) into the method spec: the same run config always
/// drives both the decision path and the mediator's normalization kernel.
MethodSpec StampedMethod(const ScenarioConfig& config) {
  MethodSpec spec = config.method;
  spec.sbqa.scoring_kernel = config.sim.scoring_kernel;
  spec.sbqa.decision_timing = config.sim.decision_timing;
  return spec;
}

/// The mediator half of the master switch (normalization path + dispatch
/// rescore).
core::MediatorConfig StampedMediator(const ScenarioConfig& config) {
  core::MediatorConfig mediator = config.mediator;
  mediator.scoring_kernel = config.sim.scoring_kernel;
  return mediator;
}

/// Harvests scoring-kernel telemetry from the mediators' methods into the
/// result (aggregating across shards and mediator groups; non-SbQA methods
/// leave it empty).
void HarvestDecisionPhases(
    const std::vector<std::unique_ptr<core::Mediator>>& mediators,
    RunResult* result) {
  for (const auto& mediator : mediators) {
    auto* sbqa = dynamic_cast<core::SbqaMethod*>(&mediator->method());
    if (sbqa == nullptr) continue;
    result->scoring_kernel = core::ToString(sbqa->kernel().kind());
    result->decision_phases.Accumulate(sbqa->kernel().phases());
  }
}

/// Sums injector telemetry into the run summary (no-op when unfaulted).
void AccumulateFaultStats(
    const std::vector<std::unique_ptr<rt::FaultInjector>>& injectors,
    metrics::RunSummary* summary) {
  for (const auto& injector : injectors) {
    const rt::FaultStats& f = injector->stats();
    summary->fault_sends_dropped += f.sends_dropped;
    summary->fault_sends_delayed += f.sends_delayed;
    summary->fault_sends_crashed += f.sends_crashed;
  }
}

/// Epoch applier of the sharded runner: routes each membership op applied
/// by Registry::AdvanceEpoch to the owning shard's mediator, and wires
/// newly joined volunteers — reputation slot, availability churn process
/// on the owner shard's scheduler. Lives on the runner's stack for the
/// whole run; invoked only at barriers with every worker parked.
class RunnerMembership final : public core::MembershipApplier {
 public:
  /// `gateways` is the per-shard gateway list (membership ops route to the
  /// owning shard's gateway); `all_mediators` is every mediator including
  /// non-gateway group members, whose provider tables must also grow at
  /// the barrier.
  RunnerMembership(core::Registry* registry, sim::ShardSet* shards,
                   std::vector<core::Mediator*> gateways,
                   std::vector<core::Mediator*> all_mediators,
                   model::ReputationRegistry* reputation,
                   const workload::ChurnParams& churn)
      : registry_(registry),
        shards_(shards),
        mediators_(std::move(gateways)),
        all_mediators_(std::move(all_mediators)),
        reputation_(reputation),
        churn_(churn) {}

  void ApplyAvailability(model::ProviderId provider,
                         bool available) override {
    Owner(provider)->ApplyProviderAvailability(provider, available);
  }

  void ApplyDeparture(model::ProviderId provider) override {
    Owner(provider)->ApplyProviderDeparture(provider);
  }

  void OnProviderJoined(model::ProviderId provider) override {
    reputation_->GrowTo(registry_->provider_count());
    // Table growth happens here at the barrier, never on first contact
    // mid-query — keeps the per-query steady state allocation-free.
    for (core::Mediator* mediator : all_mediators_) {
      mediator->EnsureProviderTables(provider);
    }
    if (churn_.enabled) {
      // The newcomer's availability process lives on its owner shard; its
      // first toggle (possibly "start offline") queues into the NEXT
      // epoch, like every other membership op.
      const uint32_t owner = registry_->ProviderShard(provider);
      join_churn_.push_back(std::make_unique<workload::ChurnProcess>(
          &shards_->shard(owner), mediators_[owner], provider, churn_));
      join_churn_.back()->Start();
    }
  }

 private:
  core::Mediator* Owner(model::ProviderId provider) {
    return mediators_[registry_->ProviderShard(provider)];
  }

  core::Registry* registry_;
  sim::ShardSet* shards_;
  std::vector<core::Mediator*> mediators_;
  std::vector<core::Mediator*> all_mediators_;
  model::ReputationRegistry* reputation_;
  workload::ChurnParams churn_;
  std::vector<std::unique_ptr<workload::ChurnProcess>> join_churn_;
};

}  // namespace

/// Sharded flavour of RunScenario: one scheduler/network/RNG stream,
/// registry partition, mediator, workload slice and churn slice per shard,
/// advanced by the ShardSet barrier protocol. Construction mirrors the
/// single-engine path phase for phase, so a 1-shard run performs the same
/// RNG splits and event submissions in the same order — that is what makes
/// shard_count=1 bit-identical to the classic engine (at one shard
/// membership ops also apply immediately, classic-style, instead of
/// deferring to epoch barriers).
RunResult RunShardedScenario(const ScenarioConfig& config) {
  SBQA_CHECK_GT(config.duration, 0);
  // Per-shard mediator group size: the first member of each group is the
  // shard's gateway for cross-shard traffic.
  const size_t group = std::max<size_t>(config.mediator_count, 1);

  sim::SimulationConfig sim_config = config.sim;
  sim_config.seed = config.seed;
  sim::ShardSet shards(sim_config);
  const uint32_t shard_count = shards.shard_count();

  // Population: one shared registry, built from shard 0's stream exactly
  // like the single-engine path (the population is therefore identical
  // across shard counts), then partitioned.
  core::Registry registry;
  util::Rng population_rng = shards.shard(0).NewRng();
  const boinc::BuiltPopulation population =
      boinc::BuildPopulation(config.population, &registry, &population_rng);
  if (config.population_hook) {
    config.population_hook(&registry, population, &population_rng);
  }
  registry.SetShardCount(shard_count);

  model::ReputationRegistry reputation(registry.provider_count());

  // A mediator group per shard (usually group == 1), each shard optionally
  // behind a fault injector whose streams derive from (fault_plan.seed,
  // shard): bit-reproducible per (seed, plan, shard_count), and stream 0
  // IS the root plan seed so a 1-shard chaos run matches the unsharded
  // path bit for bit. Injectors are declared before (so destroyed after)
  // the mediators they back. Construction is shard-major so the per-shard
  // RNG split order at group == 1 is unchanged from earlier releases.
  std::vector<std::unique_ptr<rt::FaultInjector>> injectors;
  std::vector<std::unique_ptr<core::Mediator>> mediators;
  std::vector<core::Mediator*> mediator_ptrs;  // all, shard-major
  std::vector<core::Mediator*> gateways;       // first of each group
  core::ShardDirectory directory;
  mediators.reserve(shard_count * group);
  for (uint32_t s = 0; s < shard_count; ++s) {
    rt::Runtime* runtime = &shards.shard(s).runtime();
    if (config.fault_plan.enabled()) {
      rt::FaultPlan plan = config.fault_plan;
      plan.seed = util::Rng::StreamSeed(config.fault_plan.seed, s);
      injectors.push_back(std::make_unique<rt::FaultInjector>(runtime, plan));
      runtime = injectors.back().get();
    }
    for (size_t m = 0; m < group; ++m) {
      mediators.push_back(std::make_unique<core::Mediator>(
          runtime, &registry, &reputation, MakeMethod(StampedMethod(config)),
          StampedMediator(config)));
      mediator_ptrs.push_back(mediators.back().get());
      if (m == 0) gateways.push_back(mediators.back().get());
    }
  }
  directory.Refresh(registry);
  if (shard_count > 1) {
    for (uint32_t s = 0; s < shard_count; ++s) {
      for (size_t m = 0; m < group; ++m) {
        // Every group member can delegate cross-shard; incoming traffic
        // lands on the gateway (the list entry for each shard).
        mediator_ptrs[s * group + m]->ConfigureSharding(&shards, s,
                                                        &directory, gateways);
      }
    }
  }
  if (group > 1) {
    // In-shard peer propagation (provider failures reach every group
    // member's in-flight instances), as in the unsharded mediator group.
    for (uint32_t s = 0; s < shard_count; ++s) {
      std::vector<core::Mediator*> in_shard(
          mediator_ptrs.begin() + static_cast<long>(s * group),
          mediator_ptrs.begin() + static_cast<long>((s + 1) * group));
      for (core::Mediator* mediator : in_shard) {
        mediator->SetPeers(in_shard);
      }
    }
  }
  if (config.departure.providers_can_leave ||
      config.departure.consumers_can_leave) {
    for (size_t i = 0; i < mediator_ptrs.size(); ++i) {
      // The gateway sweeps its shard's partition (the single-engine path's
      // "one sweeper" rule, per shard); other group members check only on
      // their own mediation events.
      mediator_ptrs[i]->SetDepartureModel(config.departure,
                                          /*run_sweep=*/i % group == 0);
    }
  }

  // Metrics: one collector with a per-shard observer stream each, sampled
  // at barriers (all workers parked). Shared observers attach directly to
  // the single mediator at shard_count = 1 (classic semantics, bit-equal
  // traces) and through the collector's barrier-replayed cross-shard mux
  // otherwise.
  std::vector<sim::Simulation*> sims;
  for (uint32_t s = 0; s < shard_count; ++s) sims.push_back(&shards.shard(s));
  metrics::Collector collector(sims, &registry, mediator_ptrs,
                               config.sample_interval);
  for (core::MediationObserver* observer : config.observers) {
    if (shard_count == 1) {
      for (core::Mediator* mediator : mediator_ptrs) {
        mediator->AddObserver(observer);
      }
    } else {
      collector.AttachSharedObserver(observer);
    }
  }
  if (config.shard_observer_factory) {
    for (uint32_t s = 0; s < shard_count; ++s) {
      if (core::MediationObserver* observer =
              config.shard_observer_factory(s)) {
        gateways[s]->AddObserver(observer);
      }
    }
  }

  // Workload: one generator per project, each living on its consumer's
  // owning shard with that shard's strided query-id stream.
  std::vector<std::unique_ptr<workload::QueryIdSource>> ids;
  for (uint32_t s = 0; s < shard_count; ++s) {
    ids.push_back(std::make_unique<workload::QueryIdSource>(
        static_cast<model::QueryId>(s) + 1,
        static_cast<model::QueryId>(shard_count)));
  }
  std::vector<std::unique_ptr<workload::QueryGenerator>> generators;
  SBQA_CHECK_EQ(population.projects.size(), config.population.projects.size());
  // With a mediator group per shard, a shard's projects round-robin over
  // its group members (at group == 1 this is the classic one-per-shard
  // assignment, untouched).
  std::vector<size_t> group_cursor(shard_count, 0);
  for (size_t i = 0; i < population.projects.size(); ++i) {
    const boinc::ProjectSpec& project = config.population.projects[i];
    const uint32_t shard = registry.ConsumerShard(population.projects[i]);
    workload::ArrivalParams arrivals;
    arrivals.rate = project.arrival_rate;
    arrivals.end_time = config.duration;
    arrivals.deadline = config.query_deadline;
    core::Mediator* mediator =
        mediator_ptrs[shard * group + group_cursor[shard]++ % group];
    generators.push_back(std::make_unique<workload::QueryGenerator>(
        &shards.shard(shard), mediator, ids[shard].get(),
        population.projects[i], arrivals, project.cost));
    generators.back()->Start();
  }

  // Churn: each volunteer's availability process lives on its owning
  // shard (same volunteer order as the single-engine path within a shard).
  // At shard_count > 1 the toggles become epoch ops of the membership log;
  // at one shard they apply immediately, exactly like the classic engine.
  std::vector<std::vector<model::ProviderId>> churn_slices(shard_count);
  for (model::ProviderId volunteer : population.volunteers) {
    churn_slices[registry.ProviderShard(volunteer)].push_back(volunteer);
  }
  std::vector<std::vector<std::unique_ptr<workload::ChurnProcess>>> churn;
  for (uint32_t s = 0; s < shard_count; ++s) {
    churn.push_back(workload::StartChurn(&shards.shard(s), gateways[s],
                                         churn_slices[s], config.churn));
  }

  // Open-system joins. One shard: the classic single process (immediate
  // mode — same RNG splits, same event order as the single-engine path).
  // Several shards: one process per shard carrying a strided slice of the
  // configured arrival stream (rate / n each; max_joins split by stride),
  // whose arrivals enqueue QueueJoin epoch ops.
  std::vector<std::unique_ptr<boinc::VolunteerJoinProcess>> joins;
  if (config.joins.enabled) {
    for (uint32_t s = 0; s < shard_count; ++s) {
      boinc::VolunteerJoinParams join_params = config.joins;
      if (shard_count > 1) {
        join_params.rate = config.joins.rate / shard_count;
        join_params.max_joins =
            config.joins.max_joins > s
                ? (config.joins.max_joins - s + shard_count - 1) / shard_count
                : 0;
      }
      joins.push_back(std::make_unique<boinc::VolunteerJoinProcess>(
          &shards.shard(s), gateways[s], &reputation, config.population,
          population.projects, join_params, config.churn));
      joins.back()->Start();
    }
  }

  // Membership phase of the barrier sequence (drain mailboxes -> apply
  // membership log -> publish consumer satisfaction -> refresh directory
  // -> resume): the driver applies every queued op through the owning
  // shard's mediator while all workers are parked, then publishes the
  // consumer satisfaction that borrowed queries are scored with on their
  // donor shards. Initial ops (churn's "start offline" draws) are applied
  // right here so the t = 0 population state matches the classic engine.
  RunnerMembership membership(&registry, &shards, gateways, mediator_ptrs,
                              &reputation, config.churn);
  if (shard_count > 1) {
    shards.SetMembershipHook([&registry, &membership](double) {
      registry.AdvanceEpoch(&membership);
      registry.PublishConsumerSatisfaction();
    });
    if (registry.HasPendingMembershipOps()) {
      registry.AdvanceEpoch(&membership);
    }
    directory.Refresh(registry);
  }

  // Barrier hooks (they run after the membership phase): refresh the
  // borrow directory when membership or load changed, flush buffered
  // events to the shared observers, then sample metrics when a sample
  // point has been reached. Hook order matters only for determinism, not
  // correctness — all of them read quiescent state.
  if (shard_count > 1) {
    shards.AddBarrierHook([&directory, &registry](double) {
      directory.RefreshIfChanged(registry);
    });
  }
  if (collector.has_shared_observers()) {
    shards.AddBarrierHook(
        [&collector](double) { collector.FlushSharedObservers(); });
  }
  collector.Snapshot();  // t = 0 baseline, like Collector::Start()
  double next_sample = config.sample_interval;
  const double sample_until = config.duration;
  shards.AddBarrierHook([&collector, &next_sample, sample_until,
                         &config](double now) {
    while (next_sample <= now + 1e-9 && next_sample <= sample_until + 1e-9) {
      collector.Snapshot();
      next_sample += config.sample_interval;
    }
  });

  shards.RunUntil(config.duration);
  // Drain in-flight queries (and cross-shard mailboxes) so satisfaction /
  // response accounting is complete. The horizon covers the full retry
  // budget when re-mediation is on.
  const double drain_horizon = config.duration + QueryLifetimeBound(config);
  shards.RunUntil(drain_horizon);
  collector.FlushSharedObservers();  // settlement-window stragglers

  RunResult result;
  result.summary = collector.Summarize(config.duration);
  AccumulateFaultStats(injectors, &result.summary);
  result.series = collector.series();
  result.consumers = collector.ConsumerSnapshots();
  result.providers = collector.ProviderSnapshots();
  result.membership_epochs = registry.membership_epoch();
  result.membership_ops = registry.membership_ops_applied();
  result.membership_apply_seconds = shards.membership_apply_seconds();
  HarvestDecisionPhases(mediators, &result);
  return result;
}

RunResult RunScenario(const ScenarioConfig& config) {
  SBQA_CHECK_GT(config.duration, 0);
  if (config.sim.shard_count > 1) return RunShardedScenario(config);

  // Substrate.
  sim::SimulationConfig sim_config = config.sim;
  sim_config.seed = config.seed;
  sim::Simulation simulation(sim_config);

  // Population (identical across methods for a fixed seed: the population
  // stream is split off before any method-dependent randomness).
  core::Registry registry;
  util::Rng population_rng = simulation.NewRng();
  const boinc::BuiltPopulation population =
      boinc::BuildPopulation(config.population, &registry, &population_rng);
  if (config.population_hook) {
    config.population_hook(&registry, population, &population_rng);
  }

  model::ReputationRegistry reputation(registry.provider_count());

  // Mediator group with the method under test (each mediator gets its
  // own method instance so per-method state like round-robin cursors stays
  // local, as it would on separate machines).
  const size_t mediator_count = std::max<size_t>(config.mediator_count, 1);
  std::vector<std::unique_ptr<rt::FaultInjector>> injectors;
  std::vector<std::unique_ptr<core::Mediator>> mediators;
  std::vector<core::Mediator*> mediator_ptrs;
  mediators.reserve(mediator_count);
  for (size_t m = 0; m < mediator_count; ++m) {
    rt::Runtime* runtime = &simulation.runtime();
    if (config.fault_plan.enabled()) {
      // Same stream derivation as the sharded path (mediator m == shard m),
      // so mediator_count = 1 uses the root plan seed directly.
      rt::FaultPlan plan = config.fault_plan;
      plan.seed = util::Rng::StreamSeed(config.fault_plan.seed, m);
      injectors.push_back(std::make_unique<rt::FaultInjector>(runtime, plan));
      runtime = injectors.back().get();
    }
    mediators.push_back(std::make_unique<core::Mediator>(
        runtime, &registry, &reputation, MakeMethod(StampedMethod(config)),
        StampedMediator(config)));
    mediator_ptrs.push_back(mediators.back().get());
  }
  for (const auto& mediator : mediators) {
    mediator->SetPeers(mediator_ptrs);
  }
  if (config.departure.providers_can_leave ||
      config.departure.consumers_can_leave) {
    for (size_t m = 0; m < mediators.size(); ++m) {
      // Exactly one mediator runs the periodic sweep; all of them check on
      // their own mediation events.
      mediators[m]->SetDepartureModel(config.departure, /*run_sweep=*/m == 0);
    }
  }

  // Metrics.
  metrics::Collector collector(&simulation, &registry, mediator_ptrs,
                               config.sample_interval);
  for (core::MediationObserver* observer : config.observers) {
    for (const auto& mediator : mediators) {
      mediator->AddObserver(observer);
    }
  }

  // Workload: one generator per project, sharded over the group.
  workload::QueryIdSource ids;
  std::vector<std::unique_ptr<workload::QueryGenerator>> generators;
  SBQA_CHECK_EQ(population.projects.size(), config.population.projects.size());
  for (size_t i = 0; i < population.projects.size(); ++i) {
    const boinc::ProjectSpec& project = config.population.projects[i];
    workload::ArrivalParams arrivals;
    arrivals.rate = project.arrival_rate;
    arrivals.end_time = config.duration;
    arrivals.deadline = config.query_deadline;
    generators.push_back(std::make_unique<workload::QueryGenerator>(
        &simulation, mediator_ptrs[i % mediator_count], &ids,
        population.projects[i], arrivals, project.cost));
    generators.back()->Start();
  }

  // Open-system dynamics (driven through the first mediator; availability
  // and join effects propagate through the shared registry and peers).
  const std::vector<std::unique_ptr<workload::ChurnProcess>> churn =
      workload::StartChurn(&simulation, mediator_ptrs.front(),
                           population.volunteers, config.churn);
  std::unique_ptr<boinc::VolunteerJoinProcess> joins;
  if (config.joins.enabled) {
    boinc::VolunteerJoinParams join_params = config.joins;
    joins = std::make_unique<boinc::VolunteerJoinProcess>(
        &simulation, mediator_ptrs.front(), &reputation, config.population,
        population.projects, join_params, config.churn);
    joins->Start();
  }

  collector.Start(config.duration);
  simulation.RunUntil(config.duration);
  // Drain in-flight queries so satisfaction/response accounting is complete
  // (no new queries are generated past `duration`). The horizon covers the
  // full retry budget when re-mediation is on.
  const double drain_horizon = config.duration + QueryLifetimeBound(config);
  simulation.RunUntil(drain_horizon);

  RunResult result;
  result.summary = collector.Summarize(config.duration);
  AccumulateFaultStats(injectors, &result.summary);
  result.series = collector.series();
  result.consumers = collector.ConsumerSnapshots();
  result.providers = collector.ProviderSnapshots();
  HarvestDecisionPhases(mediators, &result);
  return result;
}

std::vector<RunResult> CompareMethods(const ScenarioConfig& base,
                                      const std::vector<MethodSpec>& methods) {
  std::vector<RunResult> results;
  results.reserve(methods.size());
  for (const MethodSpec& method : methods) {
    ScenarioConfig config = base;
    config.method = method;
    results.push_back(RunScenario(config));
  }
  return results;
}

}  // namespace sbqa::experiments
