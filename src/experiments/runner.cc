#include "experiments/runner.h"

#include <algorithm>
#include <memory>

#include "experiments/assembly.h"
#include "metrics/collector.h"
#include "model/reputation.h"
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

/// Whether a submitted query has not reached its terminal outcome yet.
bool QueriesInFlight(const Assembly& assembly) {
  const core::MediatorStats stats = assembly.stats();
  return stats.queries_finalized < stats.queries_submitted;
}

/// Stamps the run's decision-timing switch (sim.decision_timing) into the
/// method spec.
MethodSpec StampedMethod(const ScenarioConfig& config) {
  MethodSpec spec = config.method;
  spec.sbqa.decision_timing = config.sim.decision_timing;
  return spec;
}

}  // namespace

RunResult RunScenario(const ScenarioConfig& config) {
  SBQA_CHECK_GT(config.duration, 0);
  sim::SimulationConfig sim_config = config.sim;
  sim_config.seed = config.seed;
  sim::ShardSet shards(sim_config);
  const uint32_t shard_count = shards.shard_count();

  // Population: one shared registry, built from shard 0's stream (the
  // population is therefore identical across shard counts and methods),
  // reserved for the join cap too, then partitioned.
  core::Registry registry;
  util::Rng population_rng = shards.shard(0).NewRng();
  const boinc::BuiltPopulation population = boinc::BuildPopulation(
      config.population, &registry, &population_rng,
      config.joins.enabled ? config.joins.max_joins : 0);
  if (config.population_hook) {
    config.population_hook(&registry, population, &population_rng);
  }
  registry.SetShardCount(shard_count);

  model::ReputationRegistry reputation(registry.provider_count());

  // The mediation stack: a mediator group per shard, each shard optionally
  // behind a fault injector. Volunteers joining through the epoch log get
  // their availability churn on the owner shard; its first toggle queues
  // into the NEXT epoch, like every other membership op.
  std::vector<std::unique_ptr<workload::ChurnProcess>> join_churn;
  AssemblyOptions wiring;
  wiring.registry = &registry;
  wiring.reputation = &reputation;
  for (uint32_t s = 0; s < shard_count; ++s) {
    wiring.runtimes.push_back(&shards.shard(s).runtime());
  }
  wiring.fabric = &shards;
  wiring.group = std::max<size_t>(config.mediator_count, 1);
  const MethodSpec method = StampedMethod(config);
  wiring.make_method = [&method] { return MakeMethod(method); };
  wiring.mediator = config.mediator;
  wiring.fault_plan = config.fault_plan;
  wiring.departure = config.departure;
  if (config.churn.enabled) {
    wiring.on_join = [&join_churn, &config](rt::Runtime* runtime,
                                            core::Mediator* gateway,
                                            model::ProviderId provider) {
      join_churn.push_back(std::make_unique<workload::ChurnProcess>(
          runtime, gateway, provider, config.churn));
      join_churn.back()->Start();
    };
  }
  Assembly assembly(std::move(wiring));
  const std::vector<core::Mediator*>& mediators = assembly.mediators();
  const size_t group = assembly.group();

  // Metrics: one collector with an observer stream per mediator. Shared
  // observers attach directly to the mediators of a lone shard and go
  // through the collector's barrier-replayed cross-shard mux otherwise.
  std::vector<sim::Simulation*> sims;
  for (uint32_t s = 0; s < shard_count; ++s) sims.push_back(&shards.shard(s));
  metrics::Collector collector(sims, &registry, mediators,
                               config.sample_interval);
  for (core::MediationObserver* observer : config.observers) {
    if (shard_count == 1) {
      for (core::Mediator* mediator : mediators) {
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
        assembly.gateway(s)->AddObserver(observer);
      }
    }
  }

  // Workload: one generator per project, each living on its consumer's
  // owning shard with that shard's strided query-id stream. A shard's
  // projects round-robin over its mediator group.
  std::vector<std::unique_ptr<workload::QueryIdSource>> ids;
  for (uint32_t s = 0; s < shard_count; ++s) {
    ids.push_back(std::make_unique<workload::QueryIdSource>(
        static_cast<model::QueryId>(s) + 1,
        static_cast<model::QueryId>(shard_count)));
  }
  std::vector<std::unique_ptr<workload::QueryGenerator>> generators;
  SBQA_CHECK_EQ(population.projects.size(), config.population.projects.size());
  std::vector<size_t> group_cursor(shard_count, 0);
  for (size_t i = 0; i < population.projects.size(); ++i) {
    const boinc::ProjectSpec& project = config.population.projects[i];
    const uint32_t shard = registry.ConsumerShard(population.projects[i]);
    workload::ArrivalParams arrivals;
    arrivals.rate = project.arrival_rate;
    arrivals.end_time = config.duration;
    arrivals.deadline = config.query_deadline;
    core::Mediator* mediator =
        mediators[shard * group + group_cursor[shard]++ % group];
    generators.push_back(std::make_unique<workload::QueryGenerator>(
        &shards.shard(shard), mediator, ids[shard].get(),
        population.projects[i], arrivals, project.cost));
    generators.back()->Start();
  }

  // Churn: each volunteer's availability process lives on its owning
  // shard and drives that shard's gateway. With several shards the
  // toggles become epoch ops of the membership log; on a lone shard they
  // apply immediately.
  std::vector<std::vector<model::ProviderId>> churn_slices(shard_count);
  for (model::ProviderId volunteer : population.volunteers) {
    churn_slices[registry.ProviderShard(volunteer)].push_back(volunteer);
  }
  std::vector<std::vector<std::unique_ptr<workload::ChurnProcess>>> churn;
  for (uint32_t s = 0; s < shard_count; ++s) {
    churn.push_back(workload::StartChurn(&shards.shard(s), assembly.gateway(s),
                                         churn_slices[s], config.churn));
  }

  // Open-system joins: one process per shard carrying a strided slice of
  // the configured arrival stream (rate / n each; max_joins split by
  // stride). A lone shard's process is the whole stream.
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
          &shards.shard(s), assembly.gateway(s), &reputation,
          config.population, population.projects, join_params, config.churn));
      joins.back()->Start();
    }
  }

  // Barrier sequence of a multi-shard run: drain mailboxes -> apply the
  // membership log -> publish consumer satisfaction -> refresh the
  // directory -> flush shared observers -> sample metrics -> resume. Every
  // hook reads quiescent state; their order matters only for determinism.
  // A lone shard has no barrier work: the collector samples through
  // scheduled events, and the shard set runs the horizon as one window.
  assembly.InstallBarrierPhases(&shards);
  if (shard_count == 1) {
    collector.Start(config.duration);
  } else {
    if (collector.has_shared_observers()) {
      shards.AddBarrierHook(
          [&collector](double) { collector.FlushSharedObservers(); });
    }
    collector.Snapshot();  // t = 0 baseline
    shards.AddBarrierHook([&collector, &config,
                           next_sample = config.sample_interval](
                              double now) mutable {
      while (next_sample <= now + 1e-9 &&
             next_sample <= config.duration + 1e-9) {
        collector.Snapshot();
        next_sample += config.sample_interval;
      }
    });
  }

  shards.RunUntil(config.duration);
  // Drain in-flight queries (and cross-shard mailboxes) so satisfaction /
  // response accounting is complete. The horizon covers the full retry
  // budget when re-mediation is on.
  const double drain_end = config.duration + QueryLifetimeBound(config);
  shards.RunUntil(drain_end);
  // The bound counts query_timeout from issue, but an attempt's deadline is
  // armed at dispatch, after the submission hop (and any delegation hop),
  // and a borrowed query's outcome still rides home after it. A query
  // still in flight gets more windows, one query_timeout at a time, for up
  // to one more lifetime bound; a run that drained stops here unchanged.
  const double drain_limit = drain_end + QueryLifetimeBound(config);
  while (QueriesInFlight(assembly) && shards.now() < drain_limit) {
    shards.RunUntil(std::min(drain_limit,
                             shards.now() + config.mediator.query_timeout));
  }
  collector.FlushSharedObservers();  // settlement-window stragglers

  RunResult result;
  result.summary = collector.Summarize(config.duration);
  const rt::FaultStats faults = assembly.fault_stats();
  result.summary.fault_sends_dropped = faults.sends_dropped;
  result.summary.fault_sends_delayed = faults.sends_delayed;
  result.summary.fault_sends_crashed = faults.sends_crashed;
  result.series = collector.series();
  result.consumers = collector.ConsumerSnapshots();
  result.providers = collector.ProviderSnapshots();
  result.membership_epochs = registry.membership_epoch();
  result.membership_ops = registry.membership_ops_applied();
  result.membership_apply_seconds = shards.membership_apply_seconds();
  result.decision_phases = assembly.decision_phases();
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
