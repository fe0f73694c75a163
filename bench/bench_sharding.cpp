// Sharded-engine scaling bench.
//
// Part 1 — end-to-end sweep: the full demo workload (three projects,
// captive environment) at 10k and 100k providers, run at 1, 2, 4 and 8
// shards (worker thread per shard). The 1-shard run is the baseline: the
// same RunScenario, which at one shard has no barrier work and runs the
// horizon as one window, so the speedup column is what the extra shards
// buy over a plain single-engine run. Wall-clock speedup requires
// hardware parallelism — the JSON records host_cores, compiler and build
// type, and the regression gate (scripts/check_bench_regression.py --mode
// sharding) only enforces the 4-shard >= 2x bar on hosts with >= 4 cores.
//
// Part 2 — steady-state allocations: a controlled pump harness (the
// sharded analogue of bench_event_engine's) drives queries through a
// 4-shard set after a warm-up that grows every per-shard pool to its
// high-water mark, then asserts the steady-state mediation path performs
// zero heap allocations per query across all shards (the process-global
// counting allocator sees every shard thread). Measured twice: a quiet
// population, and one under periodic availability churn flowing through
// the epoch-based membership log — the elastic-membership gate requires
// churn to stay allocation-free too.
//
// Part 3 — churn + joins turnover sweep: the demo workload with ~10% of
// the population cycling offline and ~10% joining at runtime over the
// run, through the barrier-applied membership protocol at 4 shards.
// Reports the epoch-apply cost (driver wall-clock inside the membership
// phase) as a share of total wall time; the regression gate bounds it at
// 5%.
//
// Env knobs: SBQA_BENCH_MAX_PROVIDERS trims the sweep list (CI smoke),
// SBQA_BENCH_DURATION overrides the simulated seconds per run,
// SBQA_BENCH_SEED the root seed, SBQA_BENCH_JSON the output path.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include <memory>
#include <utility>

#include "core/mediator.h"
#include "core/registry.h"
#include "core/sbqa.h"
#include "experiments/assembly.h"
#include "experiments/demo_scenarios.h"
#include "experiments/runner.h"
#include "model/reputation.h"
#include "sim/shard_set.h"

#include "util/counting_alloc.h"

namespace sbqa::bench {
namespace {

using util::AllocationCount;

struct SweepRow {
  uint32_t shards = 0;
  double wall_ms = 0;
  int64_t queries_finalized = 0;
  int64_t queries_delegated = 0;
  double ns_per_query = 0;
  double speedup_vs_1 = 0;
};

struct Sweep {
  size_t providers = 0;
  std::vector<SweepRow> rows;
};

experiments::ScenarioConfig SweepConfig(size_t providers, uint32_t shards,
                                        uint64_t seed, double duration) {
  // BaseDemoConfig at the requested scale, offered load held constant per
  // provider (same rescale rule as ApplyEnv).
  experiments::ScenarioConfig config =
      experiments::BaseDemoConfig(seed, /*volunteers=*/200, duration);
  const double ratio = static_cast<double>(providers) / 200.0;
  config.population.volunteers.count = providers;
  for (auto& project : config.population.projects) {
    project.arrival_rate *= ratio;
  }
  // Short timeout: bounds the post-run drain horizon (the sweep measures
  // mediation throughput, not timer span).
  config.mediator.query_timeout = 60.0;
  config.sim.shard_count = shards;
  config.sim.shard_use_threads = true;
  // Coarser barrier than the default: the demo workload barely uses the
  // cross-shard mailbox, so trading borrow-hop latency for 4x fewer
  // barrier synchronizations is free throughput.
  config.sim.shard_barrier_tick = 0.02;
  return config;
}

Sweep RunSweep(size_t providers, uint64_t seed, double duration) {
  Sweep sweep;
  sweep.providers = providers;
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    // Best of two: the speedup column feeds a CI gate, and one scheduler
    // hiccup on a shared runner must not read as a scaling regression.
    double wall_ms = 0;
    experiments::RunResult result;
    for (int attempt = 0; attempt < 2; ++attempt) {
      const auto start = std::chrono::steady_clock::now();
      result = experiments::RunScenario(
          SweepConfig(providers, shards, seed, duration));
      const double attempt_ms =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count() /
          1000.0;
      wall_ms = attempt == 0 ? attempt_ms : std::min(wall_ms, attempt_ms);
    }

    SweepRow row;
    row.shards = shards;
    row.wall_ms = wall_ms;
    row.queries_finalized = result.summary.queries_finalized;
    row.queries_delegated = result.summary.queries_delegated;
    row.ns_per_query =
        result.summary.queries_finalized > 0
            ? wall_ms * 1e6 /
                  static_cast<double>(result.summary.queries_finalized)
            : 0;
    row.speedup_vs_1 =
        sweep.rows.empty() ? 1.0 : sweep.rows.front().wall_ms / wall_ms;
    sweep.rows.push_back(row);

    std::printf(
        "  %6zu providers | %u shard%s | %9.1f ms | %7lld queries | "
        "%8.0f ns/query | speedup %.2fx | delegated %lld\n",
        providers, shards, shards == 1 ? " " : "s", wall_ms,
        static_cast<long long>(row.queries_finalized), row.ns_per_query,
        row.speedup_vs_1, static_cast<long long>(row.queries_delegated));
  }
  return sweep;
}

// --- Part 2: steady-state allocations across a sharded set ------------------

struct AllocRow {
  double per_query_warmup = 0;
  double per_query_steady_state = 0;  ///< the gate requires exactly 0
  uint32_t shards = 0;
};

/// Controlled pump: a 4-shard set, one SbQA mediator per shard over a
/// partitioned registry (wired by experiments::Assembly, like every run),
/// queries submitted round-robin across the shards' gateways.
/// With `churn`, a deterministic periodic availability rotation flows
/// through the membership log (one provider offline, one back online
/// every third pump step) — the steady state must remain allocation-free
/// under it.
AllocRow MeasureShardedAllocations(uint32_t shard_count, size_t providers,
                                   bool churn) {
  sim::SimulationConfig sim_config;
  sim_config.seed = 42;
  sim_config.shard_count = shard_count;
  // Serial windows: the counting allocator is process-global either way,
  // but serial keeps the warm/steady split exact and scheduler-noise-free.
  sim_config.shard_use_threads = false;
  sim::ShardSet shards(sim_config);

  core::Registry registry;
  util::Rng setup(7);
  core::ConsumerParams consumer_params;
  consumer_params.n_results = 3;
  for (uint32_t s = 0; s < shard_count; ++s) {
    registry.AddConsumer(consumer_params);
  }
  for (size_t i = 0; i < providers; ++i) {
    core::ProviderParams params;
    params.capacity = setup.Uniform(0.5, 2.0);
    const model::ProviderId id = registry.AddProvider(params);
    for (uint32_t c = 0; c < shard_count; ++c) {
      registry.provider(id).preferences().Set(static_cast<int32_t>(c),
                                              setup.Uniform(-1, 1));
      registry.consumer(static_cast<model::ConsumerId>(c))
          .preferences()
          .Set(id, setup.Uniform(-1, 1));
    }
  }
  registry.SetShardCount(shard_count);

  model::ReputationRegistry reputation(registry.provider_count());
  core::SbqaParams sbqa_params;
  sbqa_params.knbest = core::KnBestParams{20, 8};
  experiments::AssemblyOptions wiring;
  wiring.registry = &registry;
  wiring.reputation = &reputation;
  for (uint32_t s = 0; s < shard_count; ++s) {
    wiring.runtimes.push_back(&shards.shard(s).runtime());
  }
  wiring.fabric = &shards;
  wiring.make_method = [sbqa_params] {
    return std::make_unique<core::SbqaMethod>(sbqa_params);
  };
  experiments::Assembly assembly(std::move(wiring));
  assembly.InstallBarrierPhases(&shards);
  const auto owner = [&](model::ProviderId p) {
    return assembly.gateway(registry.ProviderShard(p));
  };

  model::QueryId next_id = 0;
  double horizon = 0;
  int step = 0;
  const size_t block = providers / shard_count;
  const auto pump = [&](int queries_per_shard) {
    for (int i = 0; i < queries_per_shard; ++i, ++step) {
      for (uint32_t s = 0; s < shard_count; ++s) {
        model::Query query;
        query.id = ++next_id;
        query.consumer = static_cast<model::ConsumerId>(s);
        query.n_results = 3;
        query.cost = 0.5;
        assembly.gateway(s)->SubmitQuery(query);
      }
      if (churn && step % 3 == 0) {
        // Periodic rotation over the first ten ids of one shard's block:
        // deterministic, bounded offline set, pool never dry (the borrow
        // fallback would allocate). j is a per-shard rotation counter,
        // decoupled from the shard choice — deriving the local index
        // from k directly would lock its residue to the shard's and make
        // the victim/revival sets disjoint (no real flips after warmup).
        const int k = step / 3;
        const int j = k / static_cast<int>(shard_count);
        const auto base = static_cast<model::ProviderId>(
            static_cast<size_t>(k % shard_count) * block);
        const auto victim = static_cast<model::ProviderId>(base + j % 10);
        const auto revived =
            static_cast<model::ProviderId>(base + (j + 5) % 10);
        owner(victim)->SetProviderAvailability(victim, false);
        owner(revived)->SetProviderAvailability(revived, true);
      }
      horizon += 0.05;
      shards.RunUntil(horizon);
    }
    horizon += 700.0;  // drain: results, timeout sweeps, ring reset
    shards.RunUntil(horizon);
  };

  // Burst pre-warm: push the in-flight pool / timeout ring past any
  // concurrency the measured phases reach, so high-water growth cannot
  // masquerade as a steady-state allocation.
  for (int burst = 0; burst < 200; ++burst) {
    for (uint32_t s = 0; s < shard_count; ++s) {
      model::Query query;
      query.id = ++next_id;
      query.consumer = static_cast<model::ConsumerId>(s);
      query.n_results = 3;
      query.cost = 0.5;
      assembly.gateway(s)->SubmitQuery(query);
    }
  }
  horizon += 700.0;
  shards.RunUntil(horizon);

  AllocRow row;
  row.shards = shard_count;
  const uint64_t warm_allocs = AllocationCount();
  pump(400);
  row.per_query_warmup = static_cast<double>(AllocationCount() - warm_allocs) /
                         (400.0 * shard_count);
  const uint64_t steady_allocs = AllocationCount();
  pump(150);
  row.per_query_steady_state =
      static_cast<double>(AllocationCount() - steady_allocs) /
      (150.0 * shard_count);
  return row;
}

// --- Part 3: churn + joins turnover through the membership protocol ---------

struct TurnoverRow {
  size_t providers = 0;
  uint32_t shards = 0;
  double wall_ms = 0;
  int64_t queries_finalized = 0;
  int64_t provider_joins = 0;
  int64_t offline_events = 0;
  int64_t provider_departures = 0;
  uint64_t membership_epochs = 0;
  uint64_t membership_ops = 0;
  double epoch_apply_ms = 0;
  double epoch_apply_share = 0;  ///< the gate requires < 0.05
  double ns_per_query = 0;
};

/// The full dynamic scenario: ~10% of the population cycles through an
/// offline spell and ~10% joins at runtime, all barrier-applied.
TurnoverRow RunTurnover(size_t providers, uint32_t shards, uint64_t seed,
                        double duration) {
  experiments::ScenarioConfig config =
      SweepConfig(providers, shards, seed, duration);
  config.churn.enabled = true;
  // One offline spell per ~10 run-lengths of online time => ~10% of the
  // population experiences an outage during the run; outages last ~2% of
  // the run each.
  config.churn.mean_online = 10.0 * duration;
  config.churn.mean_offline = duration / 50.0;
  config.churn.initial_online_fraction = 1.0;
  config.joins.enabled = true;
  config.joins.max_joins = providers / 10;
  config.joins.rate =
      static_cast<double>(config.joins.max_joins) / duration;

  const auto start = std::chrono::steady_clock::now();
  const experiments::RunResult result = experiments::RunScenario(config);
  const double wall_ms =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count() /
      1000.0;

  TurnoverRow row;
  row.providers = providers;
  row.shards = shards;
  row.wall_ms = wall_ms;
  row.queries_finalized = result.summary.queries_finalized;
  row.provider_joins = result.summary.provider_joins;
  row.offline_events = result.summary.provider_offline_events;
  row.provider_departures = result.summary.provider_departures;
  row.membership_epochs = result.membership_epochs;
  row.membership_ops = result.membership_ops;
  row.epoch_apply_ms = result.membership_apply_seconds * 1000.0;
  row.epoch_apply_share = wall_ms > 0 ? row.epoch_apply_ms / wall_ms : 0;
  row.ns_per_query =
      result.summary.queries_finalized > 0
          ? wall_ms * 1e6 /
                static_cast<double>(result.summary.queries_finalized)
          : 0;
  return row;
}

}  // namespace
}  // namespace sbqa::bench

int main() {
  using namespace sbqa;
  using namespace sbqa::bench;

  const uint64_t seed = EnvOr("SBQA_BENCH_SEED", 42);
  const double duration =
      static_cast<double>(EnvOr("SBQA_BENCH_DURATION", 30));
  const size_t max_providers =
      static_cast<size_t>(EnvOr("SBQA_BENCH_MAX_PROVIDERS", 100000));
  const unsigned host_cores = std::thread::hardware_concurrency();

  PrintHeader("Sharded multi-core mediation",
              "Per-shard schedulers + partitioned candidate index + "
              "deterministic cross-shard mailbox: end-to-end scaling 1 -> 8 "
              "shards and steady-state allocation audit.");
  std::printf("host cores: %u (wall-clock speedup needs hardware "
              "parallelism); %s, %s build\n\n",
              host_cores, CompilerName().c_str(), BuildType());

  std::vector<Sweep> sweeps;
  for (size_t providers : {size_t{10000}, size_t{100000}}) {
    if (providers > max_providers) continue;
    std::printf("%zu-provider sweep (duration %.0fs, seed %llu):\n",
                providers, duration, static_cast<unsigned long long>(seed));
    sweeps.push_back(RunSweep(providers, seed, duration));
    std::printf("\n");
  }

  const size_t alloc_providers = std::min<size_t>(10000, max_providers);
  std::printf("steady-state allocation audit (4 shards, %zu providers):\n",
              alloc_providers);
  const AllocRow allocs =
      MeasureShardedAllocations(4, alloc_providers, /*churn=*/false);
  std::printf("  quiet: warmup %.3f allocs/query, steady state %.3f "
              "allocs/query\n",
              allocs.per_query_warmup, allocs.per_query_steady_state);
  const AllocRow churn_allocs =
      MeasureShardedAllocations(4, alloc_providers, /*churn=*/true);
  std::printf("  churn: warmup %.3f allocs/query, steady state %.3f "
              "allocs/query\n\n",
              churn_allocs.per_query_warmup,
              churn_allocs.per_query_steady_state);

  const size_t turnover_providers = std::min<size_t>(10000, max_providers);
  std::printf("churn + joins turnover sweep (10%% population turnover, "
              "%zu providers, 4 shards):\n",
              turnover_providers);
  const TurnoverRow turnover =
      RunTurnover(turnover_providers, 4, seed, duration);
  std::printf(
      "  %9.1f ms | %7lld queries | %8.0f ns/query | %lld joins | "
      "%lld offline | %llu epochs (%llu ops) | epoch apply %.2f ms "
      "(%.2f%% of wall)\n\n",
      turnover.wall_ms, static_cast<long long>(turnover.queries_finalized),
      turnover.ns_per_query, static_cast<long long>(turnover.provider_joins),
      static_cast<long long>(turnover.offline_events),
      static_cast<unsigned long long>(turnover.membership_epochs),
      static_cast<unsigned long long>(turnover.membership_ops),
      turnover.epoch_apply_ms, 100.0 * turnover.epoch_apply_share);

  JsonWriter json(BenchJsonPath("sharding"));
  if (!json.ok()) return 0;
  json.BeginObject();
  json.Field("bench", "sharding");
  json.Field("host_cores", static_cast<uint64_t>(host_cores));
  json.Field("compiler", CompilerName());
  json.Field("build_type", BuildType());
  json.Field("seed", seed);
  json.Field("duration_s", duration, 1);
  json.BeginArray("sweeps");
  for (const Sweep& sweep : sweeps) {
    json.BeginObject();
    json.Field("providers", static_cast<uint64_t>(sweep.providers));
    json.BeginArray("runs");
    for (const SweepRow& row : sweep.rows) {
      json.BeginObject();
      json.Field("shards", row.shards);
      json.Field("wall_ms", row.wall_ms, 1);
      json.Field("queries_finalized", row.queries_finalized);
      json.Field("queries_delegated", row.queries_delegated);
      json.Field("ns_per_query", row.ns_per_query, 0);
      json.Field("speedup_vs_1", row.speedup_vs_1, 3);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.BeginObject("allocations");
  json.Field("shards", allocs.shards);
  json.Field("per_query_warmup", allocs.per_query_warmup, 3);
  json.Field("per_query_steady_state", allocs.per_query_steady_state, 3);
  json.EndObject();
  json.BeginObject("allocations_churn");
  json.Field("shards", churn_allocs.shards);
  json.Field("per_query_warmup", churn_allocs.per_query_warmup, 3);
  json.Field("per_query_steady_state", churn_allocs.per_query_steady_state,
             3);
  json.EndObject();
  json.BeginObject("turnover");
  json.Field("providers", static_cast<uint64_t>(turnover.providers));
  json.Field("shards", turnover.shards);
  json.Field("wall_ms", turnover.wall_ms, 1);
  json.Field("queries_finalized", turnover.queries_finalized);
  json.Field("ns_per_query", turnover.ns_per_query, 0);
  json.Field("provider_joins", turnover.provider_joins);
  json.Field("offline_events", turnover.offline_events);
  json.Field("provider_departures", turnover.provider_departures);
  json.Field("membership_epochs",
             static_cast<uint64_t>(turnover.membership_epochs));
  json.Field("membership_ops",
             static_cast<uint64_t>(turnover.membership_ops));
  json.Field("epoch_apply_ms", turnover.epoch_apply_ms, 3);
  json.Field("epoch_apply_share", turnover.epoch_apply_share, 5);
  json.EndObject();
  json.EndObject();
  return 0;
}
