/// \file
/// Chaos bench: the hardened query lifecycle under a deterministic fault
/// plane. Three parts, one BENCH_chaos.json:
///
///   1. Fault-rate sweep. The demo scenario with the retry/deadline
///      machinery on, swept over dropped-dispatch probabilities
///      0% -> 20%. Reports goodput (queries that produced results —
///      satisfied on the first attempt or recovered by re-mediation),
///      tail latency (p99), and wall-clock cost per good query. Every
///      row also checks terminal completeness: submitted == finalized,
///      i.e. no query leaks even while the network eats dispatches.
///   2. Retry-ladder allocation audit. A 100%-drop plane forces every
///      query through the full backoff ladder to terminal failure; after
///      warmup the whole timeout -> abandon -> backoff -> re-mediate
///      cycle must run out of pooled state (0 allocs/query).
///   3. Shed-path allocation audit. An engine with a single admission
///      slot sheds everything else synchronously; the reject path must
///      also be allocation-free once warm.
///
/// The CI gate (scripts/check_bench_regression.py --mode chaos) enforces
/// zero steady-state allocations on both audit parts and bounds the
/// 5%-fault cost per good query at 2x the fault-free baseline — faults
/// are allowed to cost retries, not to collapse mediation throughput.
///
/// Scale knobs: SBQA_BENCH_VOLUNTEERS, SBQA_BENCH_DURATION,
/// SBQA_BENCH_SEED, SBQA_BENCH_JSON (see bench_common.h).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/mediator.h"
#include "core/sbqa.h"
#include "engine/engine.h"
#include "model/reputation.h"
#include "runtime/fault.h"
#include "sim/simulation.h"
#include "util/counting_alloc.h"

namespace sbqa::bench {
namespace {

// --- Part 1: goodput + tail latency vs dispatch-drop rate -------------------

struct SweepRow {
  double drop_prob = 0;
  double wall_ms = 0;
  int64_t queries_submitted = 0;
  int64_t queries_finalized = 0;
  int64_t good_queries = 0;  ///< satisfied + recovered (>= 1 result)
  double goodput_fraction = 0;
  double p99_response_time = 0;
  double ns_per_good_query = 0;
  int64_t retry_attempts = 0;
  int64_t queries_recovered = 0;
  int64_t queries_timed_out = 0;
  int64_t queries_failed = 0;
  int64_t queries_unallocated = 0;
  int64_t providers_suspected = 0;
  int64_t fault_sends_dropped = 0;
  bool all_terminal = false;  ///< the gate requires true on every row
};

experiments::ScenarioConfig ChaosSweepConfig(uint64_t seed, double duration,
                                             double drop_prob) {
  experiments::ScenarioConfig config =
      ApplyEnv(experiments::BaseDemoConfig(seed, 200, duration));
  config.method.kind = experiments::MethodKind::kSbqa;
  // Half the demo arrival rate: the stock workload saturates capacity, and
  // a saturated sweep measures congestion, not faults (dropping dispatches
  // *relieves* an overloaded system). Headroom makes the fault response
  // the signal.
  for (auto& project : config.population.projects) {
    project.arrival_rate *= 0.5;
  }
  // The hardened lifecycle under test: bounded attempts, capped backoff,
  // alternate-provider re-mediation, and health suspensions. The timeout
  // sits above the workload's natural service tail so the fault-free
  // baseline is healthy (a timeout that bites legitimate slow queries
  // measures the knob, not the faults) and the detector threshold only
  // trips on genuine streaks.
  config.query_deadline = 45.0;
  config.mediator.query_timeout = 15.0;
  config.mediator.max_retries = 2;
  config.mediator.failure_threshold = 5;
  config.mediator.probe_delay = 10.0;
  config.fault_plan.seed = seed;
  config.fault_plan.drop_send_prob = drop_prob;
  return config;
}

SweepRow RunSweepPoint(uint64_t seed, double duration, double drop_prob) {
  const experiments::ScenarioConfig config =
      ChaosSweepConfig(seed, duration, drop_prob);
  // Best of two: the per-good-query cost feeds a CI ratio gate, and one
  // scheduler hiccup on a shared runner must not read as a regression.
  double wall_ms = 0;
  experiments::RunResult result;
  for (int attempt = 0; attempt < 2; ++attempt) {
    const auto start = std::chrono::steady_clock::now();
    result = experiments::RunScenario(config);
    const double attempt_ms =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count() /
        1000.0;
    wall_ms = attempt == 0 ? attempt_ms : std::min(wall_ms, attempt_ms);
  }
  const metrics::RunSummary& s = result.summary;

  SweepRow row;
  row.drop_prob = drop_prob;
  row.wall_ms = wall_ms;
  row.queries_submitted = s.queries_submitted;
  row.queries_finalized = s.queries_finalized;
  row.good_queries = s.queries_satisfied + s.queries_recovered;
  row.goodput_fraction =
      s.queries_finalized > 0
          ? static_cast<double>(row.good_queries) /
                static_cast<double>(s.queries_finalized)
          : 0;
  row.p99_response_time = s.p99_response_time;
  row.ns_per_good_query =
      row.good_queries > 0
          ? wall_ms * 1e6 / static_cast<double>(row.good_queries)
          : 0;
  row.retry_attempts = s.retry_attempts;
  row.queries_recovered = s.queries_recovered;
  row.queries_timed_out = s.queries_timed_out;
  row.queries_failed = s.queries_failed;
  row.queries_unallocated = s.queries_unallocated;
  row.providers_suspected = s.providers_suspected;
  row.fault_sends_dropped = s.fault_sends_dropped;
  row.all_terminal = s.queries_submitted > 0 &&
                     s.queries_submitted == s.queries_finalized &&
                     s.queries_satisfied + s.queries_recovered +
                             s.queries_timed_out + s.queries_failed +
                             s.queries_unallocated ==
                         s.queries_finalized;
  return row;
}

// --- Parts 2 + 3: allocation audits on the faulted paths --------------------

struct AllocRow {
  double retry_per_query_steady_state = 0;  ///< the gate requires exactly 0
  double shed_per_query_steady_state = 0;   ///< the gate requires exactly 0
  int64_t retry_attempts = 0;
  int64_t sheds = 0;
};

/// A two-provider system behind a 100%-drop fault plane: every dispatch
/// vanishes, so every query climbs the full ladder (attempt, timeout,
/// abandon, backoff, re-mediate on the untried provider, timeout again,
/// budget exhausted, terminal failure). Warm batch then measured batch of
/// identical shape, mirroring the chaos test suite's audit.
double MeasureRetryAllocations(int64_t* retry_attempts) {
  sim::SimulationConfig sim_config;
  sim_config.seed = 1;
  sim_config.latency_sigma = 0;
  sim::Simulation simulation(sim_config);
  rt::FaultPlan plan;
  plan.drop_send_prob = 1.0;
  rt::FaultInjector injector(&simulation.runtime(), plan);

  core::Registry registry;
  core::ConsumerParams consumer_params;
  consumer_params.policy_kind = model::ConsumerPolicyKind::kPreferenceOnly;
  consumer_params.n_results = 1;
  const model::ConsumerId consumer = registry.AddConsumer(consumer_params);
  for (int i = 0; i < 2; ++i) {
    core::ProviderParams params;
    params.capacity = 1.0;
    params.policy_kind = model::ProviderPolicyKind::kPreferenceOnly;
    registry.AddProvider(params);
  }
  model::ReputationRegistry reputation(registry.provider_count());

  core::MediatorConfig config;
  config.simulate_network = true;  // faults ride destination sends
  config.query_timeout = 0.5;
  config.max_retries = 2;
  core::Mediator mediator(&injector, &registry, &reputation,
                          std::make_unique<core::SbqaMethod>(core::SbqaParams{}),
                          config);

  constexpr int kBatch = 100;
  model::QueryId next_id = 1;
  const auto run_batch = [&] {
    for (int i = 0; i < kBatch; ++i) {
      model::Query query;
      query.id = next_id++;
      query.consumer = consumer;
      query.n_results = 1;
      query.cost = 2.0;
      mediator.SubmitQuery(query);
    }
    simulation.RunUntil(simulation.now() + 10.0);
  };

  run_batch();  // warm every pool (slots, ring, tried lists, scheduler)
  const uint64_t before = util::AllocationCount();
  const int64_t retries_before = mediator.stats().retry_attempts;
  run_batch();
  *retry_attempts = mediator.stats().retry_attempts - retries_before;
  return static_cast<double>(util::AllocationCount() - before) /
         static_cast<double>(kBatch);
}

/// A single admission slot: one query occupies it, everything after is
/// shed synchronously at Submit. Measured after a warm shed burst so the
/// reject path's pools are already sized.
double MeasureShedAllocations(int64_t* sheds) {
  EngineOptions options;
  options.mode = EngineMode::kSimulated;
  options.seed = 4;
  options.simulate_network = false;
  options.max_pending = 1;
  Engine engine(std::move(options));

  ConsumerOptions consumer_options;
  consumer_options.n_results = 1;
  const model::ConsumerId consumer = engine.AddConsumer(consumer_options);
  ProviderOptions provider_options;
  provider_options.capacity = 1.0;
  const model::ProviderId provider = engine.AddProvider(provider_options);
  engine.SetConsumerPreference(consumer, provider, 1.0);
  engine.SetProviderPreference(provider, consumer, 1.0);
  engine.Start();

  QueryRequest request;
  request.consumer = consumer;
  request.n_results = 1;
  request.cost = 0.5;
  int64_t shed = 0;
  const auto counter = [&shed](const QueryResult& r) {
    if (r.shed) ++shed;
  };

  engine.Submit(request, OutcomeCallback(counter));  // fill the slot
  for (int i = 0; i < 50; ++i) {
    engine.Submit(request, OutcomeCallback(counter));  // warm the shed path
  }

  constexpr int kMeasured = 500;
  const uint64_t before = util::AllocationCount();
  for (int i = 0; i < kMeasured; ++i) {
    engine.Submit(request, OutcomeCallback(counter));
  }
  const uint64_t delta = util::AllocationCount() - before;
  engine.WaitIdle(60.0);
  engine.Stop();
  *sheds = shed;
  return static_cast<double>(delta) / static_cast<double>(kMeasured);
}

}  // namespace
}  // namespace sbqa::bench

int main() {
  using namespace sbqa;
  using namespace sbqa::bench;

  const uint64_t seed = EnvOr("SBQA_BENCH_SEED", 42);
  const double duration =
      static_cast<double>(EnvOr("SBQA_BENCH_DURATION", 600));

  PrintHeader("Fault plane + hardened query lifecycle",
              "Deterministic fault injection vs goodput and tail latency, "
              "plus allocation audits of the retry and shed paths.");

  std::printf("fault-rate sweep (seed %llu, duration %.0fs, deadline 45s, "
              "2 retries):\n",
              static_cast<unsigned long long>(seed), duration);
  std::vector<SweepRow> sweep;
  for (double drop : {0.0, 0.05, 0.10, 0.20}) {
    sweep.push_back(RunSweepPoint(seed, duration, drop));
    const SweepRow& row = sweep.back();
    std::printf(
        "  drop %4.0f%% | %9.1f ms | %6lld/%6lld good (%5.1f%%) | "
        "p99 %6.2fs | %8.0f ns/good | %5lld retries | %4lld recovered | "
        "%4lld dropped sends | terminal %s\n",
        100.0 * row.drop_prob, row.wall_ms,
        static_cast<long long>(row.good_queries),
        static_cast<long long>(row.queries_finalized),
        100.0 * row.goodput_fraction, row.p99_response_time,
        row.ns_per_good_query, static_cast<long long>(row.retry_attempts),
        static_cast<long long>(row.queries_recovered),
        static_cast<long long>(row.fault_sends_dropped),
        row.all_terminal ? "yes" : "NO");
  }

  std::printf("\nallocation audits (steady state, per query):\n");
  AllocRow allocs;
  allocs.retry_per_query_steady_state =
      MeasureRetryAllocations(&allocs.retry_attempts);
  std::printf("  retry ladder (100%% drop, full backoff to failure): "
              "%.3f allocs/query over %lld retries\n",
              allocs.retry_per_query_steady_state,
              static_cast<long long>(allocs.retry_attempts));
  allocs.shed_per_query_steady_state = MeasureShedAllocations(&allocs.sheds);
  std::printf("  shed path (single admission slot): %.3f allocs/query "
              "over %lld sheds\n",
              allocs.shed_per_query_steady_state,
              static_cast<long long>(allocs.sheds));

  JsonWriter json(BenchJsonPath("chaos"));
  if (!json.ok()) return 0;
  json.BeginObject();
  json.Field("bench", "chaos");
  json.Field("host_cores",
             static_cast<uint64_t>(std::thread::hardware_concurrency()));
  json.Field("compiler", CompilerName());
  json.Field("build_type", BuildType());
  json.Field("seed", seed);
  json.Field("duration_s", duration, 1);
  json.BeginArray("sweep");
  for (const SweepRow& row : sweep) {
    json.BeginObject();
    json.Field("drop_prob", row.drop_prob, 3);
    json.Field("wall_ms", row.wall_ms, 1);
    json.Field("queries_submitted", row.queries_submitted);
    json.Field("queries_finalized", row.queries_finalized);
    json.Field("good_queries", row.good_queries);
    json.Field("goodput_fraction", row.goodput_fraction, 4);
    json.Field("p99_response_time_s", row.p99_response_time, 4);
    json.Field("ns_per_good_query", row.ns_per_good_query, 0);
    json.Field("retry_attempts", row.retry_attempts);
    json.Field("queries_recovered", row.queries_recovered);
    json.Field("queries_timed_out", row.queries_timed_out);
    json.Field("queries_failed", row.queries_failed);
    json.Field("queries_unallocated", row.queries_unallocated);
    json.Field("providers_suspected", row.providers_suspected);
    json.Field("fault_sends_dropped", row.fault_sends_dropped);
    json.Field("all_terminal", row.all_terminal ? "true" : "false");
    json.EndObject();
  }
  json.EndArray();
  json.BeginObject("allocations");
  json.Field("retry_per_query_steady_state",
             allocs.retry_per_query_steady_state, 3);
  json.Field("retry_attempts", allocs.retry_attempts);
  json.Field("shed_per_query_steady_state",
             allocs.shed_per_query_steady_state, 3);
  json.Field("sheds", allocs.sheds);
  json.EndObject();
  json.EndObject();
  return 0;
}
