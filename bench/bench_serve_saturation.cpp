/// \file
/// Serving saturation bench: the thread-per-shard wall-clock engine under
/// open-loop load, swept over shard counts. One BENCH_serve.json.
///
/// Per shard count (1 -> SBQA_BENCH_MAX_SHARDS, powers of two) the bench
/// builds one population (fixed providers/consumers, so rows are directly
/// comparable), starts the engine on that many worker threads, and
/// saturates it: the driver thread submits as fast as the per-shard
/// admission doors accept, with `max_pending` bounding in-flight queries
/// and the reject-newest shed path absorbing the overflow — the open-loop
/// pattern of a frontend that does not pace itself to the backend.
///
/// Two segments per row, separated by a full drain so the allocation
/// boundary is exact: a warm-up segment sizes every pool (tickets, timer
/// cores, in-flight slots, outbox channels), then the measured segment
/// counts wall time, completed queries and heap allocations. The gate
/// (scripts/check_bench_regression.py --mode serve) requires 0
/// allocations/query on every row and, on hosts with >= 4 cores, a >= 2x
/// 4-shard throughput speedup over 1 shard; the JSON records host_cores
/// so a single-core runner only enforces the allocation and completeness
/// gates.
///
/// A second, shorter sweep ("skew_sweep" in the JSON) repeats the 1- and
/// max-shard rows with one hot consumer taking 50% of submissions: the
/// hot consumer's home shard is the bottleneck by construction, so no
/// speedup is gated there — only that the steady-state guarantees (0
/// allocations/query, every accepted query finalized) survive imbalance.
///
/// Scale knobs: SBQA_BENCH_QUERIES (measured queries per row),
/// SBQA_BENCH_MAX_SHARDS, SBQA_BENCH_SEED, SBQA_BENCH_JSON.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "engine/engine.h"
#include "util/counting_alloc.h"

namespace sbqa::bench {
namespace {

constexpr int kProviders = 32;
constexpr int kConsumers = 8;

struct ServeRow {
  uint32_t shards = 0;
  int64_t queries = 0;            ///< accepted (non-shed) measured queries
  int64_t queries_finalized = 0;  ///< outcomes delivered for them
  int64_t shed = 0;               ///< rejected at the admission door
  double wall_ms = 0;
  double qps = 0;
  double ns_per_query = 0;
  double allocs_per_query = 0;
  int64_t barriers = 0;
  int64_t early_barriers = 0;
  int64_t delegated = 0;
  int64_t borrowed = 0;
};

/// Saturates `engine` with `target` accepted queries and returns once
/// every outcome callback ran. Returns false if the traffic failed to
/// drain inside the budget. `skew` routes every other query to
/// consumers[0] (one hot consumer at 50% of traffic, the rest round-robin)
/// instead of uniform round-robin.
bool Blast(Engine* engine, const std::vector<model::ConsumerId>& consumers,
           int64_t target, bool skew, std::atomic<int64_t>* delivered,
           int64_t* shed) {
  QueryRequest request;
  request.n_results = 2;
  // ~1 us of virtual provider work: the 32 providers' aggregate capacity
  // (46 work units/s) serves ~23M queries/s at n = 2, at least 10x any
  // rate the engine reaches, so the bench measures the engine's software
  // path rather than the simulated providers (perfbench sizes its serving
  // workload the same way).
  request.cost = 1e-6;
  int64_t accepted = 0;
  int64_t rejected = 0;
  const int64_t delivered_start =
      delivered->load(std::memory_order_relaxed);
  while (accepted < target) {
    const size_t a = static_cast<size_t>(accepted);
    const size_t pick =
        skew ? (a % 2 == 0 ? 0 : 1 + (a / 2) % (consumers.size() - 1))
             : a % consumers.size();
    request.consumer = consumers[pick];
    if (engine->Submit(request, [delivered](const QueryResult& r) {
          if (!r.shed) delivered->fetch_add(1, std::memory_order_relaxed);
        }) != 0) {
      ++accepted;
    } else {
      // Admission door full: the backend is saturated. Yield the core so
      // the shard workers can drain before the next attempt.
      ++rejected;
      std::this_thread::yield();
    }
  }
  *shed += rejected;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (delivered->load(std::memory_order_relaxed) - delivered_start <
         target) {
    if (!engine->WaitIdle(1.0) &&
        std::chrono::steady_clock::now() > deadline) {
      return false;
    }
  }
  return true;
}

ServeRow RunShardCount(uint64_t seed, uint32_t shards, int64_t queries,
                       bool skew) {
  EngineOptions options;
  options.mode = EngineMode::kWallClock;
  options.seed = seed;
  options.shards = shards;
  // Short timeout, long enough to never fire: the providers' queueing is
  // negligible at this cost, so saturated completion latency is the
  // engine's own — about max_pending / (per-shard service rate), ~10-20 ms
  // at one shard. The FIFO timeout ring only reclaims entries when a sweep
  // fires at the head deadline, so its high-water mark is timeout_window
  // x arrival rate — the warm-up below must span several windows to pin
  // it.
  options.query_timeout = 0.25;
  const int64_t options_max_pending = 4096;
  options.max_pending = options_max_pending;  // open loop: shed the excess
  Engine engine(std::move(options));

  std::vector<model::ConsumerId> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    ConsumerOptions consumer_options;
    consumer_options.n_results = 2;
    consumers.push_back(engine.AddConsumer(consumer_options));
  }
  for (int i = 0; i < kProviders; ++i) {
    ProviderOptions provider_options;
    provider_options.capacity = 1.0 + 0.125 * (i % 8);
    const model::ProviderId p = engine.AddProvider(provider_options);
    for (const model::ConsumerId c : consumers) {
      engine.SetConsumerPreference(c, p, i % 2 == 0 ? 0.6 : 0.2);
      engine.SetProviderPreference(p, c, 0.5);
    }
  }
  engine.Start();

  std::atomic<int64_t> delivered{0};
  int64_t shed = 0;

  ServeRow row;
  row.shards = shards;
  row.queries = queries;

  // Warm-up segments, then a full drain: the allocation boundary below is
  // exact because nothing of the warm-up is still in flight. Two
  // conditions must BOTH hold before measuring, because every pool sizes
  // to its own high-water mark:
  //  - at least 3x max_pending accepted queries, so saturation pins the
  //    in-flight pools (tickets, slots, timers) at the admission cap;
  //  - at least two timeout windows of wall time, so the timeout ring has
  //    been swept at its steady high-water — a shorter warm-up leaves a
  //    short ring to grow mid-measurement.
  const double warm_window = options.query_timeout;
  const int64_t warmup_floor =
      std::max<int64_t>(queries / 5, 3 * options_max_pending);
  int64_t warmed = 0;
  const auto warm_start = std::chrono::steady_clock::now();
  while (warmed < warmup_floor ||
         std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       warm_start)
                 .count() < 2.5 * warm_window) {
    if (!Blast(&engine, consumers, warmup_floor, skew, &delivered, &shed)) {
      std::fprintf(stderr, "warm-up traffic failed to drain (%u shards)\n",
                   shards);
      engine.Stop();
      return row;
    }
    warmed += warmup_floor;
  }

  shed = 0;  // the reported shed count covers the measured segment only
  const uint64_t allocs_before = util::AllocationCount();
  const auto t0 = std::chrono::steady_clock::now();
  const bool drained =
      Blast(&engine, consumers, queries, skew, &delivered, &shed);
  const double wall_ms =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count() /
      1000.0;
  const uint64_t allocs = util::AllocationCount() - allocs_before;

  const EngineStats stats = engine.Stats();
  row.queries_finalized =
      drained ? queries : delivered.load(std::memory_order_relaxed) - warmed;
  row.shed = shed;
  row.wall_ms = wall_ms;
  row.qps = wall_ms > 0 ? static_cast<double>(queries) / (wall_ms / 1000.0)
                        : 0;
  row.ns_per_query =
      queries > 0 ? wall_ms * 1e6 / static_cast<double>(queries) : 0;
  row.allocs_per_query =
      queries > 0 ? static_cast<double>(allocs) / static_cast<double>(queries)
                  : 0;
  row.barriers = stats.shard_barriers;
  row.early_barriers = stats.shard_early_barriers;
  row.delegated = stats.queries_delegated;
  row.borrowed = stats.queries_borrowed;
  engine.Stop();
  return row;
}

}  // namespace
}  // namespace sbqa::bench

int main() {
  using namespace sbqa;
  using namespace sbqa::bench;

  const uint64_t seed = EnvOr("SBQA_BENCH_SEED", 42);
  const int64_t queries =
      static_cast<int64_t>(EnvOr("SBQA_BENCH_QUERIES", 150000));
  const uint32_t max_shards =
      static_cast<uint32_t>(EnvOr("SBQA_BENCH_MAX_SHARDS", 4));
  const unsigned host_cores = std::thread::hardware_concurrency();

  PrintHeader("Thread-per-shard wall-clock serving saturation",
              "Open-loop live traffic against sbqa::Engine, swept over "
              "shard counts: throughput scales with cores, the Submit "
              "path stays allocation-free.");
  std::printf("%lld measured queries/row over %d providers, %d consumers "
              "on a %u-core host (seed %llu; %s, %s build)\n\n",
              static_cast<long long>(queries), kProviders, kConsumers,
              host_cores, static_cast<unsigned long long>(seed),
              CompilerName().c_str(), BuildType());

  std::vector<ServeRow> sweep;
  for (uint32_t shards = 1; shards <= max_shards; shards *= 2) {
    sweep.push_back(RunShardCount(seed, shards, queries, /*skew=*/false));
    const ServeRow& row = sweep.back();
    const double speedup =
        sweep.front().qps > 0 ? row.qps / sweep.front().qps : 0;
    std::printf(
        "  %u shard%s | %9.1f ms | %8.0f queries/s (%4.2fx) | "
        "%6.0f ns/query | %.4f allocs/query | %6lld shed | "
        "%5lld barriers (%lld early) | %4lld delegated\n",
        row.shards, row.shards == 1 ? " " : "s", row.wall_ms, row.qps,
        speedup, row.ns_per_query, row.allocs_per_query,
        static_cast<long long>(row.shed),
        static_cast<long long>(row.barriers),
        static_cast<long long>(row.early_barriers),
        static_cast<long long>(row.delegated));
  }

  // Skewed traffic: one hot consumer takes 50% of submissions, the other
  // seven split the rest. The interesting question is not speedup (the hot
  // consumer's home shard is the bottleneck by construction) but whether
  // the steady-state guarantees survive the imbalance: still 0
  // allocations/query, still every accepted query finalized.
  std::printf("\nSkewed traffic (consumer[0] gets 50%% of submissions):\n");
  std::vector<ServeRow> skew_sweep;
  for (const uint32_t shards : {1u, max_shards}) {
    if (!skew_sweep.empty() && skew_sweep.back().shards == shards) continue;
    skew_sweep.push_back(RunShardCount(seed, shards, queries, /*skew=*/true));
    const ServeRow& row = skew_sweep.back();
    std::printf(
        "  %u shard%s | %9.1f ms | %8.0f queries/s | %6.0f ns/query | "
        "%.4f allocs/query | %6lld shed | %5lld barriers (%lld early) | "
        "%4lld delegated\n",
        row.shards, row.shards == 1 ? " " : "s", row.wall_ms, row.qps,
        row.ns_per_query, row.allocs_per_query,
        static_cast<long long>(row.shed),
        static_cast<long long>(row.barriers),
        static_cast<long long>(row.early_barriers),
        static_cast<long long>(row.delegated));
  }

  JsonWriter json(BenchJsonPath("serve"));
  if (!json.ok()) return 0;
  json.BeginObject();
  json.Field("bench", "serve_saturation");
  json.Field("seed", seed);
  json.Field("host_cores", static_cast<uint64_t>(host_cores));
  json.Field("compiler", CompilerName());
  json.Field("build_type", BuildType());
  json.Field("queries_per_row", queries);
  json.Field("providers", kProviders);
  json.Field("consumers", kConsumers);
  const auto emit_row = [&json](const ServeRow& row, double base_qps) {
    json.BeginObject();
    json.Field("shards", row.shards);
    json.Field("queries", row.queries);
    json.Field("queries_finalized", row.queries_finalized);
    json.Field("shed", row.shed);
    json.Field("wall_ms", row.wall_ms, 1);
    json.Field("qps", row.qps, 0);
    json.Field("ns_per_query", row.ns_per_query, 0);
    json.Field("allocs_per_query", row.allocs_per_query, 4);
    json.Field("speedup_vs_1", base_qps > 0 ? row.qps / base_qps : 0, 2);
    json.Field("barriers", row.barriers);
    json.Field("early_barriers", row.early_barriers);
    json.Field("delegated", row.delegated);
    json.Field("borrowed", row.borrowed);
    json.EndObject();
  };
  json.BeginArray("sweep");
  for (const ServeRow& row : sweep) emit_row(row, sweep.front().qps);
  json.EndArray();
  json.BeginArray("skew_sweep");
  for (const ServeRow& row : skew_sweep) {
    emit_row(row, skew_sweep.front().qps);
  }
  json.EndArray();
  json.EndObject();
  return 0;
}
