/// \file
/// sbqa_serve — the identical SbQA mediation pipeline serving live
/// wall-clock traffic: a driver thread submits queries through the
/// sbqa::Engine facade against an rt::WallClockShardSet (steady-clock
/// time, ladder timer core, one worker thread per shard — one shard by
/// default), outcomes come back through
/// per-query callbacks, and the steady-state Submit path performs zero
/// heap allocations per query (measured live by the counting allocator).
///
///   sbqa_serve [--queries=N] [--rate=Q_PER_S] [--providers=N]
///              [--shards=N] [--method=NAME] [--seed=N]
///              [--fault-profile=none|drops|delays|crashes|chaos]
///              [--deadline-ms=N] [--max-retries=N] [--max-pending=N]
///              [--json]
///
/// --json replaces the human report with a machine-readable summary that
/// includes the per-phase decision timings of the scoring kernel. A
/// numeric flag must parse whole (no trailing characters, no sign on
/// counts) and lie in range (--queries, --rate, --providers and --shards
/// positive); anything else prints the usage and exits 2.
///
/// The robustness flags exercise the hardened lifecycle under live
/// traffic: --fault-profile interposes the deterministic fault plane,
/// --deadline-ms/--max-retries bound and recover each query, and
/// --max-pending sheds (newest first, synchronously on the driver thread)
/// once that many queries are in flight. The tail of the report breaks
/// every outcome down by the terminal taxonomy.
///
/// --shards=N serves on N barrier-connected shards; with N > 1, while
/// traffic flows the driver prints a
/// live per-shard stats line — queries/s, pending, shed and cross-shard
/// borrow counts — read at a quiescent barrier via Engine::ShardStats().
/// A shard whose pool is dry for a query borrows one hop from the
/// least-loaded peer shard.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "sbqa.h"
#include "util/counting_alloc.h"
#include "util/string_util.h"

using namespace sbqa;

namespace {

struct Flags {
  long queries = 5000;
  double rate = 2000;  // queries per wall second
  int providers = 16;
  uint32_t shards = 1;
  std::string method = "sbqa";
  uint64_t seed = 42;
  std::string fault_profile = "none";
  double deadline_ms = 0;
  int max_retries = 0;
  long max_pending = 0;
  bool json = false;
};

int Usage() {
  std::fprintf(stderr,
               "usage: sbqa_serve [--queries=N] [--rate=Q_PER_S] "
               "[--providers=N] [--shards=N] [--method=NAME] [--seed=N]\n"
               "                  [--fault-profile=%s]\n"
               "                  [--deadline-ms=N] [--max-retries=N] "
               "[--max-pending=N] [--json]\n",
               rt::FaultProfileNames().c_str());
  return 2;
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    bool ok = true;
    if (ParseFlag(argv[i], "--queries", &value)) {
      ok = util::ParseWhole(value, &flags.queries);
    } else if (ParseFlag(argv[i], "--rate", &value)) {
      ok = util::ParseWhole(value, &flags.rate);
    } else if (ParseFlag(argv[i], "--providers", &value)) {
      ok = util::ParseWhole(value, &flags.providers);
    } else if (ParseFlag(argv[i], "--shards", &value)) {
      ok = util::ParseWhole(value, &flags.shards);
    } else if (ParseFlag(argv[i], "--method", &value)) {
      flags.method = value;
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      ok = util::ParseWhole(value, &flags.seed);
    } else if (ParseFlag(argv[i], "--fault-profile", &value)) {
      flags.fault_profile = value;
    } else if (ParseFlag(argv[i], "--deadline-ms", &value)) {
      ok = util::ParseWhole(value, &flags.deadline_ms);
    } else if (ParseFlag(argv[i], "--max-retries", &value)) {
      ok = util::ParseWhole(value, &flags.max_retries);
    } else if (ParseFlag(argv[i], "--max-pending", &value)) {
      ok = util::ParseWhole(value, &flags.max_pending);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      flags.json = true;
    } else {
      return Usage();
    }
    if (!ok) return Usage();
  }
  if (flags.queries <= 0 || flags.rate <= 0 || flags.providers <= 0 ||
      flags.shards == 0 || flags.deadline_ms < 0 || flags.max_retries < 0 ||
      flags.max_pending < 0) {
    return Usage();
  }

  if (!flags.json) {
    std::printf("sbqa_serve: %ld queries at ~%.0f/s over %d providers, "
                "method %s (wall-clock runtime, %u shard%s)\n\n",
                flags.queries, flags.rate, flags.providers,
                flags.method.c_str(), flags.shards,
                flags.shards == 1 ? "" : "s");
  }

  EngineOptions options;
  options.mode = EngineMode::kWallClock;
  options.seed = flags.seed;
  options.method = flags.method;
  // The JSON summary carries the per-phase decision timings.
  options.decision_timing = flags.json;
  options.shards = flags.shards;
  // Short safety-net timeout: the sweep then passes often enough for the
  // FIFO timeout ring to stay compact at steady state.
  options.query_timeout = 2.0;
  if (!rt::FaultProfileByName(flags.fault_profile, &options.fault_plan)) {
    std::fprintf(stderr, "unknown fault profile: %s (known: %s)\n",
                 flags.fault_profile.c_str(),
                 rt::FaultProfileNames().c_str());
    return 2;
  }
  options.default_deadline = flags.deadline_ms / 1000.0;
  options.max_retries = flags.max_retries;
  if (flags.max_retries > 0) {
    options.failure_threshold = 3;
    options.probe_delay = 1.0;  // live traffic: probe suspects back fast
    if (flags.deadline_ms > 0) {
      // Split the deadline across the attempt budget: a retry can only
      // fire if the attempt times out BEFORE the absolute deadline.
      options.query_timeout =
          std::min(options.query_timeout,
                   flags.deadline_ms / 1000.0 / (flags.max_retries + 1));
    }
  }
  options.max_pending = flags.max_pending;
  Engine engine(std::move(options));

  ConsumerOptions consumer_options;
  consumer_options.n_results = 2;
  consumer_options.label = "live-frontend";
  const model::ConsumerId consumer = engine.AddConsumer(consumer_options);
  for (int i = 0; i < flags.providers; ++i) {
    ProviderOptions provider_options;
    provider_options.capacity = 1.0 + 0.125 * (i % 8);
    provider_options.label = "worker-" + std::to_string(i);
    const model::ProviderId p = engine.AddProvider(provider_options);
    engine.SetConsumerPreference(consumer, p, i % 2 == 0 ? 0.6 : -0.3);
    engine.SetProviderPreference(p, consumer, i % 3 == 0 ? 0.7 : 0.1);
  }
  engine.Start();

  std::atomic<long> delivered{0};
  std::atomic<long> served{0};
  // Terminal taxonomy, counted from the per-query callbacks (shed ones run
  // synchronously on the driver thread, the rest on the shard workers).
  std::atomic<long> satisfied{0};
  std::atomic<long> retried{0};
  std::atomic<long> timed_out{0};
  std::atomic<long> failed{0};
  std::atomic<long> shed{0};
  const auto callback = [&](const QueryResult& result) {
    delivered.fetch_add(1, std::memory_order_relaxed);
    if (result.results_received >= result.results_required) {
      served.fetch_add(1, std::memory_order_relaxed);
    }
    switch (result.outcome) {
      case core::OutcomeKind::kSatisfied:
        satisfied.fetch_add(1, std::memory_order_relaxed);
        break;
      case core::OutcomeKind::kRetried:
        retried.fetch_add(1, std::memory_order_relaxed);
        break;
      case core::OutcomeKind::kTimedOut:
        timed_out.fetch_add(1, std::memory_order_relaxed);
        break;
      case core::OutcomeKind::kFailed:
        failed.fetch_add(1, std::memory_order_relaxed);
        break;
      case core::OutcomeKind::kShed:
        shed.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  };

  // The driver thread: paced submissions in small bursts. The first fifth
  // warms every pool (tickets, timer core, in-flight slots); the rest is
  // the measured steady state.
  const long warmup = flags.queries / 5;
  constexpr int kBurst = 50;
  const auto burst_gap = std::chrono::duration<double>(kBurst / flags.rate);
  uint64_t steady_allocs_before = 0;
  long steady_queries = 0;

  QueryRequest request;
  request.consumer = consumer;
  request.n_results = 2;
  request.cost = 0.0005;  // ~0.5 ms of work on a capacity-1 provider

  // Live per-shard stats line, ~1/s while traffic flows (sharded runs
  // only): ShardStats() reads every shard at a quiescent barrier, so the
  // rows are a consistent cross-shard cut even mid-traffic.
  std::vector<long long> last_finalized(
      flags.shards > 1 ? static_cast<size_t>(flags.shards) : 0, 0);
  auto last_stats = std::chrono::steady_clock::now();
  const auto print_shard_stats = [&](double dt) {
    const std::vector<EngineShardStats> rows = engine.ShardStats();
    std::printf("  [shards]");
    for (const EngineShardStats& row : rows) {
      const long long finalized = row.queries_finalized;
      const double qps =
          (finalized - last_finalized[row.shard]) / std::max(dt, 1e-9);
      last_finalized[row.shard] = finalized;
      std::printf(" s%u %.0f/s pend %lld", row.shard, qps,
                  static_cast<long long>(row.queries_submitted - finalized));
    }
    long long borrowed = 0;
    for (const EngineShardStats& row : rows) borrowed += row.queries_borrowed;
    std::printf(" | shed %ld | borrowed %lld\n", shed.load(), borrowed);
    std::fflush(stdout);
  };

  const auto t0 = std::chrono::steady_clock::now();
  for (long submitted = 0; submitted < flags.queries;) {
    if (steady_queries == 0 && submitted >= warmup) {
      steady_allocs_before = util::AllocationCount();
      steady_queries = flags.queries - submitted;
    }
    const long burst_end = std::min<long>(submitted + kBurst, flags.queries);
    for (; submitted < burst_end; ++submitted) {
      engine.Submit(request, OutcomeCallback(callback));
    }
    std::this_thread::sleep_for(burst_gap);
    if (flags.shards > 1 && !flags.json) {
      const auto now = std::chrono::steady_clock::now();
      const double dt =
          std::chrono::duration<double>(now - last_stats).count();
      if (dt >= 1.0) {
        last_stats = now;
        print_shard_stats(dt);
      }
    }
  }
  const bool drained = engine.WaitIdle(10.0);
  const uint64_t steady_allocs =
      util::AllocationCount() - steady_allocs_before;
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const EngineStats stats = engine.Stats();
  if (flags.json) {
    const core::ScoreKernelPhases phases = engine.DecisionPhases();
    engine.Stop();
    std::printf("{\n");
    std::printf("  \"queries\": %ld,\n", flags.queries);
    std::printf("  \"drained\": %s,\n", drained ? "true" : "false");
    std::printf("  \"outcomes_delivered\": %ld,\n", delivered.load());
    std::printf("  \"wall_seconds\": %.6f,\n", wall_seconds);
    std::printf("  \"queries_per_second\": %.1f,\n",
                static_cast<double>(flags.queries) / wall_seconds);
    std::printf("  \"mean_response_time\": %.6f,\n",
                stats.mean_response_time);
    std::printf("  \"mean_satisfaction\": %.6f,\n", stats.mean_satisfaction);
    std::printf("  \"steady_allocs_per_query\": %.4f,\n",
                steady_queries > 0 ? static_cast<double>(steady_allocs) /
                                         static_cast<double>(steady_queries)
                                   : 0.0);
    std::printf("  \"decisions_timed\": %lld,\n",
                static_cast<long long>(phases.decisions));
    std::printf("  \"decision_sample_ns\": %.0f,\n", phases.sample_ns);
    std::printf("  \"decision_gather_ns\": %.0f,\n", phases.gather_ns);
    std::printf("  \"decision_intentions_ns\": %.0f,\n",
                phases.intentions_ns);
    std::printf("  \"decision_score_ns\": %.0f,\n", phases.score_ns);
    std::printf("  \"decision_rank_ns\": %.0f\n", phases.rank_ns);
    std::printf("}\n");
    const bool ok = drained && delivered.load() == flags.queries;
    if (!ok) std::fprintf(stderr, "\nFAILED: traffic did not drain cleanly\n");
    return ok ? 0 : 1;
  }
  std::printf("drained            : %s\n", drained ? "yes" : "NO");
  std::printf("outcomes delivered : %ld (%ld fully served)\n",
              delivered.load(), served.load());
  std::printf("wall time          : %.2f s (%.0f queries/s)\n", wall_seconds,
              static_cast<double>(flags.queries) / wall_seconds);
  std::printf("mean response time : %.4f s\n", stats.mean_response_time);
  std::printf("mean satisfaction  : %.3f\n", stats.mean_satisfaction);
  std::printf("outcome taxonomy   : %ld satisfied, %ld retried, "
              "%ld timed out, %ld failed, %ld shed\n",
              satisfied.load(), retried.load(), timed_out.load(),
              failed.load(), shed.load());
  if (stats.queries_delegated > 0) {
    std::printf("cross-shard        : %lld delegated, %lld borrowed\n",
                static_cast<long long>(stats.queries_delegated),
                static_cast<long long>(stats.queries_borrowed));
  }
  if (stats.retry_attempts > 0 || stats.providers_suspected > 0) {
    std::printf("recovery           : %lld retries, %lld suspected, "
                "%lld probed\n",
                static_cast<long long>(stats.retry_attempts),
                static_cast<long long>(stats.providers_suspected),
                static_cast<long long>(stats.providers_probed));
  }
  if (stats.fault_sends_dropped + stats.fault_sends_delayed +
          stats.fault_sends_crashed >
      0) {
    std::printf("faults injected    : %lld dropped, %lld delayed, "
                "%lld crashed\n",
                static_cast<long long>(stats.fault_sends_dropped),
                static_cast<long long>(stats.fault_sends_delayed),
                static_cast<long long>(stats.fault_sends_crashed));
  }
  std::printf("steady-state allocations/query: %.4f (%llu over %ld queries)\n",
              static_cast<double>(steady_allocs) /
                  static_cast<double>(steady_queries),
              static_cast<unsigned long long>(steady_allocs), steady_queries);

  const EngineSnapshot snapshot = engine.Snapshot();
  std::printf("\nper-provider (first 4):\n");
  for (size_t i = 0; i < snapshot.providers.size() && i < 4; ++i) {
    const ProviderSnapshot& p = snapshot.providers[i];
    std::printf("  %-10s satisfaction %.3f, %lld instances, busy %.2fs\n",
                p.label.c_str(), p.satisfaction,
                static_cast<long long>(p.instances_performed),
                p.busy_seconds);
  }
  engine.Stop();

  const bool ok = drained && delivered.load() == flags.queries;
  if (!ok) std::fprintf(stderr, "\nFAILED: traffic did not drain cleanly\n");
  return ok ? 0 : 1;
}
