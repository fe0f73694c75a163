/// \file
/// The serving workload, serve_small: a paced open loop against the
/// wall-clock sbqa::Engine from one driver thread.
///
/// Untraced run: set the engine up several times (median = setup_s), warm
/// it up (a saturating blast that sizes every pool, then paced traffic at
/// the nominal rate), measure latency at the fixed nominal rate, then find
/// the sustained rate by bisection over the workload's fixed rate ladder.
/// Every query is timed from when it was due, not from when the driver got
/// to it, so a stall is charged to every query it delays.
///
/// Traced run: the same nominal step on an untraced engine (the overhead
/// baseline) and on an instrumented one (Submit timings and decision-phase
/// timers), then one step at the top ladder rate for the overload counters.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sbqa::Engine;
using sbqa::QueryRequest;
using sbqa::QueryResult;

constexpr const char* kName = "serve_small";
constexpr uint32_t kShards = 2;
constexpr int kProviders = 32;
constexpr int kConsumers = 8;
constexpr double kNominalQps = 50000;
// The rate ladder tops out at 126,824 q/s. Above that the one driver
// thread's Submit rate, not the engine, set the knee: it moved between 127k
// and 217k with the host's core speed.
constexpr double kLadderLowest = 20000;
constexpr double kLadderRatio = 1.08;
constexpr int kLadderRungs = 25;
// Sustained-rate latency limit: generous enough that a host stall of a few
// milliseconds does not fail a rung, far below the 50 ms query timeout that
// overload runs into.
constexpr double kP99LimitUs = 1000;
constexpr int kSetupReps = 31;
constexpr int64_t kMaxPending = 16384;  // EngineOptions::max_pending

// Virtual provider work per instance (work units; a capacity-c provider
// takes kCost / c seconds). Small enough that aggregate capacity is far
// above every ladder rate: the benchmark measures the software, not the
// simulated providers.
constexpr double kCost = 1e-6;
constexpr int kResults = 2;
// Per-query timeout. It also sizes the mediator's timeout ring: the ring
// holds about rate x timeout entries per shard, and above 4096 it shrinks
// whenever a sweep finds it drained and regrows under the next traffic,
// which allocates on the query path. 50 ms keeps the hot shard at the
// nominal rate below that floor.
constexpr double kQueryTimeout = 0.05;
// Measurement rounds, each on a fresh engine and the next core. Per-round
// latency is bimodal (p50 ~4.5 us against ~6.5 us): the slow state, which
// also slows a same-core thread ping-pong but hardly a compute loop, comes
// and goes with the host and can last for minutes. A median or quartile
// over the rounds jumps between the modes; the mean moves with the share
// of slow rounds only.
constexpr int kRounds = 8;
constexpr size_t kWindow = 1000;           // samples per p99 window
constexpr double kMaxFailedShare = 0.001;  // of a step's queries
constexpr double kLateBoundUs = 1000;      // generator lateness, windowed p99
constexpr double kMinCapacityRatio = 10;
constexpr size_t kStepCapacity = 1 << 20;  // queries per step, at most
constexpr int kSpanSample = 16;            // every 16th query's spans

double ProviderCapacity(int i) { return 1.0 + 0.125 * (i % 8); }

/// A preference in [0.1, 0.9], a pure function of (seed, a, b, direction):
/// the population is the same for a seed whatever order it is built in.
double Preference(uint64_t seed, uint64_t a, uint64_t b, uint64_t direction) {
  uint64_t x = seed ^ (a * 0x9E3779B97F4A7C15ull) ^
               (b * 0xC2B2AE3D27D4EB4Full) ^ (direction << 62);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return 0.1 + 0.8 * static_cast<double>(x >> 11) * 0x1.0p-53;
}

uint32_t Clamp32(int64_t ns) {
  return static_cast<uint32_t>(std::clamp<int64_t>(
      ns, 0, std::numeric_limits<uint32_t>::max()));
}

/// One engine with its population, built and started.
struct Served {
  std::unique_ptr<Engine> engine;
  std::vector<sbqa::model::ConsumerId> consumers;
  double setup_s = 0;
};

Served BuildEngine(uint64_t seed, bool traced) {
  Served served;
  const int64_t start = NowNs();
  sbqa::EngineOptions options;
  options.mode = sbqa::EngineMode::kWallClock;
  options.seed = seed;
  options.shards = kShards;
  options.query_timeout = kQueryTimeout;
  options.max_pending = kMaxPending;
  options.decision_timing = traced;
  served.engine = std::make_unique<Engine>(std::move(options));
  Engine& engine = *served.engine;
  for (int c = 0; c < kConsumers; ++c) {
    sbqa::ConsumerOptions consumer;
    consumer.n_results = kResults;
    served.consumers.push_back(engine.AddConsumer(consumer));
  }
  for (int i = 0; i < kProviders; ++i) {
    sbqa::ProviderOptions provider;
    provider.capacity = ProviderCapacity(i);
    const sbqa::model::ProviderId p = engine.AddProvider(provider);
    for (const sbqa::model::ConsumerId c : served.consumers) {
      const auto pc = static_cast<uint64_t>(p);
      const auto cc = static_cast<uint64_t>(c);
      engine.SetConsumerPreference(c, p, Preference(seed, cc, pc, 0));
      engine.SetProviderPreference(p, c, Preference(seed, pc, cc, 1));
    }
  }
  engine.Start();
  served.setup_s = SecondsSince(start);
  return served;
}

/// How a query ended, as the benchmark counts it: anything but kOk is a
/// failed query.
enum OutcomeCode : uint8_t { kOk, kShed, kUnallocated, kTimedOut, kNoResults };

/// Per-query records of one paced step. Sized once; a step reuses them.
struct Step {
  explicit Step(bool traced)
      : latency_ns(kStepCapacity),
        late_ns(kStepCapacity),
        outcome(kStepCapacity),
        callbacks(new std::atomic<uint32_t>[kStepCapacity]) {
    if (traced) submit_ns.resize(kStepCapacity);
    inflight.reserve(512);
  }

  int64_t DueNs(int64_t i) const {
    return t0_ns + static_cast<int64_t>(static_cast<double>(i) * period_ns);
  }

  double period_ns = 0;
  int64_t t0_ns = 0;
  int64_t n = 0;
  int64_t shed = 0;
  std::vector<uint32_t> latency_ns;  ///< due -> callback
  std::vector<uint32_t> late_ns;     ///< due -> Submit call
  std::vector<uint8_t> outcome;      ///< an OutcomeCode
  std::unique_ptr<std::atomic<uint32_t>[]> callbacks;
  std::atomic<int64_t> delivered{0};
  std::vector<uint32_t> submit_ns;   ///< traced: time inside Submit
  std::vector<double> inflight;      ///< submitted - delivered samples
};

/// What one step measured.
struct StepResult {
  double rate = 0;
  int64_t n = 0;
  int64_t failed = 0;  ///< shed, timed out, unallocated or no results
  int64_t outcomes[kNoResults + 1] = {};  ///< per OutcomeCode
  int64_t shed = 0;
  double p50_us = 0;
  double p99_us = 0;  ///< median over kWindow-sample windows of each p99
  /// The highest percentile with ten samples beyond it, over the whole
  /// step, and its value.
  double tail_q = 0;
  double tail_us = 0;
  double late_p99_us = 0;
  double late_max_us = 0;
  double inflight_max = 0;
  bool backlog = false;
  bool drained = false;
  bool exactly_once = true;
  double wall_s = 0;
  uint64_t allocations = 0;  ///< heap allocations, submit through drain

  bool Sustained(double p99_limit_us) const {
    return drained && exactly_once &&
           static_cast<double>(failed) <=
               kMaxFailedShare * static_cast<double>(n) &&
           p99_us <= p99_limit_us && !backlog && late_p99_us <= kLateBoundUs;
  }
};

/// Spins until `due_ns`, sleeping only when the due time is far off: a
/// sleep can overshoot by hundreds of microseconds on a virtual machine,
/// and every microsecond the generator runs late reads as engine latency.
/// The spin yields on every pass, which hands the core to the engine's
/// workers (they share it with the driver; see StartEngine).
void WaitUntil(int64_t due_ns) {
  for (;;) {
    const int64_t left = due_ns - NowNs();
    if (left <= 0) return;
    if (left > 2000000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 1000000));
    } else {
      std::this_thread::yield();
    }
  }
}

/// consumers[0] takes every other submission; the rest round-robin.
sbqa::model::ConsumerId Pick(const Served& served, int64_t i) {
  const auto& c = served.consumers;
  if (i % 2 == 0) return c[0];
  return c[1 + static_cast<size_t>(i / 2) % (c.size() - 1)];
}

/// Offers `rate` queries/s for `seconds` (paced from one thread), waits for
/// every outcome and summarizes.
StepResult RunStep(Served& served, Step& step, double rate, double seconds,
                   bool traced) {
  Engine& engine = *served.engine;
  const int64_t n = std::clamp<int64_t>(std::llround(rate * seconds),
                                        static_cast<int64_t>(kWindow),
                                        static_cast<int64_t>(kStepCapacity));
  step.period_ns = 1e9 / rate;
  step.n = n;
  step.shed = 0;
  step.delivered.store(0, std::memory_order_relaxed);
  step.inflight.clear();
  for (int64_t i = 0; i < n; ++i) {
    step.callbacks[static_cast<size_t>(i)].store(0, std::memory_order_relaxed);
  }
  QueryRequest request;
  request.n_results = kResults;
  request.cost = kCost;
  const int64_t sample_every = std::max<int64_t>(1, n / 200);
  const uint64_t allocations_before = AllocationsSoFar();
  step.t0_ns = NowNs() + 200000;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t due = step.DueNs(i);
    WaitUntil(due);
    const int64_t start = NowNs();
    step.late_ns[static_cast<size_t>(i)] = Clamp32(start - due);
    request.consumer = Pick(served, i);
    Step* s = &step;
    const auto index = static_cast<uint32_t>(i);
    const uint64_t ticket =
        engine.Submit(request, [s, index](const QueryResult& r) {
          s->latency_ns[index] = Clamp32(NowNs() - s->DueNs(index));
          s->outcome[index] = r.shed          ? kShed
                              : r.unallocated ? kUnallocated
                              : r.timed_out   ? kTimedOut
                              : r.results_received > 0 ? kOk
                                                       : kNoResults;
          s->callbacks[index].fetch_add(1, std::memory_order_relaxed);
          s->delivered.fetch_add(1, std::memory_order_release);
        });
    if (traced) step.submit_ns[index] = Clamp32(NowNs() - start);
    if (ticket == 0) ++step.shed;
    if (i % sample_every == 0) {
      step.inflight.push_back(static_cast<double>(
          i + 1 - step.delivered.load(std::memory_order_relaxed)));
    }
  }
  StepResult result;
  result.rate = rate;
  result.n = n;
  result.shed = step.shed;
  // Every outcome must arrive: the query timeout bounds each one.
  const int64_t drain_deadline = NowNs() + 10'000'000'000;
  while (step.delivered.load(std::memory_order_acquire) < n &&
         NowNs() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  result.wall_s = SecondsSince(step.t0_ns);
  result.drained = step.delivered.load(std::memory_order_acquire) == n;
  result.allocations = AllocationsSoFar() - allocations_before;

  const auto count = static_cast<size_t>(n);
  std::vector<uint32_t> latency(step.latency_ns.begin(),
                                step.latency_ns.begin() + n);
  std::vector<uint32_t> late(step.late_ns.begin(), step.late_ns.begin() + n);
  for (size_t i = 0; i < count; ++i) {
    if (step.callbacks[i].load(std::memory_order_relaxed) != 1) {
      result.exactly_once = false;
    }
    ++result.outcomes[step.outcome[i]];
  }
  result.failed = result.n - result.outcomes[kOk];
  result.p99_us = MedianWindowP99(latency, kWindow).value / 1000.0;
  std::sort(latency.begin(), latency.end());
  result.p50_us = PercentileSorted(latency, 0.5) / 1000.0;
  result.tail_q = SupportedPercentile(latency.size());
  result.tail_us = PercentileSorted(latency, result.tail_q) / 1000.0;
  result.late_p99_us = MedianWindowP99(late, kWindow).value / 1000.0;
  result.late_max_us =
      static_cast<double>(*std::max_element(late.begin(), late.end())) /
      1000.0;
  result.inflight_max =
      *std::max_element(step.inflight.begin(), step.inflight.end());
  result.backlog = BacklogGrows(
      step.inflight, std::max(64.0, 0.002 * static_cast<double>(n)), 1.0);
  return result;
}

void PrintStep(const char* label, const StepResult& r) {
  std::printf(
      "  %-9s %9.0f q/s  n=%-8lld p50 %8.1f us  p99(win) %9.1f us  "
      "p%g %9.1f us  failed %-6lld late p99 %7.1f us  max %8.1f us  "
      "inflight max %6.0f%s\n",
      label, r.rate, static_cast<long long>(r.n), r.p50_us, r.p99_us,
      100 * r.tail_q, r.tail_us, static_cast<long long>(r.failed),
      r.late_p99_us, r.late_max_us,
      r.inflight_max, r.backlog ? "  BACKLOG GROWS" : "");
  if (r.failed > 0) {
    std::printf("            failed: %lld shed, %lld unallocated, %lld timed "
                "out, %lld without results\n",
                static_cast<long long>(r.outcomes[kShed]),
                static_cast<long long>(r.outcomes[kUnallocated]),
                static_cast<long long>(r.outcomes[kTimedOut]),
                static_cast<long long>(r.outcomes[kNoResults]));
  }
}

/// Saturating blast (sizes every pool to the admission cap and the timeout
/// ring to its high-water mark over 2.5 timeout windows), then paced
/// traffic at the nominal rate.
void WarmUp(Served& served, Step& step) {
  Engine& engine = *served.engine;
  std::atomic<int64_t> delivered{0};
  int64_t sent = 0;
  QueryRequest request;
  request.n_results = kResults;
  request.cost = kCost;
  const int64_t start = NowNs();
  while (SecondsSince(start) < 2.5 * kQueryTimeout + 0.1) {
    request.consumer = Pick(served, sent);
    const uint64_t ticket = engine.Submit(
        request, [&delivered](const QueryResult&) {
          delivered.fetch_add(1, std::memory_order_release);
        });
    ++sent;
    if (ticket == 0) std::this_thread::yield();
  }
  const int64_t deadline = NowNs() + 10'000'000'000;
  while (delivered.load(std::memory_order_acquire) < sent &&
         NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  RunStep(served, step, kNominalQps, 1.0, false);
}

/// The nominal step, re-run (at most three times) when the generator ran
/// later than its bound, since a driver stall is the host's, not the
/// engine's; or when the step allocated at all. About one step in fifty
/// allocated once in its ~100k queries, a one-off rather than a per-query
/// allocation (see README.md). A per-query allocation allocates on every
/// attempt and still fails the run.
StepResult MeasureNominal(Served& served, Step& step, double seconds,
                          bool traced, RunOutcome* outcome) {
  StepResult result;
  for (int attempt = 0; attempt < 3; ++attempt) {
    result = RunStep(served, step, kNominalQps, seconds, traced);
    PrintStep("nominal", result);
    const bool late = result.late_p99_us > kLateBoundUs;
    if (!late && result.allocations == 0) return result;
    std::printf("  nominal step rejected: generator lateness p99 %.1f us "
                "(bound %.0f us), %llu heap allocations\n",
                result.late_p99_us, kLateBoundUs,
                static_cast<unsigned long long>(result.allocations));
  }
  outcome->Check(result.late_p99_us <= kLateBoundUs,
                 "generator lateness p99 %.1f us above %.0f us",
                 result.late_p99_us, kLateBoundUs);
  outcome->Check(result.allocations == 0,
                 "alloc.per_query %.6f in the nominal window (must be 0)",
                 static_cast<double>(result.allocations) /
                     static_cast<double>(result.n));
  return result;
}

double CapacityRatio(double top_rate) {
  double capacity = 0;
  for (int i = 0; i < kProviders; ++i) capacity += ProviderCapacity(i);
  return capacity / (kCost * kResults * top_rate);
}

void CheckEngine(Engine& engine, RunOutcome* outcome) {
  const sbqa::EngineStats stats = engine.Stats();
  outcome->Check(stats.queries_in_flight == 0,
                 "%s: %lld queries still in flight after the drain",
                 kName, static_cast<long long>(stats.queries_in_flight));
  const int64_t terminals = stats.queries_satisfied + stats.queries_recovered +
                            stats.queries_failed + stats.queries_timed_out;
  outcome->Check(terminals == stats.queries_finalized,
                 "%s: satisfied+recovered+failed+timed_out = %lld, "
                 "finalized = %lld",
                 kName, static_cast<long long>(terminals),
                 static_cast<long long>(stats.queries_finalized));
}

/// Mean long-run satisfaction (paper Definitions 1-2) of the consumers and
/// the alive providers.
std::pair<double, double> MeanSatisfaction(Engine& engine) {
  const sbqa::EngineSnapshot snapshot = engine.Snapshot();
  double consumers = 0;
  for (const auto& c : snapshot.consumers) consumers += c.satisfaction;
  double providers = 0;
  int alive = 0;
  for (const auto& p : snapshot.providers) {
    if (!p.alive) continue;
    providers += p.satisfaction;
    ++alive;
  }
  return {Ratio(consumers, static_cast<double>(snapshot.consumers.size())),
          Ratio(providers, alive)};
}

/// Builds and starts an engine whose workers share one core with the
/// driver, the `rotation`-th allowed core. On a virtual machine a thread
/// woken on an idle core waits for the hypervisor to run that core again:
/// with the workers on cores of their own, p50 rose from ~7 us to ~160 us
/// and p99 to ~7 ms at 50k q/s, and no ladder rung was sustained. On one
/// core a query's latency is the CPU time of its path through the engine.
Served StartEngine(uint64_t seed, bool traced, int rotation) {
  PinToCore(rotation);
  return BuildEngine(seed, traced);
}

/// Sets the engine up kSetupReps times, each on the next core, and returns
/// the median time.
double SetUpSeconds(uint64_t seed) {
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Served served = StartEngine(seed, false, rep);
    setups.push_back(served.setup_s);
    served.engine->Stop();
  }
  return Median(setups);
}

/// Self-time table of the traced nominal step: query (due -> callback)
/// against its engine.Submit child; also writes every kSpanSample-th
/// query's spans to a CSV under `out_dir`.
void SelfTimes(const Step& step, const RunOptions& options) {
  double query_total = 0;
  double submit_total = 0;
  double submit_covered = 0;
  const std::string path = options.out_dir + "/trace-" + kName + "-" +
                           std::to_string(options.seed) + ".csv";
  std::ofstream csv(path);
  csv << "query,span,start_ns,end_ns\n";
  for (int64_t i = 0; i < step.n; ++i) {
    const auto q = static_cast<size_t>(i);
    const int64_t due = step.DueNs(i);
    const int64_t end = due + step.latency_ns[q];
    const int64_t submit_start = due + step.late_ns[q];
    const int64_t submit_end = submit_start + step.submit_ns[q];
    query_total += static_cast<double>(end - due);
    submit_total += static_cast<double>(submit_end - submit_start);
    // The part of Submit inside [due, end]: the callback can fire on an
    // engine thread before Submit returns on the driver.
    submit_covered += static_cast<double>(std::max<int64_t>(
        0, std::min(submit_end, end) - std::max(submit_start, due)));
    if (i % kSpanSample == 0 && csv) {
      const int64_t t0 = step.t0_ns;
      csv << i << ",query," << due - t0 << "," << end - t0 << "\n";
      csv << i << ",engine.Submit," << submit_start - t0 << ","
          << submit_end - t0 << "\n";
    }
  }
  const double n = static_cast<double>(step.n);
  std::printf("\n  self-time table (traced nominal step, mean us per query; "
              "spans written to %s)\n",
              path.c_str());
  std::printf("    %-14s %10s %10s\n", "span", "total", "self");
  std::printf("    %-14s %10.2f %10.2f\n", "query", query_total / n / 1e3,
              (query_total - submit_covered) / n / 1e3);
  std::printf("    %-14s %10.2f %10.2f\n", "engine.Submit",
              submit_total / n / 1e3, submit_total / n / 1e3);
}

/// The highest ladder rate the engine sustains (0 when no rung is), by
/// bisection. A rung fails only on two valid attempts that miss the
/// conditions: one host hiccup near capacity must not end the search, and
/// an attempt whose generator ran later than its bound is rejected and run
/// again (at most four attempts in all).
double SustainedRate(Served& served, Step& step,
                     const std::vector<double>& ladder, double step_s,
                     RunOutcome* outcome) {
  bool exactly_once = true;
  const int knee = KneeSearch(kLadderRungs, [&](int rung) {
    int valid_failures = 0;
    for (int attempt = 0; attempt < 4 && valid_failures < 2; ++attempt) {
      const StepResult r = RunStep(served, step, ladder[rung], step_s, false);
      exactly_once = exactly_once && r.exactly_once && r.drained;
      char label[16];
      std::snprintf(label, sizeof(label), "rung %d", rung);
      PrintStep(label, r);
      if (r.Sustained(kP99LimitUs)) return true;
      if (r.late_p99_us <= kLateBoundUs) ++valid_failures;
    }
    return false;
  });
  outcome->Check(exactly_once,
                 "ladder: an accepted ticket lacks exactly one callback");
  outcome->Check(knee >= 0, "no ladder rung was sustained");
  return knee >= 0 ? ladder[knee] : 0;
}

}  // namespace

void PrintTableRow(const char* name, double value, const char* unit) {
  std::printf("    %-30s %16.4f %s\n", name, value, unit);
}

RunOutcome RunServeSmall(const RunOptions& options) {
  RunOutcome outcome;
  const std::vector<double> ladder =
      RateLadder(kLadderLowest, kLadderRatio, kLadderRungs);
  const double capacity_ratio = CapacityRatio(ladder.back());
  std::printf("%s: %u shards, %d providers, %d consumers (one hot), nominal "
              "%.0f q/s, ladder %.0f..%.0f q/s (x%.2f), p99 limit %.0f us, "
              "capacity ratio %.1f at the top rate\n",
              kName, kShards, kProviders, kConsumers, kNominalQps,
              ladder.front(), ladder.back(), kLadderRatio, kP99LimitUs,
              capacity_ratio);
  outcome.Check(capacity_ratio >= kMinCapacityRatio,
                "driver.capacity_ratio %.2f below %.0f: the ladder would "
                "measure the simulated providers",
                capacity_ratio, kMinCapacityRatio);
  // Time budget per round: a quarter of the run for the nominal step, 60%
  // for the knee search (one step per bisection probe, plus repeats for
  // about half of them).
  const double nominal_s = 0.25 * options.seconds / kRounds;
  const double ladder_step_s =
      0.6 * options.seconds /
      (kRounds * 1.5 * std::ceil(std::log2(ladder.size() + 1.0)));

  if (!options.trace) {
    const double setup_s = SetUpSeconds(options.seed);
    Step step(false);
    // kRounds rounds on fresh engines, each on the next core. Latencies are
    // the mean over the rounds, the sustained rate the upper quartile (a
    // ladder rung) and satisfaction the median.
    std::vector<double> p50s;
    std::vector<double> p99s;
    std::vector<double> sustained;
    std::vector<double> consumer_sats;
    std::vector<double> provider_sats;
    for (int round = 0; round < kRounds; ++round) {
      Served served = StartEngine(options.seed, false, round);
      WarmUp(served, step);
      const StepResult nominal =
          MeasureNominal(served, step, nominal_s, false, &outcome);
      p50s.push_back(nominal.p50_us);
      p99s.push_back(nominal.p99_us);
      outcome.attempted += nominal.n;
      outcome.failed += nominal.failed;
      outcome.Check(nominal.exactly_once && nominal.drained,
                    "nominal step: an accepted ticket lacks exactly one "
                    "callback");
      const auto [consumer_sat, provider_sat] =
          MeanSatisfaction(*served.engine);
      consumer_sats.push_back(consumer_sat);
      provider_sats.push_back(provider_sat);
      sustained.push_back(
          SustainedRate(served, step, ladder, ladder_step_s, &outcome));
      served.engine->WaitIdle(1.0);
      CheckEngine(*served.engine, &outcome);
      served.engine->Stop();
    }

    outcome.Add("setup_s", setup_s, "s");
    outcome.Add("peak_rss_mb", PeakRssMb(), "MB");
    outcome.Add("ok_share",
                1.0 - static_cast<double>(outcome.failed) /
                          static_cast<double>(outcome.attempted),
                "share");
    outcome.Add("throughput_qps", Percentile(sustained, 0.75), "1/s");
    outcome.Add("latency_p50_us", Mean(p50s), "us");
    outcome.Add("latency_p99_us", Mean(p99s), "us");
    outcome.Add("consumer_satisfaction", Median(consumer_sats), "score");
    outcome.Add("provider_satisfaction", Median(provider_sats), "score");
    return outcome;
  }

  // --- Traced run -----------------------------------------------------------
  StepResult baseline;
  {
    Served served = StartEngine(options.seed, false, 0);
    Step step(false);
    WarmUp(served, step);
    std::printf("  untraced baseline:\n");
    baseline = MeasureNominal(served, step, nominal_s, false, &outcome);
    served.engine->Stop();
  }
  Served served = StartEngine(options.seed, true, 0);
  Step step(true);
  WarmUp(served, step);
  Engine& engine = *served.engine;
  const std::vector<sbqa::EngineShardStats> shards_before = engine.ShardStats();
  const sbqa::EngineStats stats_before = engine.Stats();
  std::printf("  traced:\n");
  const StepResult traced =
      MeasureNominal(served, step, nominal_s, true, &outcome);
  const std::vector<sbqa::EngineShardStats> shards_after = engine.ShardStats();
  const sbqa::EngineStats stats_after = engine.Stats();
  SelfTimes(step, options);

  std::vector<uint32_t> submit(step.submit_ns.begin(),
                               step.submit_ns.begin() + traced.n);
  int64_t callbacks = 0;
  for (int64_t i = 0; i < traced.n; ++i) {
    callbacks += step.callbacks[static_cast<size_t>(i)].load();
  }

  // Overload counters at the top ladder rate.
  const StepResult stress =
      RunStep(served, step, ladder.back(), ladder_step_s, false);
  PrintStep("top rate", stress);
  engine.WaitIdle(1.0);
  CheckEngine(engine, &outcome);
  const sbqa::EngineStats stats = engine.Stats();
  engine.Stop();
  const sbqa::core::ScoreKernelPhases phases = engine.DecisionPhases();

  const double n = static_cast<double>(traced.n);
  const double finalized = static_cast<double>(stats.queries_finalized);
  int64_t tasks = 0;
  std::vector<double> submitted;
  double submitted_sum = 0;
  for (size_t s = 0; s < shards_after.size(); ++s) {
    tasks += shards_after[s].tasks_executed - shards_before[s].tasks_executed;
    submitted.push_back(static_cast<double>(
        shards_after[s].queries_submitted - shards_before[s].queries_submitted));
    submitted_sum += submitted.back();
  }
  const double skew =
      Ratio(*std::max_element(submitted.begin(), submitted.end()),
            submitted_sum / static_cast<double>(submitted.size()));
  const double decision_us =
      Ratio(phases.total_ns(), static_cast<double>(phases.decisions)) / 1e3;
  // Virtual work of the slowest provider (capacity 1.0).
  const double work_us = kCost / ProviderCapacity(0) * 1e6;

  outcome.attempted = traced.n;
  outcome.failed = traced.failed;
  outcome.Check(callbacks == traced.n,
                "traced step: %lld callbacks for %lld queries",
                static_cast<long long>(callbacks),
                static_cast<long long>(traced.n));
  outcome.Add("engine.shed", static_cast<double>(stress.shed), "count");
  outcome.Add("engine.inflight_max", stress.inflight_max, "count");
  outcome.Add("engine.callbacks_per_query", static_cast<double>(callbacks) / n,
              "ratio");
  outcome.Add("runtime.tasks_per_query", static_cast<double>(tasks) / n,
              "ratio");
  outcome.Add("runtime.barriers_per_s",
              static_cast<double>(stats_after.shard_barriers -
                                  stats_before.shard_barriers) /
                  traced.wall_s,
              "1/s");
  outcome.Add("runtime.early_barriers",
              static_cast<double>(stats_after.shard_early_barriers -
                                  stats_before.shard_early_barriers),
              "count");
  outcome.Add("runtime.shard_skew", skew, "ratio");
  AddDecisionPhases(phases, finalized, &outcome);
  outcome.Add("mediator.instances_per_query",
              Ratio(static_cast<double>(stats.instances_dispatched), finalized),
              "ratio");
  outcome.Add("mediator.retry_attempts",
              static_cast<double>(stats.retry_attempts), "count");
  outcome.Add("mediator.recovered",
              static_cast<double>(stats.queries_recovered), "count");
  outcome.Add("mediator.timed_out",
              static_cast<double>(stats.queries_timed_out), "count");
  outcome.Add("registry.membership_ops", 0, "count");
  outcome.Add("registry.epoch_apply_share", 0, "share");
  outcome.Add("federation.delegated_share",
              Ratio(static_cast<double>(stats.queries_delegated), finalized),
              "share");
  outcome.Add("federation.mean_hops", 0, "hops");
  outcome.Add("sim.messages_per_query", 0, "ratio");
  outcome.Add("sim.shard_mediation_skew", 0, "ratio");
  outcome.Add("alloc.per_query", static_cast<double>(traced.allocations) / n,
              "ratio");
  outcome.Add("driver.capacity_ratio", capacity_ratio, "ratio");

  // Serve-only timings: printed here and in the span file, not in the
  // JSON (the simulated workload has no Submit or driver).
  std::printf("\n  serve-only layer timings (traced nominal step):\n");
  PrintTableRow("engine.submit_ns_p50", Percentile(submit, 0.5), "ns");
  PrintTableRow("engine.submit_ns_p99", Percentile(submit, 0.99), "ns");
  PrintTableRow("runtime.wait_us_p50",
                traced.p50_us - decision_us - work_us, "us");
  PrintTableRow("driver.late_us_p99", traced.late_p99_us, "us");
  PrintTableRow("driver.late_us_max", traced.late_max_us, "us");
  std::printf("\n  tracing overhead at %.0f q/s: latency p50 %.1f -> %.1f us "
              "(%+.1f%%), p99 %.1f -> %.1f us\n",
              kNominalQps, baseline.p50_us, traced.p50_us,
              100.0 * Ratio(traced.p50_us - baseline.p50_us, baseline.p50_us),
              baseline.p99_us, traced.p99_us);
  return outcome;
}

}  // namespace perfbench
