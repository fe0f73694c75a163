/// \file
/// The simulated BOINC workload: experiments::RunScenario on 3 shards with
/// churn, joins, dropped dispatches under retries and a deadline, and one
/// scarce project that only shard 0's volunteers can treat, so its queries
/// cross shards.
///
/// Untraced run: the scenario at a 1 ms horizon several times (setup_s),
/// then the full scenario repeatedly until the time budget is spent (at
/// least three times; each repetition is compared with the first one's
/// outcome metrics bit for bit). Traced run: one untraced repetition (the
/// overhead baseline), then one with decision timing and per-shard
/// observers stamping mediations and completions with the wall clock.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/mediation.h"
#include "core/registry.h"
#include "experiments/demo_scenarios.h"
#include "experiments/runner.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace experiments = sbqa::experiments;
namespace core = sbqa::core;
namespace model = sbqa::model;

constexpr size_t kVolunteers = 5000;
constexpr uint32_t kShards = 3;
constexpr double kDuration = 600.0;  // simulated seconds
constexpr double kSetupDuration = 1e-3;
constexpr int kSetupReps = 21;
constexpr int kMaxRuns = 64;
constexpr double kDeadline = 20.0;  // simulated seconds per query
/// An attempt with no result by then is retried. Well below the deadline,
/// so a dropped dispatch can be re-mediated in time.
constexpr double kAttemptTimeout = 10.0;
/// Project 2 lives on shard 2 (consumers shard by id), but of the initial
/// population only shard 0's provider block may treat its class, so its
/// queries borrow until volunteers that join later (unrestricted) can
/// serve them locally.
constexpr size_t kScarceProject = 2;
constexpr uint32_t kDonorShard = 0;
/// The donor block also serves project 0; a quarter of the demo rate keeps
/// it under ~70% utilization.
constexpr double kScarceRateFactor = 0.25;
/// Gaps between two observed events of one shard longer than this are
/// barrier waits or idle time, not work for the later event.
constexpr int64_t kGapCapNs = 100000;
constexpr size_t kSpanCapacity = 1 << 16;
constexpr int kSpanSample = 64;

experiments::ScenarioConfig SimBoincConfig(uint64_t seed, double duration) {
  experiments::ScenarioConfig config =
      experiments::BaseDemoConfig(seed, kVolunteers, duration);
  config.sim.shard_count = kShards;
  // Shards run one after another on the driver thread. Threaded shards
  // meet at a barrier every 5 simulated ms, so one stalled core stalls all
  // of them: on a loaded shared host the threaded rate fell from ~80k to
  // 26k queries/s, while serial runs held ~130k. The threaded runs of this
  // scenario were also not bit-reproducible (see README.md).
  config.sim.shard_use_threads = false;
  config.churn.enabled = true;
  config.joins.enabled = true;
  config.fault_plan.seed = seed;
  config.fault_plan.drop_send_prob = 0.05;
  config.mediator.max_retries = 2;
  config.mediator.query_timeout = kAttemptTimeout;
  config.query_deadline = kDeadline;
  config.population.projects[kScarceProject].arrival_rate *= kScarceRateFactor;
  config.population_hook = [](core::Registry* registry,
                              const sbqa::boinc::BuiltPopulation& population,
                              sbqa::util::Rng*) {
    // Same contiguous blocks as Registry::SetShardCount.
    const size_t count = population.volunteers.size();
    const size_t block = (count + kShards - 1) / kShards;
    for (size_t i = 0; i < count; ++i) {
      if (i / block == kDonorShard) continue;
      registry->provider(population.volunteers[i])
          .RestrictClasses({model::QueryClassId{0}, model::QueryClassId{1}});
    }
  };
  return config;
}

/// Total volunteer capacity over the offered work rate.
double CapacityRatio(const experiments::ScenarioConfig& config) {
  const auto& v = config.population.volunteers;
  const double capacity =
      static_cast<double>(v.count) * 0.5 * (v.capacity_min + v.capacity_max);
  double offered = 0;
  for (const auto& project : config.population.projects) {
    offered += project.arrival_rate * project.replication * project.cost.mean();
  }
  return Ratio(capacity, offered);
}

/// One shard's observer: counts and wall-clock gaps for the shard's
/// mediations and completions (single writer: the shard's worker).
class ShardTracer final : public core::MediationObserver {
 public:
  struct Span {
    uint32_t shard;
    bool mediation;
    int64_t start_ns;
    int64_t end_ns;
  };

  ShardTracer(uint32_t shard, std::vector<Span>* spans, size_t span_base)
      : shard_(shard), spans_(spans), span_next_(span_base),
        span_end_(span_base + kSpanCapacity / kShards) {}

  void OnMediation(const model::Query&, const core::AllocationDecision& d,
                   double) override {
    ++mediations_;
    instances_ += static_cast<int64_t>(d.selected.size());
    mediation_ns_ += Stamp(true);
  }
  void OnQueryCompleted(const core::QueryOutcome&) override {
    ++completions_;
    completion_ns_ += Stamp(false);
  }

  int64_t mediations() const { return mediations_; }
  int64_t completions() const { return completions_; }
  int64_t instances() const { return instances_; }
  double mediation_ns() const { return static_cast<double>(mediation_ns_); }
  double completion_ns() const { return static_cast<double>(completion_ns_); }

 private:
  /// Wall time since this shard's previous event, when short enough to be
  /// the work leading to this one.
  int64_t Stamp(bool mediation) {
    const int64_t now = NowNs();
    const int64_t gap = last_ns_ == 0 ? 0 : now - last_ns_;
    const int64_t work = gap <= kGapCapNs ? gap : 0;
    if (++events_ % kSpanSample == 0 && span_next_ < span_end_) {
      (*spans_)[span_next_++] = {shard_, mediation, now - work, now};
    }
    last_ns_ = now;
    return work;
  }

  uint32_t shard_;
  std::vector<Span>* spans_;
  size_t span_next_;
  size_t span_end_;
  int64_t last_ns_ = 0;
  int64_t events_ = 0;
  int64_t mediations_ = 0;
  int64_t completions_ = 0;
  int64_t instances_ = 0;
  int64_t mediation_ns_ = 0;
  int64_t completion_ns_ = 0;
};

struct SimRun {
  experiments::RunResult result;
  double wall_s = 0;
};

SimRun RunOnce(const experiments::ScenarioConfig& config) {
  SimRun run;
  const int64_t start = NowNs();
  run.result = experiments::RunScenario(config);
  run.wall_s = SecondsSince(start);
  return run;
}

/// Whether two same-seed runs reproduced the outcome metrics exactly; prints
/// each field that differs.
bool SameOutcome(const sbqa::metrics::RunSummary& a,
                 const sbqa::metrics::RunSummary& b) {
  bool identical = true;
  const auto same = [&identical](const char* field, double x, double y) {
    if (x != y) {
      identical = false;
      std::printf("NONDETERMINISM: same-seed runs differ in %s: %.17g vs "
                  "%.17g\n",
                  field, x, y);
    }
  };
  same("consumer_satisfaction", a.consumer_satisfaction,
       b.consumer_satisfaction);
  same("provider_satisfaction", a.provider_satisfaction,
       b.provider_satisfaction);
  same("mean_response_time", a.mean_response_time, b.mean_response_time);
  same("p50_response_time", a.p50_response_time, b.p50_response_time);
  same("p99_response_time", a.p99_response_time, b.p99_response_time);
  const auto count = [&same](const char* field, int64_t x, int64_t y) {
    same(field, static_cast<double>(x), static_cast<double>(y));
  };
  count("queries_submitted", a.queries_submitted, b.queries_submitted);
  count("queries_finalized", a.queries_finalized, b.queries_finalized);
  count("queries_satisfied", a.queries_satisfied, b.queries_satisfied);
  count("queries_recovered", a.queries_recovered, b.queries_recovered);
  count("queries_failed", a.queries_failed, b.queries_failed);
  count("queries_timed_out", a.queries_timed_out, b.queries_timed_out);
  count("queries_unallocated", a.queries_unallocated, b.queries_unallocated);
  count("queries_delegated", a.queries_delegated, b.queries_delegated);
  count("retry_attempts", a.retry_attempts, b.retry_attempts);
  count("fault_sends_dropped", a.fault_sends_dropped, b.fault_sends_dropped);
  count("messages_sent", static_cast<int64_t>(a.messages_sent),
        static_cast<int64_t>(b.messages_sent));
  return identical;
}

void CheckTerminal(const sbqa::metrics::RunSummary& s, RunOutcome* outcome) {
  outcome->Check(s.queries_submitted == s.queries_finalized,
                 "sim_boinc: %lld submitted, %lld finalized",
                 static_cast<long long>(s.queries_submitted),
                 static_cast<long long>(s.queries_finalized));
  const int64_t terminals = s.queries_satisfied + s.queries_recovered +
                            s.queries_failed + s.queries_timed_out +
                            s.queries_unallocated;
  outcome->Check(terminals == s.queries_finalized,
                 "sim_boinc: satisfied+recovered+failed+timed_out"
                 "+unallocated = %lld, finalized = %lld",
                 static_cast<long long>(terminals),
                 static_cast<long long>(s.queries_finalized));
}

void PrintRun(const char* label, const SimRun& run, double setup_s) {
  const auto& s = run.result.summary;
  std::printf("  %-9s wall %6.3f s  %8lld finalized  %9.0f sim q/s  "
              "timed out %6lld  recovered %5lld  delegated %6lld\n",
              label, run.wall_s, static_cast<long long>(s.queries_finalized),
              static_cast<double>(s.queries_finalized) / (run.wall_s - setup_s),
              static_cast<long long>(s.queries_timed_out),
              static_cast<long long>(s.queries_recovered),
              static_cast<long long>(s.queries_delegated));
}

}  // namespace

RunOutcome RunSimBoinc(const RunOptions& options) {
  RunOutcome outcome;
  const experiments::ScenarioConfig config =
      SimBoincConfig(options.seed, kDuration);
  std::printf("sim_boinc: %zu volunteers, %zu projects, %u shards, %.0f "
              "simulated s, churn + joins, 5%% dropped dispatches "
              "(%.0f s attempt timeout, max_retries 2, %.0f s deadline), "
              "project %zu scarce (shard %u only), capacity/offered work "
              "%.2f\n",
              kVolunteers, config.population.projects.size(), kShards,
              kDuration, kAttemptTimeout, kDeadline, kScarceProject,
              kDonorShard, CapacityRatio(config));

  const auto median_setup = [&options] {
    std::vector<double> setups;
    const experiments::ScenarioConfig setup_config =
        SimBoincConfig(options.seed, kSetupDuration);
    for (int rep = 0; rep < kSetupReps; ++rep) {
      PinToCore(rep);
      setups.push_back(RunOnce(setup_config).wall_s);
    }
    return Median(setups);
  };

  if (!options.trace) {
    const double setup_s = median_setup();
    // The first repetition warms up (page faults, pool growth) and is the
    // reference the others must reproduce; the rest are timed, each on the
    // next core. Repetition times are bimodal: the host's cores switch
    // between a fast and a slow state every few minutes, so a median over
    // the repetitions jumps between the two. The upper quartile of the
    // rate stays within the fast state.
    std::vector<SimRun> runs;
    double peak_rss_mb = 0;  // after the first full repetition
    const int64_t start = NowNs();
    while (runs.size() < 3 ||
           (SecondsSince(start) < options.seconds &&
            runs.size() < static_cast<size_t>(kMaxRuns))) {
      PinToCore(static_cast<int>(runs.size()));
      runs.push_back(RunOnce(config));
      if (runs.size() == 1) peak_rss_mb = PeakRssMb();
      PrintRun("run", runs.back(), setup_s);
      CheckTerminal(runs.back().result.summary, &outcome);
    }
    const auto& first = runs.front().result.summary;
    std::vector<double> qps;
    for (const SimRun& run : runs) {
      outcome.Check(SameOutcome(first, run.result.summary),
                    "sim_boinc: same-seed repetitions differ in their "
                    "outcome metrics");
      outcome.attempted += run.result.summary.queries_submitted;
      outcome.failed += run.result.summary.queries_submitted -
                        run.result.summary.queries_finalized;
      if (&run == &runs.front()) continue;
      qps.push_back(static_cast<double>(run.result.summary.queries_finalized) /
                    (run.wall_s - setup_s));
    }
    outcome.Add("setup_s", setup_s, "s");
    outcome.Add("peak_rss_mb", peak_rss_mb, "MB");
    outcome.Add("ok_share",
                Ratio(static_cast<double>(first.queries_satisfied +
                                          first.queries_recovered),
                      static_cast<double>(first.queries_submitted)),
                "share");
    outcome.Add("throughput_qps", Percentile(qps, 0.75), "1/s");
    outcome.Add("latency_p50_us", first.p50_response_time * 1e6, "us");
    outcome.Add("latency_p99_us", first.p99_response_time * 1e6, "us");
    outcome.Add("consumer_satisfaction", first.consumer_satisfaction, "score");
    outcome.Add("provider_satisfaction", first.provider_satisfaction, "score");
    return outcome;
  }

  // --- Traced run -----------------------------------------------------------
  const double setup_s = median_setup();
  // Both repetitions on one core, so the overhead compares like with like.
  PinToCore(0);
  const SimRun baseline = RunOnce(config);
  PrintRun("untraced", baseline, setup_s);
  std::vector<ShardTracer::Span> spans(kSpanCapacity);
  std::vector<std::unique_ptr<ShardTracer>> tracers;
  for (uint32_t s = 0; s < kShards; ++s) {
    tracers.push_back(std::make_unique<ShardTracer>(
        s, &spans, s * (kSpanCapacity / kShards)));
  }
  experiments::ScenarioConfig traced_config = config;
  traced_config.sim.decision_timing = true;
  traced_config.shard_observer_factory = [&tracers](uint32_t s) {
    return tracers[s].get();
  };
  const uint64_t allocations_before = AllocationsSoFar();
  const SimRun traced = RunOnce(traced_config);
  const uint64_t allocations = AllocationsSoFar() - allocations_before;
  PrintRun("traced", traced, setup_s);
  const auto& s = traced.result.summary;
  CheckTerminal(s, &outcome);
  outcome.Check(SameOutcome(baseline.result.summary, s),
                "sim_boinc: the traced run's outcome metrics differ from the "
                "untraced run's");
  outcome.attempted = s.queries_submitted;
  outcome.failed = s.queries_submitted - s.queries_finalized;

  const double finalized = static_cast<double>(s.queries_finalized);
  int64_t completions = 0;
  int64_t instances = 0;
  std::vector<double> mediations;
  for (const auto& tracer : tracers) {
    completions += tracer->completions();
    instances += tracer->instances();
    mediations.push_back(static_cast<double>(tracer->mediations()));
  }
  double mediation_sum = 0;
  for (const double m : mediations) mediation_sum += m;
  const double mediation_skew =
      Ratio(*std::max_element(mediations.begin(), mediations.end()),
            mediation_sum / kShards);
  outcome.Check(completions == s.queries_finalized,
                "sim_boinc: %lld completions observed for %lld finalized",
                static_cast<long long>(completions),
                static_cast<long long>(s.queries_finalized));

  // Self-time table: the scenario span against its per-shard children.
  const std::string path = options.out_dir + "/trace-sim_boinc-" +
                           std::to_string(options.seed) + ".csv";
  std::ofstream csv(path);
  csv << "shard,span,start_ns,end_ns\n";
  for (const auto& span : spans) {
    if (span.end_ns == 0) continue;
    csv << span.shard << ","
        << (span.mediation ? "shard.mediation" : "shard.completion") << ","
        << span.start_ns << "," << span.end_ns << "\n";
  }
  std::printf("\n  self-time table (traced run, wall seconds; spans written "
              "to %s)\n",
              path.c_str());
  std::printf("    %-22s %10s %10s\n", "span", "total", "self");
  std::printf("    %-22s %10.3f %10s\n", "sim.RunScenario", traced.wall_s,
              "");
  for (uint32_t shard = 0; shard < kShards; ++shard) {
    const ShardTracer& t = *tracers[shard];
    const double covered = (t.mediation_ns() + t.completion_ns()) / 1e9;
    std::printf("    shard%u.mediation       %10.3f %10.3f\n", shard,
                t.mediation_ns() / 1e9, t.mediation_ns() / 1e9);
    std::printf("    shard%u.completion      %10.3f %10.3f\n", shard,
                t.completion_ns() / 1e9, t.completion_ns() / 1e9);
    std::printf("    shard%u (self: barriers, setup, other events) %10.3f\n",
                shard, traced.wall_s - covered);
  }

  outcome.Add("engine.shed", 0, "count");
  outcome.Add("engine.inflight_max", 0, "count");
  outcome.Add("engine.callbacks_per_query",
              Ratio(static_cast<double>(completions), finalized), "ratio");
  outcome.Add("runtime.tasks_per_query", 0, "ratio");
  outcome.Add("runtime.barriers_per_s", 0, "1/s");
  outcome.Add("runtime.early_barriers", 0, "count");
  outcome.Add("runtime.shard_skew", 0, "ratio");
  AddDecisionPhases(traced.result.decision_phases, finalized, &outcome);
  outcome.Add("mediator.instances_per_query",
              Ratio(static_cast<double>(instances), finalized), "ratio");
  outcome.Add("mediator.retry_attempts",
              static_cast<double>(s.retry_attempts), "count");
  outcome.Add("mediator.recovered", static_cast<double>(s.queries_recovered),
              "count");
  outcome.Add("mediator.timed_out", static_cast<double>(s.queries_timed_out),
              "count");
  outcome.Add("registry.membership_ops",
              static_cast<double>(traced.result.membership_ops), "count");
  outcome.Add("registry.epoch_apply_share",
              Ratio(traced.result.membership_apply_seconds, traced.wall_s),
              "share");
  outcome.Add("federation.delegated_share",
              Ratio(static_cast<double>(s.queries_delegated), finalized),
              "share");
  outcome.Add("federation.mean_hops", s.mean_borrow_hops, "hops");
  outcome.Add("sim.messages_per_query",
              Ratio(static_cast<double>(s.messages_sent), finalized), "ratio");
  outcome.Add("sim.shard_mediation_skew", mediation_skew, "ratio");
  outcome.Add("alloc.per_query",
              Ratio(static_cast<double>(allocations), finalized), "ratio");
  outcome.Add("driver.capacity_ratio", CapacityRatio(config), "ratio");

  const double base_qps = finalized / (baseline.wall_s - setup_s);
  const double traced_qps = finalized / (traced.wall_s - setup_s);
  std::printf("\n  tracing overhead: sim q/s %.0f -> %.0f (%+.1f%%)\n",
              base_qps, traced_qps,
              100.0 * Ratio(traced_qps - base_qps, base_qps));
  return outcome;
}

}  // namespace perfbench
