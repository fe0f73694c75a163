/// \file
/// Population-scaling bench, two layers:
///
/// 1. Mediation hot path, 1k -> 100k providers at fixed k=20 / kn=8: the
///    per-query allocation decision measured (a) the way the seed repo did
///    it — full registry scan for Pq, backlogs of every candidate, shuffle
///    + stable_sort KnBest — and (b) through the candidate index + O(k)
///    sampler. The paper's claim is that (b) is flat in |P|; the JSON dump
///    (BENCH_scaling.json) records both so the before/after is part of the
///    repo's perf trajectory.
///
/// 2. End-to-end demo workload from 50 to 800 volunteers at constant
///    offered load (arrival rates scale with the population): do SbQA's
///    satisfaction/latency properties hold as the system grows, and how
///    fast does the simulator chew through it.

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/knbest.h"
#include "core/mediator.h"
#include "core/registry.h"
#include "core/sbqa.h"
#include "core/score.h"
#include "model/reputation.h"
#include "sim/simulation.h"

using namespace sbqa;

namespace {

constexpr size_t kK = 20;
constexpr size_t kKn = 8;

core::SbqaParams DefaultBenchParams() {
  core::SbqaParams sbqa_params;
  sbqa_params.knbest = core::KnBestParams{kK, kKn};
  return sbqa_params;
}

/// One population fixture: registry + mediator wired for decision-only
/// measurements (zero-latency hops, no event traffic). The kernel
/// sweep passes `trading_policies` so both the consumer- and the
/// provider-intention math runs its most expensive (blending) branch.
struct AllocationFixture {
  explicit AllocationFixture(size_t providers)
      : AllocationFixture(providers, DefaultBenchParams(), false) {}

  AllocationFixture(size_t providers, const core::SbqaParams& sbqa_params,
                    bool trading_policies)
      : simulation(sim::SimulationConfig{
            .seed = 42, .latency_median = 0, .latency_sigma = 0}) {
    core::ConsumerParams consumer_params;
    consumer_params.policy_kind =
        model::ConsumerPolicyKind::kReputationTrading;
    registry.AddConsumer(consumer_params);
    util::Rng setup(7);
    for (size_t i = 0; i < providers; ++i) {
      core::ProviderParams params;
      params.capacity = setup.Uniform(0.5, 2.0);
      if (trading_policies) {
        params.policy_kind = model::ProviderPolicyKind::kUtilizationTrading;
      }
      const model::ProviderId id = registry.AddProvider(params);
      registry.provider(id).preferences().Set(0, setup.Uniform(-1, 1));
      registry.consumer(0).preferences().Set(id, setup.Uniform(-1, 1));
      // Give providers distinct backlogs so the load filter has real work.
      registry.provider(id).Enqueue(0.0, setup.Uniform(0.0, 20.0));
    }
    reputation =
        std::make_unique<model::ReputationRegistry>(registry.provider_count());
    core::MediatorConfig config;
    config.scoring_kernel = sbqa_params.scoring_kernel;
    mediator = std::make_unique<core::Mediator>(
        &simulation.runtime(), &registry, reputation.get(),
        std::make_unique<core::SbqaMethod>(sbqa_params), config);
    method = std::make_unique<core::SbqaMethod>(sbqa_params);
  }

  model::Query NextQuery() {
    model::Query query;
    query.id = ++next_query_id;
    query.consumer = 0;
    query.query_class = 0;
    query.n_results = 3;
    query.cost = 5;
    return query;
  }

  sim::Simulation simulation;
  core::Registry registry;
  std::unique_ptr<model::ReputationRegistry> reputation;
  std::unique_ptr<core::Mediator> mediator;
  std::unique_ptr<core::SbqaMethod> method;
  model::QueryId next_query_id = 0;
};

/// The seed repository's per-query mediation cost, reproduced faithfully:
/// O(P) registry scan for Pq, O(P) backlog gathering, O(P log P) shuffle +
/// stable_sort KnBest, then SQLB scoring of Kn.
double LegacyFullScanDecision(AllocationFixture& fix, util::Rng& rng) {
  const model::Query query = fix.NextQuery();
  // Pq by full scan (seed Registry::ProvidersFor).
  std::vector<model::ProviderId> candidates;
  candidates.reserve(fix.registry.provider_count());
  for (const core::Provider& p : fix.registry.providers()) {
    if (p.alive() && p.CanTreat(query.query_class)) {
      candidates.push_back(p.id());
    }
  }
  // Backlogs of every candidate (seed SbqaMethod phase 1 input).
  const std::vector<double> backlogs = fix.mediator->BacklogsOf(candidates);
  // Seed SelectKnBest: iota + shuffle/sample + stable_sort over the sample.
  std::vector<size_t> indices(candidates.size());
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  std::vector<size_t> k_set =
      rng.SampleWithoutReplacement(std::move(indices), kK);
  std::stable_sort(k_set.begin(), k_set.end(),
                   [&backlogs](size_t a, size_t b) {
                     return backlogs[a] < backlogs[b];
                   });
  k_set.resize(std::min<size_t>(kKn, k_set.size()));
  std::vector<model::ProviderId> kn;
  kn.reserve(k_set.size());
  for (size_t index : k_set) kn.push_back(candidates[index]);
  // SQLB scoring of Kn (unchanged between seed and index paths).
  const std::vector<double> pi =
      fix.mediator->ComputeProviderIntentions(query, kn);
  const std::vector<double> ci =
      fix.mediator->ComputeConsumerIntentions(query, kn);
  double best = -1e300;
  for (size_t i = 0; i < kn.size(); ++i) {
    best = std::max(best, core::ProviderScore(pi[i], ci[i], 0.5, 1.0));
  }
  return best;
}

/// The indexed path: exactly what Mediator::OnQueryArrival does now (the
/// decision object is reused across calls, like the mediator's pooled
/// slots).
double IndexedDecision(AllocationFixture& fix,
                       std::vector<model::ProviderId>& scratch,
                       core::AllocationDecision& decision) {
  const model::Query query = fix.NextQuery();
  const core::CandidateSet candidates =
      fix.registry.CandidatesFor(query, &scratch);
  core::AllocationContext ctx;
  ctx.query = &query;
  ctx.candidates = &candidates;
  ctx.mediator = fix.mediator.get();
  ctx.now = 0;
  decision.Clear();
  fix.method->Allocate(ctx, &decision);
  return decision.selected.empty() ? 0.0
                                   : static_cast<double>(decision.selected[0]);
}

/// Runs `fn` until ~0.15s elapsed, returns mean ns per call.
template <typename Fn>
double MeasureNsPerCall(Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  double sink = 0;
  // Warm-up.
  for (int i = 0; i < 32; ++i) sink += fn();
  int64_t calls = 0;
  const auto start = Clock::now();
  double elapsed_ns = 0;
  while (elapsed_ns < 0.15e9) {
    for (int i = 0; i < 32; ++i) sink += fn();
    calls += 32;
    elapsed_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  }
  // Keep the compiler honest about `sink`.
  if (sink == 0.123456789) std::printf(" ");
  return elapsed_ns / static_cast<double>(calls);
}

struct SweepRow {
  size_t providers;
  double full_scan_ns;
  double indexed_ns;
};

/// One row of the scoring-kernel sweep: per-decision wall cost plus the
/// kernel's own per-phase breakdown (means over the measured decisions).
struct KernelSweepRow {
  size_t kn = 0;
  const char* kernel = "";
  int64_t decisions = 0;
  double decision_ns = 0;
  double sample_ns = 0;
  double gather_ns = 0;
  double intentions_ns = 0;
  double score_ns = 0;
  double rank_ns = 0;
};

/// Measures one (kn, kernel) point: a fixed 2000-provider trading-policy
/// population, k = 2*kn candidates, decision timing on. The phase means
/// come from the kernel's own brackets, so exact vs batched pays the same
/// clock overhead per phase and the ratio isolates the math.
KernelSweepRow MeasureKernel(size_t kn, core::ScoreKernelKind kind) {
  core::SbqaParams params;
  params.knbest = core::KnBestParams{2 * kn, kn};
  params.scoring_kernel = kind;
  params.decision_timing = true;
  AllocationFixture fix(2000, params, /*trading_policies=*/true);
  std::vector<model::ProviderId> scratch;
  core::AllocationDecision decision;
  // Warm the pools before the phase counters start.
  for (int i = 0; i < 64; ++i) IndexedDecision(fix, scratch, decision);
  fix.method->kernel().ResetPhases();
  const double wall_ns = MeasureNsPerCall([&fix, &scratch, &decision] {
    return IndexedDecision(fix, scratch, decision);
  });
  const core::ScoreKernelPhases& phases = fix.method->kernel().phases();
  const double n = std::max<double>(1.0, static_cast<double>(phases.decisions));
  KernelSweepRow row;
  row.kn = kn;
  row.kernel = core::ToString(kind);
  row.decisions = phases.decisions;
  row.decision_ns = wall_ns;
  row.sample_ns = static_cast<double>(phases.sample_ns) / n;
  row.gather_ns = static_cast<double>(phases.gather_ns) / n;
  row.intentions_ns = static_cast<double>(phases.intentions_ns) / n;
  row.score_ns = static_cast<double>(phases.score_ns) / n;
  row.rank_ns = static_cast<double>(phases.rank_ns) / n;
  return row;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Population scaling of the mediation hot path",
      "Per-query allocation decision, 1k..100k providers, k=20 / kn=8 "
      "fixed:\nseed-style full scan vs candidate index + O(k) sampling.");

  const size_t max_providers =
      bench::EnvOr("SBQA_BENCH_MAX_PROVIDERS", 100000);
  std::vector<SweepRow> sweep;
  util::TextTable alloc_table;
  alloc_table.SetHeader({"providers", "full_scan(ns/q)", "indexed(ns/q)",
                         "speedup", "indexed_vs_1k"});
  double indexed_at_1k = 0;
  for (size_t providers : {1000u, 3000u, 10000u, 30000u, 100000u}) {
    if (providers > max_providers) break;
    AllocationFixture fix(providers);
    util::Rng legacy_rng(17);
    const double full_ns = MeasureNsPerCall(
        [&fix, &legacy_rng] { return LegacyFullScanDecision(fix, legacy_rng); });
    std::vector<model::ProviderId> scratch;
    core::AllocationDecision decision;
    const double indexed_ns = MeasureNsPerCall([&fix, &scratch, &decision] {
      return IndexedDecision(fix, scratch, decision);
    });
    if (indexed_at_1k == 0) indexed_at_1k = indexed_ns;
    sweep.push_back({providers, full_ns, indexed_ns});
    alloc_table.AddRow({util::StrFormat("%zu", providers),
                        util::FormatDouble(full_ns, 0),
                        util::FormatDouble(indexed_ns, 0),
                        util::StrFormat("%.1fx", full_ns / indexed_ns),
                        util::StrFormat("%.2fx", indexed_ns / indexed_at_1k)});
  }
  std::printf("%s\n", alloc_table.ToString().c_str());
  std::printf(
      "Shape check: the full-scan column grows linearly with the population\n"
      "while the indexed column stays near-flat — per-query mediation cost\n"
      "now depends on k/kn, not |P|.\n\n");

  bench::PrintHeader(
      "Scoring-kernel sweep on the decision hot path",
      "Per-decision phase breakdown, exact vs batched SoA kernel,\n"
      "2000 providers, trading policies, k = 2*kn, kn in {8, 32, 128}.");

  std::vector<KernelSweepRow> kernel_sweep;
  util::TextTable kernel_table;
  kernel_table.SetHeader({"kn", "kernel", "decision(ns)", "sample", "gather",
                          "intent", "score", "rank", "hot.speedup"});
  for (size_t kn : {8u, 32u, 128u}) {
    double exact_hot = 0;
    for (core::ScoreKernelKind kind :
         {core::ScoreKernelKind::kExact, core::ScoreKernelKind::kBatched}) {
      kernel_sweep.push_back(MeasureKernel(kn, kind));
      const KernelSweepRow& row = kernel_sweep.back();
      const double hot = row.intentions_ns + row.score_ns;
      if (kind == core::ScoreKernelKind::kExact) exact_hot = hot;
      kernel_table.AddRow(
          {util::StrFormat("%zu", row.kn), row.kernel,
           util::FormatDouble(row.decision_ns, 0),
           util::FormatDouble(row.sample_ns, 0),
           util::FormatDouble(row.gather_ns, 0),
           util::FormatDouble(row.intentions_ns, 0),
           util::FormatDouble(row.score_ns, 0),
           util::FormatDouble(row.rank_ns, 0),
           kind == core::ScoreKernelKind::kExact
               ? std::string("1.0x")
               : util::StrFormat("%.1fx", hot > 0 ? exact_hot / hot : 0.0)});
    }
  }
  std::printf("%s\n", kernel_table.ToString().c_str());
  std::printf(
      "hot.speedup = exact (intentions+score) over batched at the same kn;\n"
      "the CI gate (--mode scaling) holds the batched kernel above 2x.\n\n");

  bench::PrintHeader(
      "End-to-end demo workload at constant offered load",
      "50..800 volunteers, arrival rates scaled, k=20 / kn=8 fixed.");

  struct EndToEndRow {
    size_t volunteers;
    int64_t queries;
    double consumer_satisfaction;
    double provider_satisfaction;
    double mean_rt;
    double wall_ms;
  };
  std::vector<EndToEndRow> e2e;
  util::TextTable table;
  table.SetHeader({"volunteers", "queries", "cons.sat", "prov.sat",
                   "mean.rt(s)", "p95.rt", "busy.gini", "wall(ms)",
                   "sim.speedup"});
  for (size_t volunteers : {50u, 100u, 200u, 400u, 800u}) {
    experiments::ScenarioConfig config = experiments::WithCaptiveEnvironment(
        experiments::BaseDemoConfig(/*seed=*/42, volunteers,
                                    /*duration=*/300.0));
    config.method =
        experiments::MethodSpec::Sbqa(experiments::DefaultSbqaParams());

    const auto start = std::chrono::steady_clock::now();
    const experiments::RunResult r = experiments::RunScenario(config);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    e2e.push_back({volunteers, r.summary.queries_finalized,
                   r.summary.consumer_satisfaction,
                   r.summary.provider_satisfaction,
                   r.summary.mean_response_time, wall_ms});

    table.AddRow({util::StrFormat("%zu", volunteers),
                  util::StrFormat("%lld", static_cast<long long>(
                                              r.summary.queries_finalized)),
                  util::FormatDouble(r.summary.consumer_satisfaction, 3),
                  util::FormatDouble(r.summary.provider_satisfaction, 3),
                  util::FormatDouble(r.summary.mean_response_time, 3),
                  util::FormatDouble(r.summary.p95_response_time, 3),
                  util::FormatDouble(r.summary.busy_gini, 3),
                  util::FormatDouble(wall_ms, 1),
                  util::StrFormat("%.0fx", 300.0 / (wall_ms / 1000.0))});
  }
  std::printf("%s\n", table.ToString().c_str());

  // Machine-readable dump for the repo's perf trajectory.
  bench::JsonWriter json(bench::BenchJsonPath("scaling"));
  if (json.ok()) {
    json.BeginObject();
    json.Field("bench", "bench_scaling");
    json.Field("host_cores",
               static_cast<uint64_t>(std::thread::hardware_concurrency()));
    json.Field("compiler", bench::CompilerName());
    json.Field("build_type", bench::BuildType());
    json.BeginObject("fixed");
    json.Field("k", kK);
    json.Field("kn", kKn);
    json.EndObject();
    json.BeginArray("allocation_sweep");
    for (const SweepRow& row : sweep) {
      json.BeginObject();
      json.Field("providers", row.providers);
      json.Field("full_scan_ns_per_query", row.full_scan_ns, 0);
      json.Field("indexed_ns_per_query", row.indexed_ns, 0);
      json.Field("speedup", row.full_scan_ns / row.indexed_ns, 1);
      json.EndObject();
    }
    json.EndArray();
    json.BeginArray("kernel_sweep");
    for (const KernelSweepRow& row : kernel_sweep) {
      json.BeginObject();
      json.Field("kn", row.kn);
      json.Field("kernel", row.kernel);
      json.Field("decisions", row.decisions);
      json.Field("decision_ns", row.decision_ns, 0);
      json.Field("sample_ns", row.sample_ns, 0);
      json.Field("gather_ns", row.gather_ns, 0);
      json.Field("intentions_ns", row.intentions_ns, 0);
      json.Field("score_ns", row.score_ns, 0);
      json.Field("rank_ns", row.rank_ns, 0);
      json.EndObject();
    }
    json.EndArray();
    json.BeginArray("end_to_end");
    for (const EndToEndRow& row : e2e) {
      json.BeginObject();
      json.Field("volunteers", row.volunteers);
      json.Field("queries", row.queries);
      json.Field("consumer_satisfaction", row.consumer_satisfaction);
      json.Field("provider_satisfaction", row.provider_satisfaction);
      json.Field("mean_response_time_s", row.mean_rt);
      json.Field("wall_ms", row.wall_ms, 1);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  return 0;
}
