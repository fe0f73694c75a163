/// \file
/// sbqa_cli — run any allocation technique on the BOINC demo workload from
/// the command line. The "give it to a user" binary: every scenario knob
/// the bench harness uses is exposed as a flag.
///
///   sbqa_cli [--method=sbqa|sqlb|knbest|capacity|qlb|economic|
///             interest|random|roundrobin]
///            [--volunteers=N] [--duration=S] [--seed=N]
///            [--env=captive|autonomous] [--mediators=N] [--shards=N]
///            [--k=N] [--kn=N] [--omega=adaptive|0..1]
///            [--fault-profile=none|drops|delays|crashes|chaos]
///            [--fault-seed=N] [--deadline-ms=N] [--max-retries=N]
///            [--churn] [--joins] [--charts] [--json] [--list-methods]
///
/// Defaults reproduce Scenario 3/4 at the paper scale. --shards=N runs
/// the multi-core sharded engine (one scheduler per shard, epoch-applied
/// membership); with --mediators=M each shard runs a group of M mediators
/// behind a shared scheduler (the first is the shard's cross-shard
/// gateway); every other flag composes with it. A shard whose pool is dry
/// for a query delegates it one hop to the least-loaded donor shard.
/// --fault-profile interposes the deterministic fault plane between each
/// mediator and its scheduler (seeded by --fault-seed, independent of the
/// run seed); --deadline-ms stamps a per-query deadline and --max-retries
/// enables re-mediation with backoff (plus the consecutive-failure health
/// detector). --list-methods prints the allocation-technique registry and
/// exits; --json replaces the tables with a machine-readable run summary
/// on stdout (comparison pipelines diff/plot it directly), including the
/// terminal-outcome taxonomy, fault counters and the per-phase decision
/// timings of the scoring kernel. A numeric flag must parse whole (no
/// trailing characters, no sign on counts) and --omega must lie in
/// [0, 1]; anything else prints the usage and exits 2.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "experiments/demo_scenarios.h"
#include "experiments/report.h"
#include "experiments/runner.h"
#include "runtime/fault.h"
#include "util/string_util.h"

using namespace sbqa;

namespace {

struct Flags {
  std::string method = "sbqa";
  size_t volunteers = 200;
  double duration = 600;
  uint64_t seed = 42;
  std::string env = "captive";
  size_t mediators = 1;
  size_t shards = 1;
  size_t k = 20;
  size_t kn = 8;
  bool adaptive_omega = true;
  double omega = 0;  ///< fixed omega, used when !adaptive_omega
  std::string fault_profile = "none";
  uint64_t fault_seed = 1;
  double deadline_ms = 0;
  int max_retries = 0;
  bool churn = false;
  bool joins = false;
  bool charts = false;
  bool json = false;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: sbqa_cli [--method=sbqa|sqlb|knbest|capacity|qlb|economic|"
      "interest|random|roundrobin]\n"
      "                [--volunteers=N] [--duration=S] [--seed=N]\n"
      "                [--env=captive|autonomous] [--mediators=N]\n"
      "                [--shards=N]\n"
      "                [--k=N] [--kn=N] [--omega=adaptive|0..1]\n"
      "                [--fault-profile=%s]\n"
      "                [--fault-seed=N] [--deadline-ms=N] [--max-retries=N]\n"
      "                [--churn] [--joins] [--charts] [--json]\n"
      "                [--list-methods]\n",
      rt::FaultProfileNames().c_str());
  return 2;
}

int ListMethods() {
  std::printf("allocation methods (--method=NAME):\n");
  for (const experiments::MethodDescription& method :
       experiments::KnownMethods()) {
    std::printf("  %-10s %s\n", method.name, method.summary);
  }
  return 0;
}

experiments::MethodSpec MakeSpec(const Flags& flags) {
  experiments::MethodSpec spec;
  if (!experiments::MethodSpecFromName(flags.method, &spec)) {
    std::fprintf(stderr, "unknown method: %s (try --list-methods)\n",
                 flags.method.c_str());
    std::exit(2);
  }
  // Apply the tuning flags where the technique takes them.
  core::SbqaParams sbqa_params = experiments::DefaultSbqaParams();
  sbqa_params.knbest = core::KnBestParams{flags.k, flags.kn};
  if (!flags.adaptive_omega) {
    sbqa_params.omega_mode = core::OmegaMode::kFixed;
    sbqa_params.fixed_omega = flags.omega;
  }
  if (flags.method == "sbqa") {
    spec = experiments::MethodSpec::Sbqa(sbqa_params);
  } else if (flags.method == "knbest") {
    spec = experiments::MethodSpec::KnBest(core::KnBestParams{flags.k,
                                                              flags.kn});
  }
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    bool ok = true;
    if (ParseFlag(argv[i], "--method", &value)) {
      flags.method = value;
    } else if (ParseFlag(argv[i], "--volunteers", &value)) {
      ok = util::ParseWhole(value, &flags.volunteers);
    } else if (ParseFlag(argv[i], "--duration", &value)) {
      ok = util::ParseWhole(value, &flags.duration);
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      ok = util::ParseWhole(value, &flags.seed);
    } else if (ParseFlag(argv[i], "--env", &value)) {
      flags.env = value;
    } else if (ParseFlag(argv[i], "--mediators", &value)) {
      ok = util::ParseWhole(value, &flags.mediators);
    } else if (ParseFlag(argv[i], "--shards", &value)) {
      ok = util::ParseWhole(value, &flags.shards);
    } else if (ParseFlag(argv[i], "--k", &value)) {
      ok = util::ParseWhole(value, &flags.k);
    } else if (ParseFlag(argv[i], "--kn", &value)) {
      ok = util::ParseWhole(value, &flags.kn);
    } else if (ParseFlag(argv[i], "--omega", &value)) {
      flags.adaptive_omega = value == "adaptive";
      ok = flags.adaptive_omega ||
           (util::ParseWhole(value, &flags.omega) && flags.omega >= 0 &&
            flags.omega <= 1);
    } else if (ParseFlag(argv[i], "--fault-profile", &value)) {
      flags.fault_profile = value;
    } else if (ParseFlag(argv[i], "--fault-seed", &value)) {
      ok = util::ParseWhole(value, &flags.fault_seed);
    } else if (ParseFlag(argv[i], "--deadline-ms", &value)) {
      ok = util::ParseWhole(value, &flags.deadline_ms);
    } else if (ParseFlag(argv[i], "--max-retries", &value)) {
      ok = util::ParseWhole(value, &flags.max_retries);
    } else if (std::strcmp(argv[i], "--churn") == 0) {
      flags.churn = true;
    } else if (std::strcmp(argv[i], "--joins") == 0) {
      flags.joins = true;
    } else if (std::strcmp(argv[i], "--charts") == 0) {
      flags.charts = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      flags.json = true;
    } else if (std::strcmp(argv[i], "--list-methods") == 0) {
      return ListMethods();
    } else {
      return Usage();
    }
    if (!ok) return Usage();
  }
  if (flags.volunteers == 0 || flags.duration <= 0 || flags.mediators == 0 ||
      flags.shards == 0 || flags.deadline_ms < 0 || flags.max_retries < 0) {
    return Usage();
  }

  experiments::ScenarioConfig config = experiments::BaseDemoConfig(
      flags.seed, flags.volunteers, flags.duration);
  config = flags.env == "autonomous"
               ? experiments::WithAutonomousEnvironment(config)
               : experiments::WithCaptiveEnvironment(config);
  config.mediator_count = flags.mediators;
  config.sim.shard_count = static_cast<uint32_t>(flags.shards);
  // The JSON summary carries the per-phase decision timings.
  config.sim.decision_timing = flags.json;
  config.method = MakeSpec(flags);
  if (flags.churn) {
    config.churn.enabled = true;
    config.churn.mean_online = 400;
    config.churn.mean_offline = 60;
  }
  if (flags.joins) {
    config.joins.enabled = true;
    config.joins.rate =
        0.05 * static_cast<double>(flags.volunteers) / 200.0;
    config.joins.max_joins = flags.volunteers;
  }
  config.fault_plan.seed = flags.fault_seed;
  if (!rt::FaultProfileByName(flags.fault_profile, &config.fault_plan)) {
    std::fprintf(stderr, "unknown fault profile: %s (known: %s)\n",
                 flags.fault_profile.c_str(),
                 rt::FaultProfileNames().c_str());
    return 2;
  }
  config.query_deadline = flags.deadline_ms / 1000.0;
  config.mediator.max_retries = flags.max_retries;
  if (flags.max_retries > 0) {
    // Retrying makes sense only with a health signal: suspect a provider
    // after 3 consecutive failures and probe it back after 30s.
    config.mediator.failure_threshold = 3;
  }

  if (!flags.json) {
    std::printf("sbqa_cli: %s, %zu volunteers, %.0fs, %s, %zu mediator(s), "
                "%zu shard(s), seed %llu\n\n",
                experiments::MethodName(config.method).c_str(),
                flags.volunteers, flags.duration, flags.env.c_str(),
                flags.mediators, flags.shards,
                static_cast<unsigned long long>(flags.seed));
  }

  const experiments::RunResult result = experiments::RunScenario(config);
  if (flags.json) {
    std::printf("%s", experiments::RunSummaryJson(result).c_str());
    return 0;
  }
  const std::vector<experiments::RunResult> results{result};
  if (config.fault_plan.enabled() || flags.max_retries > 0 ||
      flags.deadline_ms > 0) {
    const metrics::RunSummary& s = result.summary;
    std::printf(
        "robustness: %lld satisfied, %lld recovered, %lld timed out, "
        "%lld failed (%lld retries; faults: %lld dropped, %lld delayed, "
        "%lld crashed; %lld suspected, %lld probed)\n\n",
        static_cast<long long>(s.queries_satisfied),
        static_cast<long long>(s.queries_recovered),
        static_cast<long long>(s.queries_timed_out),
        static_cast<long long>(s.queries_failed),
        static_cast<long long>(s.retry_attempts),
        static_cast<long long>(s.fault_sends_dropped),
        static_cast<long long>(s.fault_sends_delayed),
        static_cast<long long>(s.fault_sends_crashed),
        static_cast<long long>(s.providers_suspected),
        static_cast<long long>(s.providers_probed));
  }
  std::printf("%s\n", experiments::OverviewTable(results).ToString().c_str());
  std::printf("%s\n",
              experiments::PerformanceTable(results).ToString().c_str());
  if (flags.env == "autonomous" || flags.churn || flags.joins) {
    std::printf("%s\n",
                experiments::RetentionTable(results).ToString().c_str());
  }
  if (flags.charts) {
    std::printf("%s\n",
                experiments::SeriesChart(
                    results, experiments::ProviderSatisfactionSeries,
                    "Provider satisfaction over time")
                    .c_str());
    std::printf("%s\n", experiments::SeriesChart(
                            results, experiments::ResponseTimeSeries,
                            "Recent mean response time (s) over time")
                            .c_str());
  }
  return 0;
}
