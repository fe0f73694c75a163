/// \file
/// perfbench: the repository benchmark's driver.
///
///   perfbench --workload serve_small|sim_boinc --seed N
///             --seconds S --trace 0|1 [--out-dir DIR] [--commit SHA]
///
/// Prints the host facts, a human-readable account of the run and, as the
/// last line, one JSON object: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}} with the end-to-end metrics
/// (--trace 0) or the per-layer metrics (--trace 1). Exits non-zero when a
/// correctness or validity check fails.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "util/counting_alloc.h"
#include "workloads.h"

namespace perfbench {

uint64_t AllocationsSoFar() { return sbqa::util::AllocationCount(); }

namespace {

[[noreturn]] void Usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_small|sim_boinc --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--commit SHA]\n",
               problem);
  std::exit(2);
}

RunOptions ParseArgs(int argc, char** argv, std::string* commit) {
  RunOptions options;
  options.out_dir = ".";
  *commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--commit") {
      *commit = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) Usage("--workload is required");
  if (!(options.seconds > 0)) Usage("--seconds must be positive");
  return options;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string commit;
  const RunOptions options = ParseArgs(argc, argv, &commit);
  std::printf("host: host_cores=%u compiler=\"%s\" build_type=%s commit=%s "
              "seed=%llu seconds=%g trace=%d\n",
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, commit.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);

  RunOutcome outcome;
  if (options.workload == "serve_small") {
    outcome = RunServeSmall(options);
  } else if (options.workload == "sim_boinc") {
    outcome = RunSimBoinc(options);
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }

  std::printf("\n%s metrics (%s):\n",
              options.trace ? "per-layer" : "end-to-end",
              options.workload.c_str());
  for (const Metric& m : outcome.metrics) {
    PrintTableRow(m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& failure : outcome.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = outcome.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed));
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
