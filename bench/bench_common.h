#ifndef SBQA_BENCH_BENCH_COMMON_H_
#define SBQA_BENCH_BENCH_COMMON_H_

/// \file
/// Shared helpers for the scenario bench binaries: consistent headers,
/// optional CSV dumps, machine-readable JSON result emission (one shared
/// writer instead of per-bench fprintf blocks) and scale controls via
/// environment variables.
///
///   SBQA_BENCH_VOLUNTEERS  population size  (default per bench)
///   SBQA_BENCH_DURATION    simulated length (seconds)
///   SBQA_BENCH_SEED        root seed
///   SBQA_BENCH_CSV         directory for time-series / summary CSV dumps
///   SBQA_BENCH_JSON        output path for the JSON dump
///                          (default BENCH_<bench>.json)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "experiments/demo_scenarios.h"
#include "experiments/report.h"
#include "experiments/runner.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/table.h"

namespace sbqa::bench {

inline uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return static_cast<uint64_t>(std::strtoull(value, nullptr, 10));
}

/// Applies the environment scale knobs to a scenario config.
inline experiments::ScenarioConfig ApplyEnv(
    experiments::ScenarioConfig config) {
  const uint64_t volunteers =
      EnvOr("SBQA_BENCH_VOLUNTEERS", config.population.volunteers.count);
  if (volunteers != config.population.volunteers.count) {
    // Rescale arrival rates with the population so offered load stays put.
    const double ratio = static_cast<double>(volunteers) /
                         static_cast<double>(config.population.volunteers.count);
    config.population.volunteers.count = volunteers;
    for (auto& project : config.population.projects) {
      project.arrival_rate *= ratio;
    }
  }
  config.duration = static_cast<double>(
      EnvOr("SBQA_BENCH_DURATION", static_cast<uint64_t>(config.duration)));
  config.seed = EnvOr("SBQA_BENCH_SEED", config.seed);
  return config;
}

/// CMAKE_BUILD_TYPE of the bench binary (set by CMakeLists.txt), recorded
/// next to the numbers it measured.
inline const char* BuildType() {
#ifdef SBQA_BUILD_TYPE
  return SBQA_BUILD_TYPE;
#else
  return "unknown";
#endif
}

/// The compiler that built the bench binary, e.g. "gcc 12.2.0".
inline std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Where a bench's JSON dump goes: SBQA_BENCH_JSON, or BENCH_<bench>.json
/// in the working directory.
inline std::string BenchJsonPath(const char* bench) {
  const char* env = std::getenv("SBQA_BENCH_JSON");
  if (env != nullptr && *env != '\0') return env;
  return util::StrFormat("BENCH_%s.json", bench);
}

/// Minimal streaming JSON writer for the BENCH_*.json dumps. Tracks
/// object/array nesting and comma placement so benches emit structured
/// results without hand-maintained fprintf boilerplate.
class JsonWriter {
 public:
  explicit JsonWriter(const std::string& path) : path_(path) {
    file_ = std::fopen(path.c_str(), "w");
  }
  ~JsonWriter() { Close(); }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  bool ok() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

  void Close() {
    if (file_ != nullptr) {
      std::fprintf(file_, "\n");
      std::fclose(file_);
      file_ = nullptr;
      std::printf("Wrote %s\n", path_.c_str());
    }
  }

  void BeginObject(const char* key = nullptr) { Open(key, '{'); }
  void EndObject() { CloseScope('}'); }
  void BeginArray(const char* key = nullptr) { Open(key, '['); }
  void EndArray() { CloseScope(']'); }

  void Field(const char* key, const char* value) {
    if (!Prefix(key)) return;
    std::fprintf(file_, "\"%s\"", value);
  }
  void Field(const char* key, const std::string& value) {
    Field(key, value.c_str());
  }
  void Field(const char* key, double value, int digits = 3) {
    if (!Prefix(key)) return;
    std::fprintf(file_, "%.*f", digits, value);
  }
  void Field(const char* key, int64_t value) {
    if (!Prefix(key)) return;
    std::fprintf(file_, "%lld", static_cast<long long>(value));
  }
  void Field(const char* key, uint64_t value) {
    if (!Prefix(key)) return;
    std::fprintf(file_, "%llu", static_cast<unsigned long long>(value));
  }
  void Field(const char* key, uint32_t value) {
    Field(key, static_cast<uint64_t>(value));
  }
  void Field(const char* key, int value) {
    Field(key, static_cast<int64_t>(value));
  }

 private:
  /// Writes the comma/indent/key lead-in; false when the file never
  /// opened (every writing method bails on that, so a JsonWriter on an
  /// unwritable path is safely inert).
  bool Prefix(const char* key) {
    if (!ok()) return false;
    if (needs_comma_) std::fprintf(file_, ",");
    std::fprintf(file_, "\n%*s", static_cast<int>(depth_ * 2), "");
    if (key != nullptr) std::fprintf(file_, "\"%s\": ", key);
    needs_comma_ = true;
    return true;
  }
  void Open(const char* key, char bracket) {
    if (!ok()) return;
    if (depth_ == 0) {
      std::fprintf(file_, "%c", bracket);
    } else if (Prefix(key)) {
      std::fprintf(file_, "%c", bracket);
    }
    ++depth_;
    needs_comma_ = false;
  }
  void CloseScope(char bracket) {
    if (!ok()) return;
    --depth_;
    std::fprintf(file_, "\n%*s%c", static_cast<int>(depth_ * 2), "", bracket);
    needs_comma_ = true;
  }

  std::string path_;
  FILE* file_ = nullptr;
  size_t depth_ = 0;
  bool needs_comma_ = false;
};

/// Shared per-method summary emission for the scenario benches: one
/// BENCH_<bench>.json with the headline metrics of every compared method,
/// so the repo's perf/quality trajectory is machine-readable across all
/// scenarios (previously each bench hand-rolled its own dump, or none).
inline void DumpSummariesJson(
    const char* bench, const std::vector<experiments::RunResult>& results) {
  JsonWriter json(BenchJsonPath(bench));
  if (!json.ok()) return;
  json.BeginObject();
  json.Field("bench", bench);
  json.BeginArray("methods");
  for (const experiments::RunResult& r : results) {
    const metrics::RunSummary& s = r.summary;
    json.BeginObject();
    json.Field("method", s.method);
    json.Field("consumer_satisfaction", s.consumer_satisfaction);
    json.Field("provider_satisfaction", s.provider_satisfaction);
    json.Field("mean_response_time_s", s.mean_response_time);
    json.Field("p95_response_time_s", s.p95_response_time);
    json.Field("throughput_qps", s.throughput);
    json.Field("queries_finalized", s.queries_finalized);
    json.Field("provider_retention", s.provider_retention);
    json.Field("capacity_retention", s.capacity_retention);
    json.Field("validated_fraction", s.validated_fraction);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

inline void PrintHeader(const char* experiment, const char* claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("%s\n", claim);
  std::printf("================================================================\n\n");
}

inline void PrintConfig(const experiments::ScenarioConfig& config) {
  std::printf(
      "population: %zu volunteers, %zu projects | duration %.0fs | seed %llu\n\n",
      config.population.volunteers.count, config.population.projects.size(),
      config.duration, static_cast<unsigned long long>(config.seed));
}

/// When SBQA_BENCH_CSV is set, dumps one time-series CSV per method and one
/// summary CSV for the experiment into that directory (for external
/// plotting — the file-based counterpart of the demo GUI's live charts).
inline void MaybeDumpCsv(const char* experiment,
                         const std::vector<experiments::RunResult>& results) {
  const char* dir = std::getenv("SBQA_BENCH_CSV");
  if (dir == nullptr || *dir == '\0') return;

  util::CsvWriter summary;
  if (summary.Open(util::StrFormat("%s/%s_summary.csv", dir, experiment))
          .ok()) {
    summary.WriteRow({"method", "consumer_satisfaction",
                      "provider_satisfaction", "mean_response_time",
                      "p95_response_time", "throughput", "provider_retention",
                      "capacity_retention", "validated_fraction"});
    for (const auto& r : results) {
      const metrics::RunSummary& s = r.summary;
      summary.WriteRow(
          {s.method, util::FormatDouble(s.consumer_satisfaction, 6),
           util::FormatDouble(s.provider_satisfaction, 6),
           util::FormatDouble(s.mean_response_time, 6),
           util::FormatDouble(s.p95_response_time, 6),
           util::FormatDouble(s.throughput, 6),
           util::FormatDouble(s.provider_retention, 6),
           util::FormatDouble(s.capacity_retention, 6),
           util::FormatDouble(s.validated_fraction, 6)});
    }
    summary.Close();
  }

  for (const auto& r : results) {
    util::CsvWriter series;
    if (!series
             .Open(util::StrFormat("%s/%s_%s_series.csv", dir, experiment,
                                   r.summary.method.c_str()))
             .ok()) {
      continue;
    }
    series.WriteRow({"time", "consumer_satisfaction",
                     "provider_satisfaction", "alive_providers",
                     "capacity_fraction", "mean_backlog", "backlog_gini",
                     "recent_response_time", "throughput"});
    const metrics::RunSeries& rs = r.series;
    for (size_t i = 0; i < rs.consumer_satisfaction.size(); ++i) {
      series.WriteNumericRow(
          {rs.consumer_satisfaction.times()[i],
           rs.consumer_satisfaction.values()[i],
           rs.provider_satisfaction.values()[i],
           rs.alive_providers.values()[i],
           rs.alive_capacity_fraction.values()[i],
           rs.mean_backlog.values()[i], rs.backlog_gini.values()[i],
           rs.recent_response_time.values()[i], rs.throughput.values()[i]});
    }
    series.Close();
  }
}

}  // namespace sbqa::bench

#endif  // SBQA_BENCH_BENCH_COMMON_H_
