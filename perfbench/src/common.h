#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

/// \file
/// What every workload shares: the run options, the result it hands back
/// (metrics by name and unit, correctness failures), the steady clock, the
/// process's peak resident set and core placement.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  ///< measured time budget of the run
  bool trace = false;   ///< per-layer traced run instead of end-to-end
  std::string out_dir;  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run reports back to main.
struct RunOutcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run),
  /// exactly the names BENCHMARK.json lists for that mode.
  std::vector<Metric> metrics;
  /// Correctness and validity failures; any entry fails the run.
  std::vector<std::string> failures;

  void Add(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failure when `ok` is false.
  void Check(bool ok, const char* format, ...)
      __attribute__((format(printf, 3, 4))) {
    if (ok) return;
    char buffer[512];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buffer, sizeof(buffer), format, args);
    va_end(args);
    failures.emplace_back(buffer);
  }
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Peak resident set of this process so far, in MiB.
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

inline double Ratio(double numerator, double denominator) {
  return denominator != 0 ? numerator / denominator : 0;
}

/// The cores the process may run on, highest first (core 0 usually takes
/// the device interrupts), read before PinToCore first narrows the thread.
inline const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (CPU_ISSET(cpu, &allowed)) out.push_back(cpu);
      }
    }
    return out;
  }();
  return cpus;
}

/// Pins the calling thread, and every thread it starts from now on, to the
/// `rotation`-th allowed core. The cores of a virtual machine differ in
/// speed by tens of percent, and the difference moves over time, so each
/// measurement round or repetition runs on the next core.
inline void PinToCore(int rotation) {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[static_cast<size_t>(rotation) % cpus.size()], &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
