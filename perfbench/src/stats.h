#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

/// \file
/// The benchmark's own measurement logic, kept free of engine types so it
/// can be tested on synthetic inputs: nearest-rank percentiles, the mean,
/// the highest percentile a sample count supports, the windowed p99, the
/// rate-ladder knee search and the backlog-growth detector.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending-sorted sample (q in [0, 1]).
/// Returns 0 for an empty sample.
template <typename T>
double PercentileSorted(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return static_cast<double>(sorted[std::min(index, sorted.size() - 1)]);
}

/// Sorts a copy of `values` and returns its nearest-rank percentile.
template <typename T>
double Percentile(std::vector<T> values, double q) {
  std::sort(values.begin(), values.end());
  return PercentileSorted(values, q);
}

/// Median of a sample (0 when empty).
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Arithmetic mean of a sample (0 when empty).
inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// The highest of the percentiles 50, 90, 99, 99.9 and 99.99 that leaves at
/// least `min_beyond` samples above it in a sample of `count`, or 0 when
/// not even the median does.
inline double SupportedPercentile(size_t count, size_t min_beyond = 10) {
  double best = 0;
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    const double rank = std::ceil(q * static_cast<double>(count));
    if (static_cast<double>(count) - rank >= static_cast<double>(min_beyond)) {
      best = q;
    }
  }
  return best;
}

/// Result of MedianWindowP99.
struct WindowedP99 {
  double value = 0;   ///< median over full windows of each window's p99
  size_t windows = 0; ///< full windows used (a trailing partial is dropped)
};

/// Splits `values` (in arrival order) into consecutive windows of `window`
/// samples, takes each full window's nearest-rank p99 and returns their
/// median. One stalled window moves the result by one rank at most, where
/// it would dominate a whole-run p99. `window` >= 1000 keeps ten samples
/// beyond each window's p99.
template <typename T>
WindowedP99 MedianWindowP99(const std::vector<T>& values, size_t window) {
  WindowedP99 result;
  if (window == 0) return result;
  std::vector<double> p99s;
  std::vector<T> scratch;
  for (size_t begin = 0; begin + window <= values.size(); begin += window) {
    scratch.assign(values.begin() + static_cast<std::ptrdiff_t>(begin),
                   values.begin() + static_cast<std::ptrdiff_t>(begin + window));
    std::sort(scratch.begin(), scratch.end());
    p99s.push_back(PercentileSorted(scratch, 0.99));
  }
  result.windows = p99s.size();
  result.value = Median(std::move(p99s));
  return result;
}

/// Highest rung index in [0, rungs) for which `passes` holds, by bisection
/// over an ascending rate ladder (a rung that is sustained implies every
/// lower rung is). Returns -1 when even rung 0 fails. Calls `passes` about
/// log2(rungs) + 1 times.
template <typename Pred>
int KneeSearch(int rungs, Pred passes) {
  int lo = -1;     // highest rung known to pass (-1: none yet)
  int hi = rungs;  // lowest rung known to fail (rungs: none yet)
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Whether an in-flight series sampled at a fixed cadence across a step
/// grows: the least-squares slope times the series span exceeds both
/// `abs_slack` queries and `rel_slack` times the series median. A steady
/// queue wobbles around its mean; an overloaded one climbs by the excess
/// rate times the step length.
inline bool BacklogGrows(const std::vector<double>& inflight, double abs_slack,
                         double rel_slack) {
  const size_t n = inflight.size();
  if (n < 3) return false;
  double mean_x = 0;
  double mean_y = 0;
  for (size_t i = 0; i < n; ++i) {
    mean_x += static_cast<double>(i);
    mean_y += inflight[i];
  }
  mean_x /= static_cast<double>(n);
  mean_y /= static_cast<double>(n);
  double sxy = 0;
  double sxx = 0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = static_cast<double>(i) - mean_x;
    sxy += dx * (inflight[i] - mean_y);
    sxx += dx * dx;
  }
  const double growth = sxy / sxx * static_cast<double>(n - 1);
  return growth > std::max(abs_slack, rel_slack * Median(inflight));
}

/// A geometric rate ladder: `rungs` rates from `lowest`, each `ratio` times
/// the one below, rounded to whole queries per second.
inline std::vector<double> RateLadder(double lowest, double ratio, int rungs) {
  std::vector<double> ladder;
  double rate = lowest;
  for (int i = 0; i < rungs; ++i) {
    ladder.push_back(std::round(rate));
    rate *= ratio;
  }
  return ladder;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
