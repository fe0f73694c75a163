#ifndef SBQA_UTIL_RNG_H_
#define SBQA_UTIL_RNG_H_

/// \file
/// Deterministic, seedable random number generation for simulations.
///
/// All experiment randomness flows through Rng so that every run is exactly
/// reproducible from a single 64-bit seed. The core generator is
/// xoshiro256** (Blackman & Vigna) seeded via SplitMix64, which is fast,
/// high-quality and trivially splittable for per-entity streams.

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace sbqa::util {

/// Reusable state of Rng::SampleIndices: one slot per index of the
/// largest range sampled so far, each stamped with the draw that last
/// wrote it. A draw starts by moving to a fresh generation, which
/// invalidates every slot at once, so it touches only the O(k) slots it
/// uses and never clears or allocates once warm. Costs 8 bytes per index
/// of the largest n; each sampling site owns one (the candidate index
/// keeps one per partition).
class SampleScratch {
 private:
  friend class Rng;

  struct Slot {
    uint32_t stamp = 0;
    uint32_t value = 0;
  };

  /// Opens a draw over [0, n): covers n slots, invalidates them all.
  void Begin(size_t n);

  /// Floyd's rule: whether index i was picked in this draw, and picking it.
  bool Taken(size_t i) const { return slots_[i].stamp == generation_; }
  void Take(size_t i) { slots_[i].stamp = generation_; }

  /// Fisher-Yates' rule: position i of the permutation of [0, n) being
  /// shuffled, held sparsely — a slot not written in this draw holds i.
  size_t Get(size_t i) const { return Taken(i) ? slots_[i].value : i; }
  void Put(size_t i, size_t value) {
    slots_[i] = Slot{generation_, static_cast<uint32_t>(value)};
  }

  std::vector<Slot> slots_;
  uint32_t generation_ = 0;
};

/// xoshiro256** pseudo-random generator with convenience distributions.
///
/// Satisfies the UniformRandomBitGenerator concept so it can also be used
/// with <random> adaptors when needed.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the generator; two Rng instances with the same seed produce the
  /// same stream.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  /// Next raw 64-bit value.
  uint64_t operator()() { return Next(); }
  uint64_t Next();

  /// Derives an independent child generator; the child stream does not
  /// overlap the parent's for any practical horizon.
  Rng Split();

  /// Stateless seed derivation for numbered parallel streams (one per
  /// simulation shard): a full-avalanche hash of (seed, stream), so the
  /// four state words of any two streams are unrelated — unlike seed
  /// arithmetic, which would hand adjacent streams overlapping SplitMix64
  /// seeding sequences. Stream 0 IS the root seed (StreamSeed(s, 0) == s),
  /// so a 1-shard system reproduces the unsharded engine bit for bit.
  /// Unlike Split(), the result depends only on (seed, stream), never on
  /// how much of any stream was consumed.
  static uint64_t StreamSeed(uint64_t seed, uint64_t stream);

  /// Rng(StreamSeed(seed, stream)).
  static Rng ForStream(uint64_t seed, uint64_t stream) {
    return Rng(StreamSeed(seed, stream));
  }

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Bernoulli draw with success probability p in [0, 1].
  bool Bernoulli(double p);

  /// Exponential with rate lambda > 0 (mean 1/lambda).
  double Exponential(double lambda);

  /// Standard normal via Marsaglia polar method, scaled to (mean, stddev).
  /// The method's second output is cached, so alternate calls are nearly
  /// free; the cache is part of the deterministic replay state.
  double Normal(double mean, double stddev);

  /// Log-normal: exp(Normal(mu, sigma)).
  double LogNormal(double mu, double sigma);

  /// Poisson-distributed count with mean lambda >= 0 (Knuth/inversion for
  /// small lambda, normal approximation for large).
  int64_t Poisson(double lambda);

  /// Zipf-distributed rank in [1, n] with skew s >= 0 (s=0 is uniform).
  /// Uses the cutoff-free rejection-inversion method of Hörmann.
  int64_t Zipf(int64_t n, double s);

  /// Draws an index in [0, weights.size()) with probability proportional to
  /// weights[i] >= 0. Requires at least one strictly positive weight.
  size_t Discrete(const std::vector<double>& weights);

  /// Replaces *out with min(k, n) distinct indices drawn uniformly at
  /// random from [0, n). Every k-subset is equally likely; the emission
  /// order is NOT a uniform random permutation (shuffle or re-randomize
  /// downstream when order matters). Two draw rules, both O(k) over
  /// `scratch`: a partial Fisher-Yates for dense samples (k > 64 and
  /// n < 16k) and Floyd's algorithm otherwise; k >= n returns a shuffle of
  /// the whole range. Allocation-free beyond *out once `scratch` has
  /// covered n.
  void SampleIndices(size_t n, size_t k, SampleScratch* scratch,
                     std::vector<size_t>* out);

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->empty()) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      const size_t j =
          static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i)));
      std::swap((*items)[i], (*items)[j]);
    }
  }

  /// Samples `count` distinct elements from `items` uniformly at random
  /// (partial Fisher-Yates). If count >= items.size(), returns a shuffled
  /// copy of all items.
  template <typename T>
  std::vector<T> SampleWithoutReplacement(std::vector<T> items, size_t count) {
    if (count > items.size()) count = items.size();
    for (size_t i = 0; i < count; ++i) {
      const size_t j = i + static_cast<size_t>(UniformInt(
                               0, static_cast<int64_t>(items.size() - 1 - i)));
      std::swap(items[i], items[j]);
    }
    items.resize(count);
    return items;
  }

 private:
  uint64_t state_[4];
  /// Cached second output of the Marsaglia polar pair (unit normal).
  double spare_ = 0;
  bool has_spare_ = false;
};

/// One SplitMix64 step over `x` (golden-ratio increment + avalanche) —
/// the same mixer Rng seeding and StreamSeed build on, exported for the
/// deterministic id hashes in the codebase (e.g. the elastic-membership
/// owner-shard assignment) so the magic constants live in one place.
uint64_t SplitMix64Avalanche(uint64_t x);

}  // namespace sbqa::util

#endif  // SBQA_UTIL_RNG_H_
