#include "util/rng.h"

#include <cmath>
#include <limits>

namespace sbqa::util {

namespace {

/// SplitMix64 step; used for seeding and stream splitting.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64Avalanche(uint64_t x) {
  return SplitMix64(&x);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

Rng Rng::Split() { return Rng(Next() ^ 0xA02BDBF7BB3C0A7ull); }

uint64_t Rng::StreamSeed(uint64_t seed, uint64_t stream) {
  if (stream == 0) return seed;
  // Two chained SplitMix64 avalanches over (stream, seed). A single xor or
  // addition would leave Rng's own SplitMix64 seeding walking overlapping
  // sequences for adjacent streams; the double mix decorrelates every
  // state word.
  uint64_t z = stream;
  uint64_t a = SplitMix64(&z);
  z = seed ^ a;
  return SplitMix64(&z);
}

double Rng::NextDouble() {
  // 53 high-quality bits -> [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  SBQA_DCHECK_LE(lo, hi);
  return lo + (hi - lo) * NextDouble();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  SBQA_DCHECK_LE(lo, hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  // Lemire's nearly-divisionless bounded sampling with rejection.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * span;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < span) {
    const uint64_t threshold = (0 - span) % span;
    while (l < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * span;
      l = static_cast<uint64_t>(m);
    }
  }
  return lo + static_cast<int64_t>(m >> 64);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return NextDouble() < p;
}

double Rng::Exponential(double lambda) {
  SBQA_DCHECK_GT(lambda, 0);
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

double Rng::Normal(double mean, double stddev) {
  // Marsaglia polar method. Each accepted (u, v) pair yields TWO unit
  // normals; the spare is cached so every other call costs no raw draws,
  // no log and no sqrt — the latency-sampling hot path calls this for
  // every simulated message. Determinism is unchanged (same seed, same
  // call sequence => same values); Split() children start spare-less.
  if (has_spare_) {
    has_spare_ = false;
    return mean + stddev * spare_;
  }
  double u, v, s;
  do {
    u = Uniform(-1, 1);
    v = Uniform(-1, 1);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double scale = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * scale;
  has_spare_ = true;
  return mean + stddev * u * scale;
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Normal(mu, sigma));
}

int64_t Rng::Poisson(double lambda) {
  SBQA_DCHECK_GE(lambda, 0);
  if (lambda <= 0) return 0;
  if (lambda < 30.0) {
    // Knuth's product-of-uniforms method.
    const double limit = std::exp(-lambda);
    int64_t count = 0;
    double product = NextDouble();
    while (product > limit) {
      ++count;
      product *= NextDouble();
    }
    return count;
  }
  // Normal approximation with continuity correction; adequate for workload
  // generation at large means.
  const double draw = Normal(lambda, std::sqrt(lambda));
  return draw < 0 ? 0 : static_cast<int64_t>(draw + 0.5);
}

int64_t Rng::Zipf(int64_t n, double s) {
  SBQA_DCHECK_GE(n, 1);
  SBQA_DCHECK_GE(s, 0);
  if (n == 1) return 1;
  if (s == 0.0) return UniformInt(1, n);
  // Rejection-inversion sampling (Hörmann) over the Zipf(s, n) pmf.
  const double nd = static_cast<double>(n);
  auto h = [s](double x) {
    if (s == 1.0) return std::log(x);
    return (std::pow(x, 1.0 - s) - 1.0) / (1.0 - s);
  };
  auto h_inv = [s](double y) {
    if (s == 1.0) return std::exp(y);
    return std::pow(1.0 + y * (1.0 - s), 1.0 / (1.0 - s));
  };
  const double hx0 = h(0.5) - 1.0;
  const double hxn = h(nd + 0.5);
  while (true) {
    const double u = hx0 + NextDouble() * (hxn - hx0);
    const double x = h_inv(u);
    const int64_t k = static_cast<int64_t>(x + 0.5);
    if (k < 1 || k > n) continue;
    const double kd = static_cast<double>(k);
    if (u >= h(kd + 0.5) - std::pow(kd, -s)) continue;
    return k;
  }
}

void SampleScratch::Begin(size_t n) {
  SBQA_CHECK_LE(n, std::numeric_limits<uint32_t>::max());
  if (slots_.size() < n) slots_.resize(n);
  if (++generation_ == 0) {
    // Wrapped: clear every stamp so no slot of an old draw reads as live.
    for (Slot& slot : slots_) slot.stamp = 0;
    generation_ = 1;
  }
}

void Rng::SampleIndices(size_t n, size_t k, SampleScratch* scratch,
                        std::vector<size_t>* out) {
  SBQA_CHECK(scratch != nullptr);
  SBQA_CHECK(out != nullptr);
  out->clear();
  if (n == 0 || k == 0) return;
  if (k >= n) {
    out->resize(n);
    for (size_t i = 0; i < n; ++i) (*out)[i] = i;
    Shuffle(out);
    return;
  }
  out->reserve(k);
  scratch->Begin(n);
  if (k > 64 && n < k * 16) {
    // Dense sample: a partial Fisher-Yates over the identity permutation
    // of [0, n). Position i is final once step i has swapped into it, so
    // it is emitted then, and only the swapped-out position is written.
    for (size_t i = 0; i < k; ++i) {
      const size_t j =
          i + static_cast<size_t>(
                  UniformInt(0, static_cast<int64_t>(n - 1 - i)));
      const size_t picked = scratch->Get(j);
      scratch->Put(j, scratch->Get(i));
      out->push_back(picked);
    }
    return;
  }
  // Floyd's algorithm: each of the C(n, k) subsets is equally likely. Step
  // j draws t from [0, j] and takes t, or j when t is already taken (j
  // never is: earlier steps pick below j).
  for (size_t j = n - k; j < n; ++j) {
    const size_t t =
        static_cast<size_t>(UniformInt(0, static_cast<int64_t>(j)));
    const size_t pick = scratch->Taken(t) ? j : t;
    scratch->Take(pick);
    out->push_back(pick);
  }
}

size_t Rng::Discrete(const std::vector<double>& weights) {
  SBQA_CHECK(!weights.empty());
  double total = 0;
  for (double w : weights) {
    SBQA_DCHECK_GE(w, 0);
    total += w;
  }
  SBQA_CHECK_GT(total, 0);
  double target = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0) return i;
  }
  // Floating-point slack: fall back to the last positive weight.
  for (size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0) return i;
  }
  return weights.size() - 1;
}

}  // namespace sbqa::util
