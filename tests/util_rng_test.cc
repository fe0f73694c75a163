// Tests for the deterministic RNG and its distributions.

#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace sbqa::util {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDifferentStreams) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(99);
  Rng child = parent.Split();
  // The child stream should neither mirror the parent nor collapse.
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (parent.Next() == child.Next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, SplitIsDeterministic) {
  Rng a(7), b(7);
  Rng ca = a.Split();
  Rng cb = b.Split();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ca.Next(), cb.Next());
}

// --- Seed-split parallel streams (one per simulation shard) -----------------

TEST(RngStreamTest, StreamZeroIsTheRootSeed) {
  // Shard 0 of a sharded simulation must carry the exact root stream, so
  // a 1-shard run reproduces the unsharded engine bit for bit.
  EXPECT_EQ(Rng::StreamSeed(42, 0), 42u);
  EXPECT_EQ(Rng::StreamSeed(0xDEADBEEF, 0), 0xDEADBEEFull);
  Rng root(42);
  Rng stream0 = Rng::ForStream(42, 0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(stream0.Next(), root.Next());
}

TEST(RngStreamTest, GoldenStreamSeeds) {
  // Pinned values: the shard -> stream mapping is part of the sharded
  // engine's reproducibility contract. If these move, every committed
  // (seed, shard_count) trace moves with them.
  EXPECT_EQ(Rng::StreamSeed(42, 1), 9129838320742759465ull);
  EXPECT_EQ(Rng::StreamSeed(42, 2), 2139811525164838579ull);
  EXPECT_EQ(Rng::StreamSeed(42, 3), 4875857236239627170ull);
  EXPECT_EQ(Rng::StreamSeed(1234, 1), 16319806597338768250ull);
  EXPECT_EQ(Rng::StreamSeed(0, 1), 6791897765849424158ull);
}

TEST(RngStreamTest, StreamSeedIsStatelessAndStableAcrossShardCounts) {
  // Stream s's seed depends only on (seed, s) — never on how many streams
  // exist or how much any stream consumed. A 4-shard and an 8-shard run
  // therefore agree on the streams they share.
  const uint64_t expected = Rng::StreamSeed(7, 3);
  Rng burn = Rng::ForStream(7, 1);
  for (int i = 0; i < 1000; ++i) burn.Next();
  EXPECT_EQ(Rng::StreamSeed(7, 3), expected);
  for (uint64_t total = 4; total <= 8; ++total) {
    EXPECT_EQ(Rng::StreamSeed(7, 3), expected);
  }
}

TEST(RngStreamTest, AdjacentStreamsDoNotCorrelate) {
  // Adjacent (and near-adjacent) streams of the same root seed must not
  // mirror each other — the classic failure mode of additive seeding,
  // where Rng(seed+1)'s SplitMix64 state words overlap Rng(seed)'s.
  for (uint64_t seed : {0ull, 1ull, 42ull, 0xDEADBEEFull}) {
    for (uint64_t stream = 0; stream < 4; ++stream) {
      Rng a = Rng::ForStream(seed, stream);
      Rng b = Rng::ForStream(seed, stream + 1);
      int equal = 0;
      for (int i = 0; i < 1000; ++i) {
        if (a.Next() == b.Next()) ++equal;
      }
      EXPECT_LT(equal, 5) << "seed " << seed << " stream " << stream;
    }
  }
}

TEST(RngStreamTest, StreamPairwiseCorrelationIsFlat) {
  // Pearson correlation of uniform draws across 8 shard streams: every
  // pair should be statistically indistinguishable from independent.
  constexpr int kStreams = 8;
  constexpr int kDraws = 4000;
  std::vector<std::vector<double>> draws(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    Rng rng = Rng::ForStream(1234, static_cast<uint64_t>(s));
    for (int i = 0; i < kDraws; ++i) draws[s].push_back(rng.NextDouble());
  }
  for (int a = 0; a < kStreams; ++a) {
    for (int b = a + 1; b < kStreams; ++b) {
      double mean_a = 0, mean_b = 0;
      for (int i = 0; i < kDraws; ++i) {
        mean_a += draws[a][i];
        mean_b += draws[b][i];
      }
      mean_a /= kDraws;
      mean_b /= kDraws;
      double cov = 0, var_a = 0, var_b = 0;
      for (int i = 0; i < kDraws; ++i) {
        const double da = draws[a][i] - mean_a;
        const double db = draws[b][i] - mean_b;
        cov += da * db;
        var_a += da * da;
        var_b += db * db;
      }
      const double corr = cov / std::sqrt(var_a * var_b);
      // 3.5 sigma of the null distribution (sigma ~= 1/sqrt(n)).
      EXPECT_LT(std::abs(corr), 3.5 / std::sqrt(double(kDraws)))
          << "streams " << a << " and " << b;
    }
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.Uniform(-2.5, 7.25);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 7.25);
  }
}

TEST(RngTest, UniformMeanApproximatesMidpoint) {
  Rng rng(7);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform(0, 10);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, UniformIntCoversAllValuesInclusive) {
  Rng rng(8);
  std::set<int64_t> seen;
  for (int i = 0; i < 5000; ++i) seen.insert(rng.UniformInt(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(RngTest, UniformIntSingleValue) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.UniformInt(42, 42), 42);
}

TEST(RngTest, UniformIntUnbiasedOverSmallRange) {
  Rng rng(10);
  std::vector<int> counts(4, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<size_t>(rng.UniformInt(0, 3))];
  for (int c : counts) EXPECT_NEAR(c, n / 4, n / 40);  // within 10%
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(12);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, ExponentialIsPositive) {
  Rng rng(14);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.Exponential(0.1), 0.0);
}

TEST(RngTest, NormalMoments) {
  Rng rng(15);
  double sum = 0, sum_sq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(3.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(RngTest, LogNormalIsPositive) {
  Rng rng(16);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.LogNormal(0.0, 1.0), 0.0);
}

TEST(RngTest, PoissonZeroLambda) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, PoissonSmallLambdaMean) {
  Rng rng(18);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(3.5));
  EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(RngTest, PoissonLargeLambdaMean) {
  Rng rng(19);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(100.0));
  EXPECT_NEAR(sum / n, 100.0, 1.0);
}

TEST(RngTest, ZipfRanksWithinBounds) {
  Rng rng(20);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.Zipf(50, 1.1);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 50);
  }
}

TEST(RngTest, ZipfSkewFavorsLowRanks) {
  Rng rng(21);
  int64_t rank1 = 0, rank_high = 0;
  for (int i = 0; i < 50000; ++i) {
    const int64_t v = rng.Zipf(100, 1.2);
    if (v == 1) ++rank1;
    if (v > 50) ++rank_high;
  }
  EXPECT_GT(rank1, rank_high);  // head dominates the whole tail half
}

TEST(RngTest, ZipfZeroSkewIsUniform) {
  Rng rng(22);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<size_t>(rng.Zipf(10, 0.0) - 1)];
  }
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 50);
}

TEST(RngTest, DiscretePicksOnlyPositiveWeights) {
  Rng rng(23);
  const std::vector<double> weights{0.0, 1.0, 0.0, 2.0};
  for (int i = 0; i < 10000; ++i) {
    const size_t idx = rng.Discrete(weights);
    EXPECT_TRUE(idx == 1 || idx == 3);
  }
}

TEST(RngTest, DiscreteProportions) {
  Rng rng(24);
  const std::vector<double> weights{1.0, 3.0};
  int hits = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) hits += rng.Discrete(weights) == 1 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.75, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(25);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, ShuffleEmptyAndSingleton) {
  Rng rng(26);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  rng.Shuffle(&one);
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(RngTest, SampleWithoutReplacementUnique) {
  Rng rng(27);
  std::vector<int> pool(100);
  for (int i = 0; i < 100; ++i) pool[static_cast<size_t>(i)] = i;
  for (int round = 0; round < 50; ++round) {
    const std::vector<int> sample = rng.SampleWithoutReplacement(pool, 10);
    EXPECT_EQ(sample.size(), 10u);
    std::set<int> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 10u);
  }
}

TEST(RngTest, SampleWithoutReplacementOversizedReturnsAll) {
  Rng rng(28);
  const std::vector<int> pool{1, 2, 3};
  const std::vector<int> sample = rng.SampleWithoutReplacement(pool, 10);
  EXPECT_EQ(sample.size(), 3u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique, (std::set<int>{1, 2, 3}));
}

TEST(RngTest, SampleWithoutReplacementIsUnbiased) {
  Rng rng(29);
  std::vector<int> pool{0, 1, 2, 3, 4};
  std::vector<int> counts(5, 0);
  const int rounds = 50000;
  for (int i = 0; i < rounds; ++i) {
    for (int x : rng.SampleWithoutReplacement(pool, 2)) {
      ++counts[static_cast<size_t>(x)];
    }
  }
  // Each element appears with probability 2/5.
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / rounds, 0.4, 0.02);
  }
}

TEST(RngTest, SampleIndicesDistinctAndInRange) {
  Rng rng(31);
  SampleScratch stamps;
  std::vector<size_t> out;
  for (int round = 0; round < 200; ++round) {
    rng.SampleIndices(100, 7, &stamps, &out);
    EXPECT_EQ(out.size(), 7u);
    std::set<size_t> unique(out.begin(), out.end());
    EXPECT_EQ(unique.size(), out.size());
    for (size_t index : out) EXPECT_LT(index, 100u);
  }
}

TEST(RngTest, SampleIndicesEdgeCases) {
  Rng rng(32);
  SampleScratch stamps;
  std::vector<size_t> out{99};  // stale content must be replaced
  rng.SampleIndices(0, 5, &stamps, &out);
  EXPECT_TRUE(out.empty());
  rng.SampleIndices(5, 0, &stamps, &out);
  EXPECT_TRUE(out.empty());
  rng.SampleIndices(4, 10, &stamps, &out);  // k >= n: a full shuffle
  std::set<size_t> unique(out.begin(), out.end());
  EXPECT_EQ(unique, (std::set<size_t>{0, 1, 2, 3}));
}

TEST(RngTest, SampleIndicesIsUnbiasedSmallK) {
  // Floyd path (k << n): each index appears with probability k/n.
  Rng rng(33);
  std::vector<int> counts(20, 0);
  SampleScratch stamps;
  std::vector<size_t> out;
  const int rounds = 40000;
  for (int i = 0; i < rounds; ++i) {
    rng.SampleIndices(20, 3, &stamps, &out);
    for (size_t index : out) ++counts[index];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / rounds, 3.0 / 20.0, 0.01);
  }
}

TEST(RngTest, SampleIndicesLargeSparseKStaysDistinctAndUniform) {
  // Exercises Floyd's rule above k = 64 (n >= 16k).
  Rng rng(36);
  const size_t n = 5000, k = 128;
  SampleScratch stamps;
  std::vector<size_t> out;
  std::vector<int> counts(n, 0);
  const int rounds = 2000;
  for (int i = 0; i < rounds; ++i) {
    rng.SampleIndices(n, k, &stamps, &out);
    EXPECT_EQ(out.size(), k);
    std::set<size_t> unique(out.begin(), out.end());
    EXPECT_EQ(unique.size(), k);
    for (size_t index : out) {
      ASSERT_LT(index, n);
      ++counts[index];
    }
  }
  // Mean appearance rate k/n with loose per-index bounds.
  const double expected = rounds * static_cast<double>(k) / n;  // ~51
  for (int c : counts) EXPECT_NEAR(c, expected, expected);
}

TEST(RngTest, SampleIndicesIsUnbiasedDenseK) {
  // Dense path (k large relative to n): the partial-Fisher-Yates fallback
  // must stay uniform too.
  Rng rng(34);
  const size_t n = 200, k = 100;
  std::vector<int> counts(n, 0);
  SampleScratch stamps;
  std::vector<size_t> out;
  const int rounds = 4000;
  for (int i = 0; i < rounds; ++i) {
    rng.SampleIndices(n, k, &stamps, &out);
    EXPECT_EQ(out.size(), k);
    for (size_t index : out) ++counts[index];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / rounds, 0.5, 0.05);
  }
}

TEST(RngTest, SampleIndicesPickSequencesMatchGolden) {
  // 2,850 draws on both sides of the rule switches at k = 64 and n = 16k,
  // plus full shuffles and empty draws, interleaved so one scratch serves
  // every range size. The hash was recorded from the earlier
  // implementation (a linear duplicate scan for k <= 64, a materialized
  // index range for dense samples, a hash set otherwise); any drift in a
  // pick or in the number of draws changes it.
  Rng rng(20261017);
  SampleScratch stamps;
  std::vector<size_t> out;
  uint64_t hash = 14695981039346656037ull;  // FNV-1a, byte by byte
  const auto mix = [&hash](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (v >> (8 * b)) & 0xff;
      hash *= 1099511628211ull;
    }
  };
  const std::pair<size_t, size_t> shapes[] = {
      {20, 3},     {100, 7},   {2000, 16},  {5000, 64},   {65, 64},
      {1024, 64},  {66, 65},   {1039, 65},  {200, 100},   {2000, 256},
      {4095, 256}, {1040, 65}, {4096, 256}, {5000, 128},  {100000, 256},
      {4, 10},     {7, 7},     {0, 5},      {9, 0}};
  for (int round = 0; round < 150; ++round) {
    for (const auto& [n, k] : shapes) {
      rng.SampleIndices(n, k, &stamps, &out);
      mix(out.size());
      for (size_t index : out) mix(index);
    }
  }
  mix(rng.Next());
  EXPECT_EQ(hash, 0x1f95407842c23348ull);
}

// Property sweep: all distributions stay in range across many seeds.
class RngSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngSeedSweep, DistributionsStayInRange) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(rng.NextDouble(), 0.0);
    EXPECT_LT(rng.NextDouble(), 1.0);
    const int64_t u = rng.UniformInt(-5, 5);
    EXPECT_GE(u, -5);
    EXPECT_LE(u, 5);
    EXPECT_GT(rng.Exponential(1.0), 0.0);
    const int64_t z = rng.Zipf(20, 0.8);
    EXPECT_GE(z, 1);
    EXPECT_LE(z, 20);
    EXPECT_GE(rng.Poisson(2.0), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1, 2, 3, 17, 1234, 99999,
                                           0xDEADBEEF, ~0ull));

}  // namespace
}  // namespace sbqa::util
