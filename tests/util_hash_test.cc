#include "util/hash.h"

#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace substream {
namespace {

TEST(Mix64Test, DeterministicAndDistinct) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  std::set<std::uint64_t> outputs;
  for (std::uint64_t x = 0; x < 4096; ++x) outputs.insert(Mix64(x));
  EXPECT_EQ(outputs.size(), 4096u);  // bijection => no collisions
}

TEST(Mix64Test, AvalancheOnSingleBitFlips) {
  // Flipping one input bit should flip roughly half the output bits.
  double total_flips = 0.0;
  int cases = 0;
  for (std::uint64_t x = 1; x < 200; ++x) {
    for (int b = 0; b < 64; b += 7) {
      const std::uint64_t diff = Mix64(x) ^ Mix64(x ^ (1ULL << b));
      total_flips += __builtin_popcountll(diff);
      ++cases;
    }
  }
  const double mean_flips = total_flips / cases;
  EXPECT_GT(mean_flips, 24.0);
  EXPECT_LT(mean_flips, 40.0);
}

TEST(DeriveSeedTest, DistinctPerIndex) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(DeriveSeed(7, i));
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(PolynomialHashTest, DeterministicGivenSeed) {
  PolynomialHash h1(4, 123);
  PolynomialHash h2(4, 123);
  PolynomialHash h3(4, 124);
  bool any_different = false;
  for (std::uint64_t x = 0; x < 100; ++x) {
    EXPECT_EQ(h1.Hash(x), h2.Hash(x));
    any_different |= (h1.Hash(x) != h3.Hash(x));
  }
  EXPECT_TRUE(any_different);
}

TEST(PolynomialHashTest, OutputInFieldRange) {
  PolynomialHash h(3, 99);
  for (std::uint64_t x = 0; x < 10000; x += 37) {
    EXPECT_LT(h.Hash(x), PolynomialHash::kPrime);
  }
}

TEST(PolynomialHashTest, BucketsAreUniform) {
  PolynomialHash h(2, 5);
  const std::uint64_t buckets = 16;
  std::vector<int> histogram(buckets, 0);
  const int n = 160000;
  for (int x = 0; x < n; ++x) ++histogram[h.Bucket(static_cast<std::uint64_t>(x), buckets)];
  const double expected = static_cast<double>(n) / buckets;
  for (std::uint64_t b = 0; b < buckets; ++b) {
    EXPECT_NEAR(histogram[b], expected, 0.05 * expected) << "bucket " << b;
  }
}

TEST(FastRange64Test, OutputInRangeAndOrderPreserving) {
  // FastRange64(x, n) = floor(x * n / 2^64): always < n, monotone in x.
  const std::uint64_t ranges[] = {1, 2, 3, 10, 1000, 1ULL << 32};
  for (std::uint64_t n : ranges) {
    EXPECT_EQ(FastRange64(0, n), 0u);
    EXPECT_EQ(FastRange64(~0ULL, n), n - 1);
    std::uint64_t prev = 0;
    for (std::uint64_t x = 0; x < (1ULL << 60); x += (1ULL << 55)) {
      const std::uint64_t b = FastRange64(x, n);
      EXPECT_LT(b, n);
      EXPECT_GE(b, prev);  // monotone
      prev = b;
    }
  }
}

TEST(FastRange64Test, UniformOnMixedInputs) {
  // Chi-square-style check on a non-power-of-two bucket count: feeding
  // Mix64 outputs, every bucket's load must sit within 4 sigma of n/B.
  const std::uint64_t buckets = 37;
  std::vector<int> histogram(buckets, 0);
  const int n = 370000;
  for (int x = 0; x < n; ++x) {
    ++histogram[FastRange64(Mix64(static_cast<std::uint64_t>(x)), buckets)];
  }
  const double expected = static_cast<double>(n) / buckets;
  const double sigma = std::sqrt(expected);
  for (std::uint64_t b = 0; b < buckets; ++b) {
    EXPECT_NEAR(histogram[b], expected, 4.0 * sigma) << "bucket " << b;
  }
}

TEST(PolynomialHashTest, BucketMatchesFastRangeReduction) {
  // Pins the fast-range bucket formula (floor(Hash * B / 2^61) via the
  // <<3 spread) so a regression back to `%` or a different reduction is a
  // test failure, not a silent wire/behavior change.
  PolynomialHash h(2, 31);
  for (std::uint64_t x = 0; x < 2000; ++x) {
    const std::uint64_t expected = FastRange64(h.Hash(x) << 3, 1000);
    EXPECT_EQ(h.Bucket(x, 1000), expected);
    EXPECT_LT(h.Bucket(x, 1000), 1000u);
  }
}

TEST(PolynomialHashTest, BucketsUniformOnNonPowerOfTwo) {
  // The satellite check for the fast-range Bucket: distribution uniformity
  // on a bucket count with no divisibility relationship to the field.
  PolynomialHash h(2, 9);
  const std::uint64_t buckets = 23;
  std::vector<int> histogram(buckets, 0);
  const int n = 230000;
  for (int x = 0; x < n; ++x) {
    ++histogram[h.Bucket(static_cast<std::uint64_t>(x), buckets)];
  }
  const double expected = static_cast<double>(n) / buckets;
  const double sigma = std::sqrt(expected);
  for (std::uint64_t b = 0; b < buckets; ++b) {
    EXPECT_NEAR(histogram[b], expected, 4.0 * sigma) << "bucket " << b;
  }
}

TEST(PrehashTest, PreHashIsBijectiveAndAvalanches) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t x = 0; x < 4096; ++x) outputs.insert(PreHash(x));
  EXPECT_EQ(outputs.size(), 4096u);  // bijection => no collisions
  // Distinct from raw Mix64 (the salt must matter).
  EXPECT_NE(PreHash(42), Mix64(42));
}

TEST(PrehashTest, RemixIsBijectivePerSeedAndDistinctAcrossSeeds) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t x = 0; x < 4096; ++x) {
    outputs.insert(RemixHash(PreHash(x), /*seed=*/99));
  }
  EXPECT_EQ(outputs.size(), 4096u);  // bijective for a fixed seed
  int differing = 0;
  for (std::uint64_t x = 0; x < 256; ++x) {
    const std::uint64_t h = PreHash(x);
    if (RemixHash(h, 1) != RemixHash(h, 2)) ++differing;
  }
  EXPECT_EQ(differing, 256);
}

TEST(PrehashTest, RemixedBucketsAreUniform) {
  // The bucket derivation every CounterTable row uses: remix + fast-range.
  const std::uint64_t buckets = 64;
  std::vector<int> histogram(buckets, 0);
  const int n = 640000;
  const std::uint64_t row_seed = DeriveSeed(7, 2);
  for (int x = 0; x < n; ++x) {
    ++histogram[FastRange64(
        RemixHash(PreHash(static_cast<std::uint64_t>(x)), row_seed),
        buckets)];
  }
  const double expected = static_cast<double>(n) / buckets;
  const double sigma = std::sqrt(expected);
  for (std::uint64_t b = 0; b < buckets; ++b) {
    EXPECT_NEAR(histogram[b], expected, 4.0 * sigma) << "bucket " << b;
  }
}

TEST(PrehashTest, PrehashColumnMatchesMakePrehashed) {
  std::vector<std::uint64_t> data = {0, 1, 42, ~0ULL, 1ULL << 63};
  std::vector<std::uint64_t> hashes(data.size());
  PrehashColumnSoA(data.data(), data.size(), hashes.data());
  const PrehashedColumns cols{data.data(), hashes.data()};
  for (std::size_t i = 0; i < data.size(); ++i) {
    const PrehashedItem ph = MakePrehashed(data[i]);
    EXPECT_EQ(cols.At(i).item, ph.item);
    EXPECT_EQ(cols.At(i).hash, ph.hash);
    EXPECT_EQ(cols.At(i).item, data[i]);
  }
}

TEST(PolynomialHashTest, SignsAreBalanced) {
  PolynomialHash h(4, 17);
  int sum = 0;
  const int n = 100000;
  for (int x = 0; x < n; ++x) sum += h.Sign(static_cast<std::uint64_t>(x));
  // Balanced signs: |sum| should be O(sqrt(n)).
  EXPECT_LT(std::abs(sum), 10 * static_cast<int>(std::sqrt(n)));
}

TEST(PolynomialHashTest, PairwiseCollisionRate) {
  // Pairwise independence: Pr_h[h(x) mod B == h(y) mod B] ~ 1/B, where the
  // probability is over the random draw of the hash function (for a fixed
  // linear hash, differences are constant, so we must sample seeds).
  const std::uint64_t buckets = 64;
  int collisions = 0;
  const int trials = 8000;
  for (int seed = 0; seed < trials; ++seed) {
    PolynomialHash h(2, static_cast<std::uint64_t>(seed));
    if (h.Bucket(123456, buckets) == h.Bucket(654321, buckets)) ++collisions;
  }
  const double rate = static_cast<double>(collisions) / trials;
  EXPECT_NEAR(rate, 1.0 / buckets, 0.008);
}

TEST(PolynomialHashTest, UnitInRange) {
  PolynomialHash h(2, 77);
  double sum = 0.0;
  const int n = 50000;
  for (int x = 0; x < n; ++x) {
    const double u = h.Unit(static_cast<std::uint64_t>(x));
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(PolynomialHashTest, IndependenceAccessors) {
  PolynomialHash h(4, 3);
  EXPECT_EQ(h.independence(), 4);
  EXPECT_EQ(h.SpaceBytes(), 4 * sizeof(std::uint64_t));
}

TEST(TabulationHashTest, DeterministicGivenSeed) {
  TabulationHash h1(55);
  TabulationHash h2(55);
  for (std::uint64_t x = 0; x < 200; ++x) EXPECT_EQ(h1.Hash(x), h2.Hash(x));
}

TEST(TabulationHashTest, TrailingZeroGeometry) {
  // Depth assignment for the level-set machinery: Pr[ctz(h(x)) >= t] ~ 2^-t.
  TabulationHash h(91);
  const int n = 1 << 16;
  std::vector<int> depth_count(8, 0);
  for (int x = 0; x < n; ++x) {
    const std::uint64_t v = h.Hash(static_cast<std::uint64_t>(x));
    const int tz = v == 0 ? 64 : __builtin_ctzll(v);
    for (int t = 0; t < 8 && t <= tz; ++t) ++depth_count[t];
  }
  for (int t = 1; t < 8; ++t) {
    const double expected = std::ldexp(static_cast<double>(n), -t);
    EXPECT_NEAR(depth_count[t], expected, 6.0 * std::sqrt(expected) + 8.0)
        << "depth " << t;
  }
}

TEST(TabulationHashTest, BitsAreBalanced) {
  TabulationHash h(123);
  const int n = 1 << 14;
  for (int bit = 0; bit < 64; bit += 9) {
    int ones = 0;
    for (int x = 0; x < n; ++x) {
      ones += (h.Hash(static_cast<std::uint64_t>(x)) >> bit) & 1;
    }
    EXPECT_NEAR(ones, n / 2, 6 * std::sqrt(n)) << "bit " << bit;
  }
}

}  // namespace
}  // namespace substream
