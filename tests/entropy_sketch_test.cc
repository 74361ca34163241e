#include "sketch/entropy_sketch.h"

#include <cmath>

#include <gtest/gtest.h>

#include "stream/exact_stats.h"
#include "stream/generators.h"
#include "util/math.h"
#include "util/stats.h"

namespace substream {
namespace {

TEST(EntropyMleTest, MatchesExactTable) {
  ZipfGenerator g(500, 1.1, 1);
  Stream s = Materialize(g, 30000);
  EntropyMleEstimator mle;
  for (item_t a : s) mle.Update(a);
  EXPECT_NEAR(mle.Estimate(), ExactStats(s).Entropy(), 1e-9);
  EXPECT_EQ(mle.ConsumedLength(), s.size());
}

TEST(EntropyMleTest, UniformIsLogM) {
  EntropyMleEstimator mle;
  for (int rep = 0; rep < 10; ++rep) {
    for (item_t x = 1; x <= 256; ++x) mle.Update(x);
  }
  EXPECT_NEAR(mle.Estimate(), 8.0, 1e-9);
}

TEST(EntropyMleTest, ConstantIsZero) {
  EntropyMleEstimator mle;
  for (int i = 0; i < 1000; ++i) mle.Update(7);
  EXPECT_DOUBLE_EQ(mle.Estimate(), 0.0);
}

TEST(EntropyMleTest, MillerMadowAddsPositiveCorrection) {
  ZipfGenerator g(500, 1.0, 2);
  Stream s = Materialize(g, 5000);
  EntropyMleEstimator mle;
  for (item_t a : s) mle.Update(a);
  const double miller_madow = mle.Readout(0.0).miller_madow;
  EXPECT_GT(miller_madow, mle.Estimate());
  // Correction shrinks with stream length; it must stay small here.
  EXPECT_LT(miller_madow - mle.Estimate(), 0.2);
}

TEST(EntropyMleTest, HpnCloseToPlainEntropy) {
  // Proposition 1: |H_pn(g) - H(g)| = O(log m / sqrt(pn)).
  ZipfGenerator g(1000, 1.1, 3);
  Stream s = Materialize(g, 50000);
  EntropyMleEstimator mle;
  for (item_t a : s) mle.Update(a);
  // Treat the consumed stream as L with pn equal to the realized length:
  // then H_pn == H exactly.
  EXPECT_NEAR(mle.Readout(static_cast<double>(s.size())).hpn, mle.Estimate(),
              1e-9);
  // Perturbed normalization moves the value only slightly.
  const double perturbed =
      mle.Readout(static_cast<double>(s.size()) * 1.02).hpn;
  EXPECT_NEAR(perturbed, mle.Estimate(), 0.15);
}

TEST(AmsEntropyTest, UnbiasedAtomOnKnownStream) {
  // Stream: 8 copies of item 1, 8 of item 2 => H = 1 bit. The single-atom
  // estimator should average to 1 over many seeds.
  Stream s;
  for (int i = 0; i < 8; ++i) s.push_back(1);
  for (int i = 0; i < 8; ++i) s.push_back(2);
  RunningStats stats;
  for (int rep = 0; rep < 20000; ++rep) {
    AmsEntropySketch sketch = AmsEntropySketch::WithGeometry(1, 1, static_cast<std::uint64_t>(rep));
    for (item_t a : s) sketch.Update(a);
    stats.Add(sketch.Estimate());
  }
  EXPECT_NEAR(stats.Mean(), 1.0, 0.05);
}

TEST(AmsEntropyTest, AccurateOnHighEntropyStream) {
  UniformGenerator g(1024, 4);
  Stream s = Materialize(g, 60000);
  const double exact = ExactStats(s).Entropy();  // ~10 bits
  AmsEntropySketch sketch = AmsEntropySketch::WithGeometry(9, 300, 5);
  for (item_t a : s) sketch.Update(a);
  EXPECT_LT(RelativeError(sketch.Estimate(), exact), 0.15);
}

TEST(AmsEntropyTest, AccurateOnZipfStream) {
  ZipfGenerator g(2000, 1.0, 6);
  Stream s = Materialize(g, 60000);
  const double exact = ExactStats(s).Entropy();
  AmsEntropySketch sketch = AmsEntropySketch::WithGeometry(9, 300, 7);
  for (item_t a : s) sketch.Update(a);
  EXPECT_LT(RelativeError(sketch.Estimate(), exact), 0.2);
}

TEST(AmsEntropyTest, ConstantStreamNearZero) {
  // H = 0 for a constant stream; individual atoms are nonzero but the
  // estimator is unbiased, so a moderately sized sketch lands near zero
  // (per-atom std is ~lg e bits).
  AmsEntropySketch sketch = AmsEntropySketch::WithGeometry(5, 200, 8);
  for (int i = 0; i < 5000; ++i) sketch.Update(3);
  EXPECT_NEAR(sketch.Estimate(), 0.0, 0.4);
}

TEST(AmsEntropyTest, SpaceIndependentOfStreamLength) {
  AmsEntropySketch sketch = AmsEntropySketch::WithGeometry(3, 10, 9);
  const std::size_t before = sketch.SpaceBytes();
  for (int i = 0; i < 100000; ++i) {
    sketch.Update(static_cast<item_t>(i % 97));
  }
  EXPECT_EQ(sketch.SpaceBytes(), before);
}

}  // namespace
}  // namespace substream
