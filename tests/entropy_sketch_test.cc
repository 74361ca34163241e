#include "sketch/entropy_sketch.h"

#include <cmath>

#include <gtest/gtest.h>

#include "stream/exact_stats.h"
#include "stream/generators.h"

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

}  // namespace
}  // namespace substream
