#include "core/entropy_estimator.h"

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "stream/exact_stats.h"
#include "stream/generators.h"
#include "stream/samplers.h"
#include "util/math.h"

namespace substream {
namespace {

EntropyResult RunEntropy(const Stream& original, const EntropyParams& params,
                         std::uint64_t seed) {
  BernoulliSampler sampler(params.p, seed);
  EntropyEstimator estimator(params);
  for (item_t a : original) {
    if (sampler.Keep()) estimator.Update(a);
  }
  return estimator.Estimate();
}

TEST(EntropyEstimatorTest, ThresholdFormula) {
  // p^{-1/2} n^{-1/6}.
  EXPECT_NEAR(EntropyEstimator::ValidityThreshold(0.25, 1e6), 2.0 / 10.0,
              1e-9);
  EXPECT_DOUBLE_EQ(EntropyEstimator::ValidityThreshold(1.0, 0.0), 0.0);
}

TEST(EntropyEstimatorTest, ExactAtPEqualOne) {
  ZipfGenerator g(1000, 1.1, 1);
  Stream s = Materialize(g, 50000);
  EntropyParams params;
  params.p = 1.0;
  EntropyEstimator est(params);
  for (item_t a : s) est.Update(a);
  EXPECT_NEAR(est.Estimate().entropy, ExactStats(s).Entropy(), 1e-9);
}

// Theorem 5 property sweep: for streams whose entropy clears the validity
// threshold, the sampled-stream entropy is a constant-factor approximation.
class EntropyApproxSweepTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(EntropyApproxSweepTest, ConstantFactorAboveThreshold) {
  const double skew = std::get<0>(GetParam());
  const double p = std::get<1>(GetParam());
  ZipfGenerator g(4000, skew, 3);
  Stream s = Materialize(g, 100000);
  const double truth = ExactStats(s).Entropy();
  EntropyParams params;
  params.p = p;
  params.n_hint = static_cast<double>(s.size());
  const EntropyResult result = RunEntropy(s, params, 17);
  ASSERT_GT(truth, 4.0 * EntropyEstimator::ValidityThreshold(
                             p, static_cast<double>(s.size())));
  EXPECT_TRUE(result.reliable);
  // Lemma 10: H(f)/2 - o(1) <= H_pn(g) <= O(H(f)). Demand factor 3.
  EXPECT_TRUE(WithinFactor(result.entropy, truth, 3.0))
      << "estimate=" << result.entropy << " truth=" << truth
      << " skew=" << skew << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    TheoremFiveSweep, EntropyApproxSweepTest,
    ::testing::Combine(::testing::Values(0.6, 1.0, 1.4),
                       ::testing::Values(1.0, 0.3, 0.1)));

TEST(EntropyEstimatorTest, HpnTracksEntropy) {
  ZipfGenerator g(2000, 1.0, 4);
  Stream s = Materialize(g, 80000);
  EntropyParams params;
  params.p = 0.2;
  params.n_hint = static_cast<double>(s.size());
  const EntropyResult result = RunEntropy(s, params, 5);
  // Proposition 1: |H_pn(g) - H(g)| small.
  EXPECT_NEAR(result.entropy_hpn, result.entropy, 0.25);
}

TEST(EntropyEstimatorTest, LowEntropyStreamUnreliable) {
  // Lemma 9 Scenario 2: entropy below threshold => the estimator must not
  // claim reliability.
  const std::size_t n = 100000;
  const double p = 0.05;
  const std::size_t k = static_cast<std::size_t>(1.0 / (10.0 * p));
  EntropyScenarioPair pair = MakeLemma9Pair(n, k, 6);
  EntropyParams params;
  params.p = p;
  params.n_hint = static_cast<double>(n);
  const EntropyResult low = RunEntropy(pair.low_entropy, params, 7);
  EXPECT_FALSE(low.reliable);
  EXPECT_DOUBLE_EQ(low.entropy, 0.0);
}

TEST(EntropyEstimatorTest, NHintDefaultsToScaledLength) {
  EntropyParams params;
  params.p = 0.25;
  params.n_hint = 0.0;
  EntropyEstimator est(params);
  for (int i = 0; i < 1000; ++i) est.Update(static_cast<item_t>(i % 10));
  const EntropyResult result = est.Estimate();
  // n inferred as 1000 / 0.25 = 4000; threshold = p^-1/2 * 4000^-1/6.
  EXPECT_NEAR(result.threshold,
              2.0 / std::pow(4000.0, 1.0 / 6.0), 1e-9);
}

}  // namespace
}  // namespace substream
