#include "core/fk_estimator.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/collision.h"
#include "serde/serde.h"
#include "stream/exact_stats.h"
#include "stream/generators.h"
#include "stream/samplers.h"
#include "util/math.h"
#include "util/stats.h"

namespace substream {
namespace {

/// Runs Algorithm 1 on a Bernoulli(p) sample of `original`.
double RunFk(const Stream& original, const FkParams& params,
             std::uint64_t seed) {
  BernoulliSampler sampler(params.p, seed);
  FkEstimator estimator(params, seed + 1);
  for (item_t a : original) {
    if (sampler.Keep()) estimator.Update(a);
  }
  return estimator.Estimate();
}

TEST(FkEstimatorTest, ExactBackendAtPEqualOneIsExact) {
  ZipfGenerator g(1000, 1.2, 1);
  Stream s = Materialize(g, 50000);
  FrequencyTable exact = ExactStats(s);
  for (int k = 2; k <= 5; ++k) {
    FkParams params;
    params.k = k;
    params.p = 1.0;
    params.backend = CollisionBackend::kExactCollisions;
    FkEstimator est(params, 2);
    for (item_t a : s) est.Update(a);
    EXPECT_NEAR(est.Estimate(), exact.Fk(k), 1e-6 * exact.Fk(k))
        << "k=" << k;
  }
}

TEST(FkEstimatorTest, MomentLadderMatchesAllOrders) {
  ZipfGenerator g(500, 1.3, 3);
  Stream s = Materialize(g, 30000);
  FrequencyTable exact = ExactStats(s);
  FkParams params;
  params.k = 4;
  params.p = 1.0;
  params.backend = CollisionBackend::kExactCollisions;
  FkEstimator est(params, 4);
  for (item_t a : s) est.Update(a);
  const auto moments = est.AllMoments();
  ASSERT_EQ(moments.size(), 4u);
  for (int l = 1; l <= 4; ++l) {
    EXPECT_NEAR(moments[static_cast<std::size_t>(l - 1)], exact.Fk(l),
                1e-6 * exact.Fk(l))
        << "l=" << l;
  }
}

// Property sweep (Theorem 1 shape): with the exact-collision backend the
// only error is sampling noise; the estimate should land within a modest
// factor of the truth across k and p combinations, measured by the median
// over trials.
class FkSamplingSweepTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(FkSamplingSweepTest, MedianErrorSmall) {
  const int k = std::get<0>(GetParam());
  const double p = std::get<1>(GetParam());
  ZipfGenerator g(2000, 1.2, 5);
  Stream s = Materialize(g, 100000);
  FrequencyTable exact = ExactStats(s);
  FkParams params;
  params.k = k;
  params.p = p;
  params.backend = CollisionBackend::kExactCollisions;
  std::vector<double> errors;
  for (int trial = 0; trial < 9; ++trial) {
    const double estimate =
        RunFk(s, params, 100 * static_cast<std::uint64_t>(trial) + 11);
    errors.push_back(RelativeError(estimate, exact.Fk(k)));
  }
  // Tolerance grows with k (collision unbiasing amplifies noise by the beta
  // ladder) and shrinks with p.
  const double tolerance = 0.12 * std::pow(1.8, k - 2) / std::sqrt(p);
  EXPECT_LT(Median(errors), tolerance) << "k=" << k << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    TheoremOneSweep, FkSamplingSweepTest,
    ::testing::Combine(::testing::Values(2, 3, 4),
                       ::testing::Values(1.0, 0.5, 0.2, 0.1)));

TEST(FkEstimatorTest, SketchBackendWithinFactorOnSkewedStream) {
  ZipfGenerator g(4000, 1.3, 6);
  Stream s = Materialize(g, 150000);
  FrequencyTable exact = ExactStats(s);
  FkParams params;
  params.k = 2;
  params.p = 0.5;
  params.universe = 4000;
  params.backend = CollisionBackend::kSketch;
  params.space_multiplier = 2.0;
  std::vector<double> estimates;
  for (int trial = 0; trial < 5; ++trial) {
    estimates.push_back(RunFk(s, params, 500 + static_cast<std::uint64_t>(trial)));
  }
  EXPECT_TRUE(WithinFactor(Median(estimates), exact.Fk(2), 1.7))
      << "median=" << Median(estimates) << " exact=" << exact.Fk(2);
}

TEST(FkEstimatorTest, ExactLevelSetBackendCloseToExactCollisions) {
  ZipfGenerator g(1000, 1.2, 7);
  Stream s = Materialize(g, 60000);
  FkParams exact_params;
  exact_params.k = 3;
  exact_params.p = 1.0;
  exact_params.backend = CollisionBackend::kExactCollisions;
  FkParams level_params = exact_params;
  level_params.backend = CollisionBackend::kExactLevelSets;
  FkEstimator a(exact_params, 8), b(level_params, 8);
  for (item_t x : s) {
    a.Update(x);
    b.Update(x);
  }
  // Discretization alone must stay within the (1+eps')^l envelope; the
  // schedule-driven eps' is small, so demand 15%.
  EXPECT_LT(RelativeError(b.Estimate(), a.Estimate()), 0.15);
}

TEST(FkEstimatorTest, SampledLengthAndPhi1) {
  FkParams params;
  params.k = 2;
  params.p = 0.25;
  params.backend = CollisionBackend::kExactCollisions;
  FkEstimator est(params, 9);
  for (int i = 0; i < 1000; ++i) est.Update(static_cast<item_t>(i));
  EXPECT_EQ(est.SampledLength(), 1000u);
  // phi~_1 = F1(L)/p = 4000.
  EXPECT_DOUBLE_EQ(est.AllMoments()[0], 4000.0);
}

TEST(FkEstimatorTest, EpsilonScheduleExposed) {
  FkParams params;
  params.k = 3;
  params.epsilon = 0.3;
  params.backend = CollisionBackend::kExactCollisions;
  FkEstimator est(params, 10);
  ASSERT_EQ(est.epsilon_schedule().size(), 3u);
  EXPECT_DOUBLE_EQ(est.epsilon_schedule()[2], 0.3);
}

TEST(FkEstimatorTest, MinSamplingProbabilityFormula) {
  EXPECT_DOUBLE_EQ(FkEstimator::MinSamplingProbability(2, 10000, 1 << 30),
                   0.01);
  EXPECT_DOUBLE_EQ(FkEstimator::MinSamplingProbability(2, 1 << 30, 10000),
                   0.01);
  EXPECT_NEAR(FkEstimator::MinSamplingProbability(3, 1000000, 1 << 30),
              0.01, 1e-12);
}

TEST(FkEstimatorTest, SketchWidthScalesWithPAndK) {
  FkParams base;
  base.k = 2;
  base.p = 0.1;
  base.universe = 1 << 16;
  FkParams smaller_p = base;
  smaller_p.p = 0.01;
  EXPECT_GT(FkEstimator::SketchWidth(smaller_p),
            FkEstimator::SketchWidth(base));
  FkParams higher_k = base;
  higher_k.k = 4;
  EXPECT_GT(FkEstimator::SketchWidth(higher_k),
            FkEstimator::SketchWidth(base));
  FkParams capped = higher_k;
  capped.max_width = 128;
  EXPECT_EQ(FkEstimator::SketchWidth(capped), 128u);
}

TEST(FkEstimatorTest, CollisionEstimatesDiagnostics) {
  FkParams params;
  params.k = 3;
  params.p = 1.0;
  params.backend = CollisionBackend::kExactCollisions;
  FkEstimator est(params, 11);
  // f = (3, 2): C2 = 3+1 = 4, C3 = 1.
  for (item_t x : Stream{1, 1, 1, 2, 2}) est.Update(x);
  const auto collisions = est.CollisionEstimates();
  ASSERT_EQ(collisions.size(), 2u);
  EXPECT_DOUBLE_EQ(collisions[0], 4.0);
  EXPECT_DOUBLE_EQ(collisions[1], 1.0);
}

TEST(FkEstimatorTest, SketchLadderReadsLevelSetsOnceBitwise) {
  // AllMoments() and CollisionEstimates() evaluate every l from one
  // level-set readout; each C~_l must equal the per-l EstimateCollisions
  // of the same level-set structure, read back off the wire record.
  ZipfGenerator g(1 << 14, 1.1, 21);
  const Stream s = Materialize(g, 60000);
  FkParams params;
  params.k = 4;
  params.p = 0.5;
  params.epsilon = 0.3;
  params.universe = 1 << 14;
  params.max_width = 512;
  params.backend = CollisionBackend::kSketch;
  FkEstimator est(params, 22);
  FeedItems(est, s.data(), s.size());

  serde::Writer out;
  est.Serialize(out);
  serde::Reader in(out.bytes());
  ASSERT_TRUE(in.ExpectRecord(serde::TypeTag::kFkEstimator));
  in.Varint();  // k
  in.F64();     // epsilon
  in.F64();     // delta
  in.F64();     // p
  in.Varint();  // universe
  in.Varint();  // n_hint
  in.U8();      // backend
  in.F64();     // space_multiplier
  in.Varint();  // max_width
  in.U8();      // cell_width
  in.Varint();  // sampled length
  const std::optional<IndykWoodruffEstimator> levels =
      IndykWoodruffEstimator::Deserialize(in);
  ASSERT_TRUE(levels.has_value());

  const std::vector<double> collisions = est.CollisionEstimates();
  const std::vector<double> moments = est.AllMoments();
  ASSERT_EQ(collisions.size(), 3u);
  ASSERT_EQ(moments.size(), 4u);
  std::vector<double> phi{static_cast<double>(est.SampledLength()) / params.p};
  EXPECT_EQ(moments[0], phi[0]);
  for (int l = 2; l <= params.k; ++l) {
    const double c = levels->EstimateCollisions(l);
    EXPECT_GT(c, 0.0) << "l " << l;
    EXPECT_EQ(collisions[static_cast<std::size_t>(l - 2)], c) << "l " << l;
    const double value = std::max(
        MomentFromCollisions(l, UnbiasedOriginalCollisions(c, params.p, l),
                             phi),
        phi.back());
    phi.push_back(value);
    EXPECT_EQ(moments[static_cast<std::size_t>(l - 1)], value) << "l " << l;
  }
  EXPECT_EQ(est.Estimate(), moments.back());
}

TEST(FkEstimatorTest, LadderIsMonotoneByConstruction) {
  UniformGenerator g(50000, 12);
  Stream s = Materialize(g, 20000);  // mostly singletons
  FkParams params;
  params.k = 5;
  params.p = 0.3;
  params.backend = CollisionBackend::kExactCollisions;
  BernoulliSampler sampler(params.p, 13);
  FkEstimator est(params, 14);
  for (item_t a : s) {
    if (sampler.Keep()) est.Update(a);
  }
  const auto moments = est.AllMoments();
  for (std::size_t i = 1; i < moments.size(); ++i) {
    EXPECT_GE(moments[i], moments[i - 1]);
  }
}

TEST(FkEstimatorTest, SketchSpaceIndependentOfStreamSize) {
  // The point of Theorem 1: sketch space depends on (p, m, eps) only —
  // feeding 8x more data must not grow it materially, while the exact
  // backend grows with the distinct count of L.
  FkParams sketch_params;
  sketch_params.k = 2;
  sketch_params.p = 0.25;
  sketch_params.epsilon = 0.2;
  sketch_params.universe = 1 << 20;
  sketch_params.backend = CollisionBackend::kSketch;
  sketch_params.space_multiplier = 1.0;
  FkParams exact_params = sketch_params;
  exact_params.backend = CollisionBackend::kExactCollisions;

  auto space_after = [](const FkParams& params, std::size_t n) {
    UniformGenerator g(1 << 20, 15);
    BernoulliSampler sampler(params.p, 16);
    FkEstimator est(params, 17);
    for (std::size_t i = 0; i < n; ++i) {
      const item_t a = g.Next();
      if (sampler.Keep()) est.Update(a);
    }
    return est.SpaceBytes();
  };

  const std::size_t sketch_small = space_after(sketch_params, 50000);
  const std::size_t sketch_large = space_after(sketch_params, 400000);
  const std::size_t exact_small = space_after(exact_params, 50000);
  const std::size_t exact_large = space_after(exact_params, 400000);

  EXPECT_LT(static_cast<double>(sketch_large),
            1.25 * static_cast<double>(sketch_small));
  EXPECT_GT(static_cast<double>(exact_large),
            3.0 * static_cast<double>(exact_small));
  EXPECT_LT(sketch_large, exact_large);
}

}  // namespace
}  // namespace substream
