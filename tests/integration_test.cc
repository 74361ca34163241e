/// End-to-end integration tests: original stream P -> Bernoulli sampler ->
/// every estimator of the library, checked against exact statistics of P.
/// This is the full pipeline a monitor deployment would run.

#include <cmath>

#include <gtest/gtest.h>

#include "core/substream.h"
#include "util/math.h"
#include "util/stats.h"

namespace substream {
namespace {

struct Pipeline {
  Stream original;
  Stream sampled;
  FrequencyTable exact;
  double p;
};

Pipeline MakePipeline(double p, std::uint64_t seed) {
  ZipfGenerator g(4000, 1.2, seed);
  Pipeline pipe;
  pipe.original = Materialize(g, 200000);
  BernoulliSampler sampler(p, seed + 1);
  pipe.sampled = sampler.Sample(pipe.original);
  pipe.exact.AddStream(pipe.original);
  pipe.p = p;
  return pipe;
}

TEST(IntegrationTest, AllEstimatorsOnePass) {
  const double p = 0.2;
  Pipeline pipe = MakePipeline(p, 1);

  FkParams fk_params;
  fk_params.k = 2;
  fk_params.p = p;
  fk_params.universe = 4000;
  fk_params.backend = CollisionBackend::kExactCollisions;
  FkEstimator fk(fk_params, 2);

  F0Params f0_params;
  f0_params.p = p;
  F0Estimator f0(f0_params, 3);

  EntropyParams h_params;
  h_params.p = p;
  h_params.n_hint = static_cast<double>(pipe.original.size());
  EntropyEstimator entropy(h_params);

  HeavyHitterParams hh_params;
  hh_params.alpha = 0.02;
  hh_params.epsilon = 0.25;
  hh_params.p = p;
  F1HeavyHitterEstimator f1hh(hh_params, 5);

  // Single pass over L feeding every estimator.
  for (item_t a : pipe.sampled) {
    fk.Update(a);
    f0.Update(a);
    entropy.Update(a);
    f1hh.Update(a);
  }

  EXPECT_LT(RelativeError(fk.Estimate(), pipe.exact.Fk(2)), 0.25);
  EXPECT_TRUE(WithinFactor(f0.Estimate(),
                           static_cast<double>(pipe.exact.F0()),
                           4.0 / std::sqrt(p)));
  EXPECT_TRUE(WithinFactor(entropy.Estimate().entropy, pipe.exact.Entropy(),
                           3.0));
  // The most frequent item of a Zipf(1.2) stream is an F1 heavy hitter at
  // alpha = 2%.
  const auto top = pipe.exact.TopK(1);
  ASSERT_FALSE(top.empty());
  if (static_cast<double>(top[0].second) >=
      0.02 * static_cast<double>(pipe.exact.F1())) {
    const auto hh = f1hh.Estimate();
    EXPECT_TRUE(std::any_of(hh.begin(), hh.end(), [&](const HeavyHitter& h) {
      return h.item == top[0].first;
    }));
  }
}

TEST(IntegrationTest, DeterministicEndToEnd) {
  auto run = [] {
    Pipeline pipe = MakePipeline(0.3, 7);
    FkParams params;
    params.k = 3;
    params.p = 0.3;
    params.backend = CollisionBackend::kExactCollisions;
    FkEstimator fk(params, 8);
    for (item_t a : pipe.sampled) fk.Update(a);
    return fk.Estimate();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(IntegrationTest, SketchModeFullPipeline) {
  Pipeline pipe = MakePipeline(0.5, 9);
  FkParams params;
  params.k = 2;
  params.p = 0.5;
  params.universe = 4000;
  params.backend = CollisionBackend::kSketch;
  params.space_multiplier = 2.0;
  std::vector<double> estimates;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    FkEstimator fk(params, 10 + seed);
    for (item_t a : pipe.sampled) fk.Update(a);
    estimates.push_back(fk.Estimate());
  }
  EXPECT_TRUE(WithinFactor(Median(estimates), pipe.exact.Fk(2), 1.7))
      << "median=" << Median(estimates) << " exact=" << pipe.exact.Fk(2);
}

TEST(IntegrationTest, TimeSpaceTradeoffShape) {
  // Section 1.2: with n = Theta(m) and p = 1/sqrt(n), the sampled stream
  // has ~sqrt(n) elements — sublinear total work — and the estimator still
  // lands within a constant factor.
  const std::size_t n = 1 << 16;
  UniformGenerator g(n / 2, 11);
  Stream original = Materialize(g, n);
  FrequencyTable exact = ExactStats(original);
  const double p = 1.0 / std::sqrt(static_cast<double>(n));

  BernoulliSampler sampler(p, 12);
  Stream sampled = sampler.Sample(original);
  // Sampled length concentrates around sqrt(n) = 256.
  EXPECT_LT(sampled.size(), 8u * static_cast<std::size_t>(std::sqrt(n)));

  // At p = n^{-1/2} = min(m,n)^{-1/2}, k = 2 sits exactly at the
  // feasibility edge of Theorem 1; a constant-factor estimate remains
  // achievable on mean-field streams like this one. Use the collision
  // pipeline with exact counting of the tiny sample.
  std::vector<double> estimates;
  for (std::uint64_t seed = 0; seed < 31; ++seed) {
    FkParams params;
    params.k = 2;
    params.p = p;
    params.backend = CollisionBackend::kExactCollisions;
    BernoulliSampler s2(p, 100 + seed);
    FkEstimator fk(params, 200 + seed);
    for (item_t a : original) {
      if (s2.Keep()) fk.Update(a);
    }
    estimates.push_back(fk.Estimate());
  }
  EXPECT_TRUE(WithinFactor(Median(estimates), exact.Fk(2), 2.5))
      << "median=" << Median(estimates) << " exact=" << exact.Fk(2);
}

TEST(IntegrationTest, SpaceSavingOnSampledStreamFindsHeavy) {
  // Theorem 6 remark: a counter-based summary can replace CountMin on
  // insert-only sampled streams.
  PlantedHeavyHitterGenerator g(5, 0.5, 20000, 15);
  Stream original = Materialize(g, 300000);
  BernoulliSampler sampler(0.1, 16);
  SpaceSaving ss(64);
  for (item_t a : original) {
    if (sampler.Keep()) ss.Update(a);
  }
  for (item_t id : g.HeavyIds()) {
    // Each planted item holds ~10% of L: its SpaceSaving estimate (scaled
    // by 1/p) must be within a factor 2 of the true ~30000.
    const double scaled = static_cast<double>(ss.Estimate(id)) / 0.1;
    EXPECT_TRUE(WithinFactor(scaled, 30000.0, 2.0)) << "item " << id;
  }
}

}  // namespace
}  // namespace substream
