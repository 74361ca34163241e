#include "stream/samplers.h"

#include <cmath>

#include <gtest/gtest.h>

#include "stream/exact_stats.h"
#include "stream/generators.h"

namespace substream {
namespace {

TEST(BernoulliSamplerTest, DeterministicGivenSeed) {
  UniformGenerator g(100, 1);
  Stream p = Materialize(g, 10000);
  BernoulliSampler s1(0.3, 7), s2(0.3, 7);
  EXPECT_EQ(s1.Sample(p), s2.Sample(p));
}

TEST(BernoulliSamplerTest, SampleSizeConcentrates) {
  UniformGenerator g(100, 2);
  Stream p = Materialize(g, 100000);
  for (double prob : {0.05, 0.3, 0.7}) {
    BernoulliSampler sampler(prob, 8);
    Stream l = sampler.Sample(p);
    const double expected = prob * static_cast<double>(p.size());
    const double sd = std::sqrt(expected * (1.0 - prob));
    EXPECT_NEAR(static_cast<double>(l.size()), expected, 6.0 * sd)
        << "p=" << prob;
  }
}

TEST(BernoulliSamplerTest, PEqualOneKeepsEverything) {
  UniformGenerator g(50, 3);
  Stream p = Materialize(g, 1000);
  BernoulliSampler sampler(1.0, 9);
  EXPECT_EQ(sampler.Sample(p), p);
}

TEST(BernoulliSamplerTest, PreservesOrder) {
  DistinctGenerator g;
  Stream p = Materialize(g, 10000);
  BernoulliSampler sampler(0.5, 10);
  Stream l = sampler.Sample(p);
  for (std::size_t i = 1; i < l.size(); ++i) EXPECT_LT(l[i - 1], l[i]);
}

TEST(BernoulliSamplerTest, PerItemFrequencyIsBinomial) {
  // g_i ~ Bin(f_i, p): the model of Section 2. Check mean over replicates.
  const count_t f = 200;
  const double p = 0.25;
  Stream stream(f, 42);  // f copies of item 42
  double total = 0.0;
  const int reps = 2000;
  for (int r = 0; r < reps; ++r) {
    BernoulliSampler sampler(p, static_cast<std::uint64_t>(r));
    total += static_cast<double>(sampler.Sample(stream).size());
  }
  EXPECT_NEAR(total / reps, p * static_cast<double>(f), 1.0);
}

TEST(BernoulliSamplerTest, StreamingKeepMatchesBatch) {
  UniformGenerator g(100, 5);
  Stream p = Materialize(g, 5000);
  BernoulliSampler batch(0.4, 11);
  Stream expected = batch.Sample(p);
  BernoulliSampler streaming(0.4, 11);
  Stream actual;
  for (item_t a : p) {
    if (streaming.Keep()) actual.push_back(a);
  }
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace substream
