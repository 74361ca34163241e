#include "util/stats.h"

#include <algorithm>
#include <iterator>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace substream {
namespace {

TEST(RunningStatsTest, MeanVarianceMinMax) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(x);
  EXPECT_EQ(stats.Count(), 8u);
  EXPECT_DOUBLE_EQ(stats.Mean(), 5.0);
  EXPECT_NEAR(stats.Variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.Min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 9.0);
}

TEST(RunningStatsTest, EmptyAndSingle) {
  RunningStats stats;
  EXPECT_EQ(stats.Count(), 0u);
  EXPECT_DOUBLE_EQ(stats.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Variance(), 0.0);
  stats.Add(3.0);
  EXPECT_DOUBLE_EQ(stats.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(stats.Variance(), 0.0);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7.0}), 7.0);
}

TEST(MedianTest, InPlaceMatchesSortedMiddle) {
  // n = 5 and 7 take the selection network, the rest nth_element; all must
  // agree with a full sort. A tiny value pool forces heavy duplicates, and
  // both signed zeros appear so network ties between -0.0 and +0.0 occur.
  const double pool[] = {-3.0, -1.0, -0.0, 0.0, 0.0, 1.0, 1.0, 2.5, 1e300};
  std::mt19937_64 rng(20261017);
  std::uniform_real_distribution<double> wide(-1e6, 1e6);
  for (std::size_t n = 1; n <= 9; ++n) {
    for (int trial = 0; trial < 5000; ++trial) {
      std::vector<double> values(n);
      for (double& v : values) {
        v = (rng() % 4 == 0) ? wide(rng) : pool[rng() % std::size(pool)];
      }
      std::vector<double> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      const double want = n % 2 == 1
                              ? sorted[n / 2]
                              : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
      ASSERT_EQ(MedianInPlace(values.data(), n), want)
          << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(QuantileTest, Extremes) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 2.0);
}

TEST(MedianOfMeansTest, SingleGroupIsMean) {
  EXPECT_DOUBLE_EQ(MedianOfMeans({1.0, 2.0, 3.0, 4.0}, 1), 2.5);
}

TEST(MedianOfMeansTest, RobustToOutlierGroup) {
  // 3 groups of 2; the outlier pair lands in one group and is voted out.
  const std::vector<double> values = {1.0, 1.0, 1.0, 1.0, 1000.0, 1000.0};
  EXPECT_DOUBLE_EQ(MedianOfMeans(values, 3), 1.0);
}

TEST(MedianOfMeansTest, GroupsClampedToSize) {
  EXPECT_DOUBLE_EQ(MedianOfMeans({5.0, 7.0}, 10), 6.0);
}

TEST(FractionWithinFactorTest, Counts) {
  const std::vector<double> values = {10.0, 5.0, 20.0, 4.0, 21.0};
  // truth 10, factor 2: accepts [5, 20].
  EXPECT_DOUBLE_EQ(FractionWithinFactor(values, 10.0, 2.0), 0.6);
  EXPECT_DOUBLE_EQ(FractionWithinFactor({}, 10.0, 2.0), 0.0);
}

}  // namespace
}  // namespace substream
