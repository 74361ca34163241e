/// Tests for sample-and-hold [22], the alternative sampling model from the
/// paper's related work that exp_nf_vs_sh compares against NetFlow-style
/// Bernoulli sampling.

#include <gtest/gtest.h>

#include "stream/exact_stats.h"
#include "stream/generators.h"
#include "stream/sample_and_hold.h"
#include "util/math.h"
#include "util/stats.h"

namespace substream {
namespace {

// --------------------------- sample-and-hold -------------------------------

TEST(SampleAndHoldTest, PEqualOneCountsExactly) {
  ZipfGenerator g(200, 1.2, 1);
  Stream s = Materialize(g, 20000);
  FrequencyTable exact = ExactStats(s);
  SampleAndHoldMonitor sh(1.0, 0, 2);
  for (item_t a : s) sh.Update(a);
  for (const auto& [item, f] : exact.counts()) {
    EXPECT_EQ(sh.HeldCount(item), f) << "item " << item;
  }
  EXPECT_EQ(sh.HeldFlows(), exact.F0());
}

TEST(SampleAndHoldTest, UnbiasedFlowSizeEstimates) {
  // A single flow of size f: E[estimate | held] approaches f as reps grow.
  const count_t f = 400;
  const double p = 0.02;
  Stream s(f, 7);  // f packets of flow 7
  RunningStats stats;
  int held = 0;
  for (int rep = 0; rep < 4000; ++rep) {
    SampleAndHoldMonitor sh(p, 0, static_cast<std::uint64_t>(rep));
    for (item_t a : s) sh.Update(a);
    if (sh.HeldCount(7) > 0) {
      stats.Add(sh.EstimateFlowSize(7));
      ++held;
    }
  }
  // P[held] = 1 - (1-p)^f ~ 99.97%; conditional estimate is unbiased up to
  // the (negligible here) truncation of the geometric prefix at f.
  EXPECT_GT(held, 3900);
  EXPECT_NEAR(stats.Mean(), static_cast<double>(f), 5.0);
}

TEST(SampleAndHoldTest, HeavyFlowsAlwaysHeld) {
  PlantedHeavyHitterGenerator g(4, 0.5, 50000, 3);
  Stream s = Materialize(g, 200000);
  SampleAndHoldMonitor sh(0.001, 0, 4);
  for (item_t a : s) sh.Update(a);
  // Each planted flow has ~25000 packets; P[never sampled] = (1-p)^25000
  // ~ e^-25: they must all be held, with accurate counts.
  FrequencyTable exact = ExactStats(s);
  for (item_t id : g.HeavyIds()) {
    ASSERT_GT(sh.HeldCount(id), 0u) << "flow " << id;
    EXPECT_LT(RelativeError(sh.EstimateFlowSize(id),
                            static_cast<double>(exact.Frequency(id))),
              0.2)
        << "flow " << id;
  }
}

TEST(SampleAndHoldTest, MoreAccurateThanBernoulliScalingForHeldFlows) {
  // The SH selling point [22]: for a held heavy flow, SH counts nearly all
  // packets, while NF scaling g/p has variance f(1-p)/p^2.
  PlantedHeavyHitterGenerator g(1, 0.3, 5000, 5);
  Stream s = Materialize(g, 100000);
  const double truth = static_cast<double>(ExactStats(s).Frequency(1));
  const double p = 0.01;
  RunningStats sh_err, nf_err;
  for (int rep = 0; rep < 30; ++rep) {
    SampleAndHoldMonitor sh(p, 0, 100 + static_cast<std::uint64_t>(rep));
    count_t nf_count = 0;
    Rng nf_rng(200 + static_cast<std::uint64_t>(rep));
    for (item_t a : s) {
      sh.Update(a);
      if (a == 1 && nf_rng.NextBernoulli(p)) ++nf_count;
    }
    if (sh.HeldCount(1) > 0) {
      sh_err.Add(RelativeError(sh.EstimateFlowSize(1), truth));
    }
    nf_err.Add(RelativeError(static_cast<double>(nf_count) / p, truth));
  }
  EXPECT_LT(sh_err.Mean(), nf_err.Mean());
}

TEST(SampleAndHoldTest, CapacityBoundsTable) {
  UniformGenerator g(100000, 6);
  Stream s = Materialize(g, 50000);
  SampleAndHoldMonitor sh(0.5, 64, 7);
  for (item_t a : s) sh.Update(a);
  EXPECT_LE(sh.HeldFlows(), 64u);
}

TEST(SampleAndHoldTest, HeavyFlowsSorted) {
  PlantedHeavyHitterGenerator g(3, 0.6, 1000, 8);
  Stream s = Materialize(g, 50000);
  SampleAndHoldMonitor sh(0.05, 0, 9);
  for (item_t a : s) sh.Update(a);
  auto heavy = sh.HeavyFlows(1000.0);
  for (std::size_t i = 1; i < heavy.size(); ++i) {
    EXPECT_GE(heavy[i - 1].second, heavy[i].second);
  }
}

}  // namespace
}  // namespace substream
