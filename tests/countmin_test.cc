#include "sketch/countmin.h"

#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "stream/exact_stats.h"
#include "stream/generators.h"

namespace substream {
namespace {

TEST(CountMinTest, NeverUnderestimates) {
  ZipfGenerator g(1000, 1.2, 1);
  Stream s = Materialize(g, 50000);
  FrequencyTable exact = ExactStats(s);
  CountMinSketch cm(CountMinParams{0.005, 0.01, false}, 2);
  for (item_t a : s) cm.Update(a);
  for (const auto& [item, f] : exact.counts()) {
    EXPECT_GE(cm.Estimate(item), f) << "item " << item;
  }
}

TEST(CountMinTest, ErrorWithinEpsilonF1) {
  ZipfGenerator g(1000, 1.2, 3);
  Stream s = Materialize(g, 50000);
  FrequencyTable exact = ExactStats(s);
  const double eps = 0.005;
  CountMinSketch cm(CountMinParams{eps, 0.01, false}, 4);
  for (item_t a : s) cm.Update(a);
  const double bound = eps * static_cast<double>(s.size());
  int violations = 0;
  for (const auto& [item, f] : exact.counts()) {
    if (static_cast<double>(cm.Estimate(item)) >
        static_cast<double>(f) + 3.0 * bound) {
      ++violations;
    }
  }
  // Per-item failure probability is delta; allow a generous margin.
  EXPECT_LE(violations, static_cast<int>(exact.F0() / 20 + 2));
}

TEST(CountMinTest, ExactWhenWidthExceedsUniverse) {
  // With width >> distinct items and several rows, some row isolates each
  // item with overwhelming probability.
  UniformGenerator g(20, 5);
  Stream s = Materialize(g, 2000);
  FrequencyTable exact = ExactStats(s);
  CountMinSketch cm(8, 4096, false, 6);
  for (item_t a : s) cm.Update(a);
  for (const auto& [item, f] : exact.counts()) {
    EXPECT_EQ(cm.Estimate(item), f);
  }
}

TEST(CountMinTest, ConservativeUpdateTightens) {
  ZipfGenerator g(500, 1.1, 7);
  Stream s = Materialize(g, 30000);
  CountMinSketch standard(4, 256, false, 8);
  CountMinSketch conservative(4, 256, true, 8);
  for (item_t a : s) {
    standard.Update(a);
    conservative.Update(a);
  }
  FrequencyTable exact = ExactStats(s);
  double standard_err = 0.0, conservative_err = 0.0;
  for (const auto& [item, f] : exact.counts()) {
    standard_err += static_cast<double>(standard.Estimate(item) - f);
    conservative_err += static_cast<double>(conservative.Estimate(item) - f);
    // Conservative update still never underestimates.
    EXPECT_GE(conservative.Estimate(item), f);
  }
  EXPECT_LE(conservative_err, standard_err);
}

TEST(CountMinTest, TotalCountTracksUpdates) {
  CountMinSketch cm(3, 64, false, 9);
  cm.Update(1);
  cm.Update(2, 5);
  EXPECT_EQ(cm.TotalCount(), 6u);
}

TEST(CountMinTest, WeightedUpdates) {
  CountMinSketch cm(5, 1024, false, 10);
  cm.Update(7, 100);
  cm.Update(8, 3);
  EXPECT_GE(cm.Estimate(7), 100u);
  EXPECT_LE(cm.Estimate(8), 103u);
}

TEST(CountMinTest, GeometryFromParams) {
  CountMinSketch cm(CountMinParams{0.01, 0.05, false}, 11);
  EXPECT_GE(cm.width(), static_cast<std::uint64_t>(2.718 / 0.01));
  EXPECT_GE(cm.depth(), 2);
  EXPECT_GT(cm.SpaceBytes(),
            static_cast<std::size_t>(cm.depth()) * cm.width() * 8 - 1);
}

TEST(CountMinTest, AddConservativeSaturatesNearMax) {
  // Conservative update writes best + count; near the top of the counter
  // domain that sum must saturate at the numeric limit instead of
  // wrapping (a wrapped cell would *underestimate*, breaking the CountMin
  // one-sided error guarantee).
  CountMinSketch cm(3, 64, /*conservative_update=*/true, 9);
  const count_t near_max = std::numeric_limits<count_t>::max() - 10;
  cm.Update(42, near_max);
  cm.Update(42, 100);
  EXPECT_EQ(cm.Estimate(42), std::numeric_limits<count_t>::max());
  // A later small update must keep the cell pinned, not wrap it.
  cm.Update(42, 1);
  EXPECT_EQ(cm.Estimate(42), std::numeric_limits<count_t>::max());
}

TEST(CountMinTest, DecayedMergeClampsNearMaxCells) {
  // Decayed merges round scaled counters back to the integer domain.
  // Cells above 2^63 used to flow through llround, which is undefined for
  // values outside the long-long range; the scaled value must instead be
  // computed in the unsigned domain and clamped. 0.75 * (2^64) is exactly
  // representable, so the expected counter is exact.
  CountMinSketch a(2, 64, false, 9);
  CountMinSketch b(2, 64, false, 9);
  b.Update(7, std::numeric_limits<count_t>::max() - 3);
  a.Merge(b, 0.75);
  EXPECT_EQ(a.Estimate(7), 13835058055282163712ULL);  // 3 * 2^62
  // A second decayed merge adds 0.5 * 2^64 = 2^63; the cell accumulates
  // mod 2^64 (the table's counter domain), so the result is exactly
  // 3*2^62 + 2^63 - 2^64 = 2^62 — defined modular arithmetic, where the
  // pre-fix code hit undefined llround behavior during the scaling step.
  a.Merge(b, 0.5);
  EXPECT_EQ(a.Estimate(7), 4611686018427387904ULL);  // 2^62

  // Weight 1 is exact: the double product would round 2^53 + 1 down to
  // 2^53, so a merge at weight 1 must not go through it.
  const count_t odd = (count_t{1} << 53) + 1;
  EXPECT_EQ(ScaleCounter(odd, 1.0), odd);
  EXPECT_EQ(ScaleCounter(std::numeric_limits<std::int64_t>::max(), 1.0),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(ScaleCounter(std::numeric_limits<count_t>::max(), 1.0),
            std::numeric_limits<count_t>::max());
  CountMinSketch c(2, 64, false, 9);
  CountMinSketch d(2, 64, false, 9);
  d.Update(7, odd);
  c.Merge(d, 1.0);
  EXPECT_EQ(c.Estimate(7), odd);
  EXPECT_EQ(c.TotalCount(), odd);
}

TEST(CountMinHeavyHittersTest, FindsPlantedHeavyHitters) {
  PlantedHeavyHitterGenerator g(5, 0.5, 20000, 12);
  Stream s = Materialize(g, 100000);
  CountMinHeavyHitters hh(0.05, 0.2, 0.01, 13);
  for (item_t a : s) hh.Update(a);
  auto candidates = hh.Candidates(0.05);
  // All five planted items carry ~10% each: all must be found.
  for (item_t id : g.HeavyIds()) {
    EXPECT_TRUE(std::any_of(candidates.begin(), candidates.end(),
                            [id](const auto& c) { return c.first == id; }))
        << "missing heavy item " << id;
  }
}

TEST(CountMinHeavyHittersTest, NoTailFalsePositives) {
  PlantedHeavyHitterGenerator g(5, 0.5, 20000, 14);
  Stream s = Materialize(g, 100000);
  CountMinHeavyHitters hh(0.05, 0.2, 0.01, 15);
  for (item_t a : s) hh.Update(a);
  FrequencyTable exact = ExactStats(s);
  const double cutoff = 0.04 * static_cast<double>(s.size());
  for (const auto& [item, est] : hh.Candidates(0.05)) {
    (void)est;
    EXPECT_GT(static_cast<double>(exact.Frequency(item)), cutoff)
        << "tail item " << item << " reported as heavy";
  }
}

TEST(CountMinHeavyHittersTest, CandidatesSortedByEstimate) {
  PlantedHeavyHitterGenerator g(3, 0.6, 1000, 16);
  Stream s = Materialize(g, 50000);
  CountMinHeavyHitters hh(0.05, 0.2, 0.01, 17);
  for (item_t a : s) hh.Update(a);
  auto candidates = hh.Candidates(0.01);
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_GE(candidates[i - 1].second, candidates[i].second);
  }
}

}  // namespace
}  // namespace substream
