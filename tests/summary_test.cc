#include <algorithm>

#include <gtest/gtest.h>

#include "sketch/space_saving.h"
#include "stream/exact_stats.h"
#include "stream/generators.h"

namespace substream {
namespace {

TEST(SpaceSavingTest, NeverUnderestimatesTrackedItems) {
  ZipfGenerator g(1000, 1.2, 5);
  Stream s = Materialize(g, 50000);
  FrequencyTable exact = ExactStats(s);
  SpaceSaving ss(100);
  for (item_t a : s) ss.Update(a);
  for (const auto& [item, est] : ss.Candidates(0.0)) {
    EXPECT_GE(est, exact.Frequency(item)) << "item " << item;
  }
}

TEST(SpaceSavingTest, OverestimateBoundedByF1OverK) {
  ZipfGenerator g(1000, 1.2, 6);
  Stream s = Materialize(g, 50000);
  FrequencyTable exact = ExactStats(s);
  const std::size_t k = 100;
  SpaceSaving ss(k);
  for (item_t a : s) ss.Update(a);
  const double bound = static_cast<double>(s.size()) / k;
  for (const auto& [item, est] : ss.Candidates(0.0)) {
    EXPECT_LE(static_cast<double>(est),
              static_cast<double>(exact.Frequency(item)) + bound)
        << "item " << item;
  }
}

TEST(SpaceSavingTest, HeavyItemsRetained) {
  PlantedHeavyHitterGenerator g(3, 0.6, 5000, 7);
  Stream s = Materialize(g, 60000);
  SpaceSaving ss(20);
  for (item_t a : s) ss.Update(a);
  for (item_t id : g.HeavyIds()) {
    EXPECT_GT(ss.Estimate(id), 0u) << "planted item evicted " << id;
  }
}

TEST(SpaceSavingTest, TableSizeBounded) {
  UniformGenerator g(10000, 8);
  Stream s = Materialize(g, 30000);
  SpaceSaving ss(64);
  for (item_t a : s) ss.Update(a);
  EXPECT_LE(ss.SpaceBytes(), 64u * (sizeof(item_t) + 2 * sizeof(count_t)));
}

TEST(SpaceSavingTest, FindsTheTopItems) {
  ZipfGenerator g(2000, 1.4, 9);
  Stream s = Materialize(g, 80000);
  FrequencyTable exact = ExactStats(s);
  SpaceSaving ss(64);
  for (item_t a : s) ss.Update(a);
  auto top = exact.TopK(5);
  for (const auto& [item, f] : top) {
    (void)f;
    EXPECT_GT(ss.Estimate(item), 0u);
  }
}

}  // namespace
}  // namespace substream
