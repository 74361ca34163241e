/// SketchHealth pinned-value suite: fill / spill counts and the derived
/// (epsilon, delta) bounds must match values hand-computed from the
/// geometry alone. The CountMin cases pin the counter-table scan (one
/// distinct item touches exactly `depth` cells; a u8 cell fed 300 spills
/// into a wider level); the Monitor case pins the
/// end-to-end wiring on a pinned 10-distinct-item stream, where the KMV
/// F0 backend's fill ratio is exactly 10/k.

#include "obs/health.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/monitor.h"
#include "obs/exposition.h"
#include "sketch/countmin.h"

namespace substream {
namespace {

const obs::SummaryHealth* FindSummary(const obs::HealthReport& report,
                                      const std::string& name) {
  for (const obs::SummaryHealth& s : report.summaries) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TEST(SketchHealthTest, CountMinHandComputedGeometryAndBounds) {
  CountMinSketch sketch(/*depth=*/2, /*width=*/8, /*seed=*/42);
  sketch.Update(123);
  const obs::SummaryHealth h = sketch.Health();
  EXPECT_EQ(h.kind, "countmin");
  EXPECT_EQ(h.depth, 2u);
  EXPECT_EQ(h.width, 8u);
  EXPECT_EQ(h.cells, 16u);
  // One distinct item touches exactly one cell per row.
  EXPECT_EQ(h.nonzero_cells, 2u);
  EXPECT_EQ(h.spilled_cells, 0u);
  EXPECT_DOUBLE_EQ(h.fill_ratio, 2.0 / 16.0);
  EXPECT_DOUBLE_EQ(h.spill_fraction, 0.0);
  // CountMin bounds from geometry: eps = e/width, delta = e^-depth.
  EXPECT_DOUBLE_EQ(h.epsilon, std::exp(1.0) / 8.0);
  EXPECT_DOUBLE_EQ(h.delta, std::exp(-2.0));
  EXPECT_GT(h.space_bytes, 0u);
}

TEST(SketchHealthTest, SpillPolicyCountsPromotedCells) {
  CountMinSketch sketch(2, 8, 42, CellWidth::k8);
  sketch.Update(123, 300);  // exceeds a u8 cell; both rows must spill
  // Spill preserves exact values.
  EXPECT_EQ(sketch.Estimate(123), 300);
  const obs::SummaryHealth h = sketch.Health();
  EXPECT_EQ(h.nonzero_cells, 2u);
  EXPECT_EQ(h.spilled_cells, 2u);
  EXPECT_DOUBLE_EQ(h.spill_fraction, 2.0 / 16.0);
}

TEST(MonitorHealthTest, PinnedStreamHandComputedReport) {
  MonitorConfig config;
  config.p = 0.5;
  config.universe = 1 << 10;
  Monitor monitor(config, /*seed=*/7);
  // Pinned stream: 100 items over exactly 10 distinct values.
  for (item_t i = 0; i < 100; ++i) monitor.Update(i % 10);

  const obs::HealthReport report = monitor.Health();
  EXPECT_EQ(report.sampled_length, 100u);
  EXPECT_DOUBLE_EQ(report.sampling_p, 0.5);
  ASSERT_EQ(report.summaries.size(), 4u);

  // F0 defaults to KMV with k=1024: 10 distinct items occupy exactly 10
  // slots, so the fill ratio is exactly 10/1024 and eps = 1/sqrt(k).
  const obs::SummaryHealth* f0 = FindSummary(report, "f0");
  ASSERT_NE(f0, nullptr);
  EXPECT_EQ(f0->kind, "kmv");
  EXPECT_EQ(f0->cells, 1024u);
  EXPECT_EQ(f0->nonzero_cells, 10u);
  EXPECT_DOUBLE_EQ(f0->fill_ratio, 10.0 / 1024.0);
  EXPECT_DOUBLE_EQ(f0->epsilon, obs::KmvEpsilon(1024));

  // Heavy hitters ride a CountMin table; the bound must match the formula
  // applied to the geometry the entry itself reports, and 10 distinct
  // items can touch at most 10 cells per row.
  const obs::SummaryHealth* hh = FindSummary(report, "hh");
  ASSERT_NE(hh, nullptr);
  EXPECT_EQ(hh->kind, "countmin");
  EXPECT_GT(hh->nonzero_cells, 0u);
  EXPECT_LE(hh->nonzero_cells, 10 * hh->depth);
  EXPECT_DOUBLE_EQ(hh->epsilon, obs::CountMinEpsilon(hh->width));
  EXPECT_DOUBLE_EQ(hh->delta, obs::CountMinDelta(hh->depth));
  EXPECT_DOUBLE_EQ(
      hh->fill_ratio,
      static_cast<double>(hh->nonzero_cells) / static_cast<double>(hh->cells));
  EXPECT_EQ(hh->spilled_cells, 0u);

  const obs::SummaryHealth* f2 = FindSummary(report, "f2");
  ASSERT_NE(f2, nullptr);
  EXPECT_EQ(f2->kind, "countsketch");
  EXPECT_GT(f2->nonzero_cells, 0u);
  EXPECT_DOUBLE_EQ(f2->epsilon, obs::CountSketchEpsilon(f2->width));
  EXPECT_DOUBLE_EQ(f2->delta, obs::CountSketchDelta(f2->depth));

  const obs::SummaryHealth* entropy = FindSummary(report, "entropy");
  ASSERT_NE(entropy, nullptr);
  EXPECT_GT(entropy->space_bytes, 0u);

  // Every entry's ratios are internally consistent with its counts.
  for (const obs::SummaryHealth& s : report.summaries) {
    if (s.cells == 0) continue;
    EXPECT_DOUBLE_EQ(s.fill_ratio, static_cast<double>(s.nonzero_cells) /
                                       static_cast<double>(s.cells));
    EXPECT_LE(s.nonzero_cells, s.cells);
  }
}

TEST(MonitorHealthTest, DisabledEstimatorsAreOmitted) {
  MonitorConfig config;
  config.enable_f2 = false;
  config.enable_entropy = false;
  Monitor monitor(config, 7);
  monitor.Update(1);
  const obs::HealthReport report = monitor.Health();
  ASSERT_EQ(report.summaries.size(), 2u);
  EXPECT_NE(FindSummary(report, "f0"), nullptr);
  EXPECT_NE(FindSummary(report, "hh"), nullptr);
  EXPECT_EQ(FindSummary(report, "f2"), nullptr);
}

TEST(MonitorHealthTest, JsonRenderCarriesTheReport) {
  MonitorConfig config;
  Monitor monitor(config, 7);
  for (item_t i = 0; i < 50; ++i) monitor.Update(i);
  const std::string json = obs::ToJson(monitor.Health());
  EXPECT_NE(json.find("\"sampled_length\":50"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"f0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"hh\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"kmv\""), std::string::npos);
  EXPECT_NE(json.find("\"fill_ratio\":"), std::string::npos);
  EXPECT_NE(json.find("\"epsilon\":"), std::string::npos);
}

}  // namespace
}  // namespace substream
