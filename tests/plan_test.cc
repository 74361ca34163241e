/// Planner-layer unit tests: the closed-form inverse formulas really invert
/// the forward bounds Health() reports (Forward(Inverse(x)) <= x), the
/// derived default F2 width cap reproduces the historical constant through
/// the live derivation chain, and SolvePlan() is deterministic, honors
/// explicit targets, degrades uniformly (never aborts) on infeasible
/// budgets, and spends bigger budgets on monotonically finer geometry.

#include "plan/plan.h"

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "plan/accuracy.h"

namespace substream {
namespace plan {
namespace {

// ---------------------------------------------------------------------------
// Forward(Inverse(target)) <= target, swept across the practical range.
// ---------------------------------------------------------------------------

TEST(AccuracyFormulasTest, CountMinRoundTrip) {
  for (double eps = 0.5; eps > 1e-4; eps *= 0.7) {
    EXPECT_LE(CountMinEpsilon(CountMinWidthForEpsilon(eps)), eps)
        << "eps=" << eps;
  }
  for (double delta = 0.5; delta > 1e-10; delta *= 0.5) {
    EXPECT_LE(CountMinDelta(CountMinDepthForDelta(delta)), delta)
        << "delta=" << delta;
  }
}

TEST(AccuracyFormulasTest, CountSketchRoundTrip) {
  for (double eps = 0.5; eps > 1e-3; eps *= 0.7) {
    EXPECT_LE(CountSketchEpsilon(CountSketchWidthForEpsilon(eps)), eps)
        << "eps=" << eps;
  }
  for (double delta = 0.5; delta > 1e-10; delta *= 0.5) {
    EXPECT_LE(CountSketchDelta(CountSketchDepthForDelta(delta)), delta)
        << "delta=" << delta;
  }
}

TEST(AccuracyFormulasTest, KmvRoundTrip) {
  for (double eps = 0.25; eps > 2e-3; eps *= 0.7) {
    EXPECT_LE(KmvEpsilon(KmvKForEpsilon(eps)), eps) << "eps=" << eps;
  }
}

TEST(AccuracyFormulasTest, HllRoundTrip) {
  // HLL precision tops out at 18 (eps ~ 0.002); sweep what it can meet.
  for (double eps = 0.25; eps > 3e-3; eps *= 0.7) {
    EXPECT_LE(HllEpsilon(HllPrecisionForEpsilon(eps)), eps) << "eps=" << eps;
  }
}

// ---------------------------------------------------------------------------
// The default F2 width cap.
// ---------------------------------------------------------------------------

TEST(DefaultWidthCapTest, ReproducesHistoricalConstant) {
  EXPECT_EQ(kDefaultF2WidthCap, std::uint64_t{1} << 13);
}

// ---------------------------------------------------------------------------
// SolvePlan.
// ---------------------------------------------------------------------------

PlanInputs BaseInputs() {
  PlanInputs in;
  in.p = 0.3;
  in.universe = 1 << 20;
  in.hh_alpha = 0.02;
  return in;
}

void ExpectPlansEqual(const GeometryPlan& a, const GeometryPlan& b) {
  EXPECT_EQ(a.f0_use_hll, b.f0_use_hll);
  EXPECT_EQ(a.kmv_k, b.kmv_k);
  EXPECT_EQ(a.hll_precision, b.hll_precision);
  EXPECT_EQ(a.f2_cs_depth, b.f2_cs_depth);
  EXPECT_EQ(a.f2_width, b.f2_width);
  EXPECT_EQ(a.hh_depth, b.hh_depth);
  EXPECT_EQ(a.hh_width, b.hh_width);
  EXPECT_EQ(a.cell_width, b.cell_width);
  EXPECT_EQ(a.monitor_epsilon, b.monitor_epsilon);
  EXPECT_EQ(a.monitor_delta, b.monitor_delta);
  EXPECT_EQ(a.hh_epsilon, b.hh_epsilon);
  EXPECT_EQ(a.universe, b.universe);
  EXPECT_EQ(a.planned_bytes, b.planned_bytes);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.degrade_factor, b.degrade_factor);
}

TEST(SolvePlanTest, Deterministic) {
  PlanInputs in = BaseInputs();
  in.spec.budget_bytes = 4 << 20;
  in.spec.f0.epsilon = 0.05;
  in.spec.f2.epsilon = 0.08;
  in.spec.hh.epsilon = 0.3;
  in.spec.f0_hint = 4096;
  in.spec.n_hint = 1 << 17;
  ExpectPlansEqual(SolvePlan(in), SolvePlan(in));
}

TEST(SolvePlanTest, ExplicitTargetsAreMetByForwardBounds) {
  PlanInputs in = BaseInputs();
  in.spec.budget_bytes = 8 << 20;
  in.spec.f0.epsilon = 0.05;
  in.spec.f2.epsilon = 0.08;
  in.spec.f2.delta = 0.05;
  in.spec.f0_hint = 4096;
  in.spec.n_hint = 1 << 17;
  const GeometryPlan plan = SolvePlan(in);
  ASSERT_FALSE(plan.degraded);
  EXPECT_LE(plan.achieved_f0_epsilon, 0.05);
  EXPECT_LE(plan.achieved_f2_epsilon, 0.08);
  EXPECT_LE(plan.achieved_f2_delta, 0.05);
  // Width classes are powers of two (the merge-compatibility quantization).
  EXPECT_EQ(plan.f2_width & (plan.f2_width - 1), 0u);
  // Least geometry: the width really is driven by the inverse formula.
  EXPECT_GE(plan.f2_width, CountSketchWidthForEpsilon(0.08));
  EXPECT_GE(plan.kmv_k, KmvKForEpsilon(0.05));
  // The model stayed inside the budget.
  EXPECT_LE(plan.planned_bytes, in.spec.budget_bytes);
}

TEST(SolvePlanTest, InfeasibleBudgetDegradesUniformlyNeverAborts) {
  PlanInputs in = BaseInputs();
  in.spec.budget_bytes = 1 << 20;  // far below what the targets need
  in.spec.f0.epsilon = 0.01;
  in.spec.f2.epsilon = 0.01;
  in.spec.f0_hint = 4096;
  in.spec.n_hint = 1 << 17;
  const GeometryPlan plan = SolvePlan(in);
  EXPECT_TRUE(plan.degraded);
  EXPECT_GT(plan.degrade_factor, 1.0);
  // The degraded plan fits: that is what the bisection promises.
  EXPECT_LE(plan.planned_bytes, in.spec.budget_bytes);
  // The achieved bounds report the degradation honestly.
  EXPECT_GT(plan.achieved_f2_epsilon, 0.01);
  // Both explicit targets moved by the same factor (uniform degradation):
  // each achieved bound stays at or under factor * target (the inverse
  // sizing of the degraded target), modulo the pow2/floor quantization
  // which only ever tightens epsilon.
  EXPECT_LE(plan.achieved_f0_epsilon, 0.01 * plan.degrade_factor * 1.0001);
  EXPECT_LE(plan.achieved_f2_epsilon, 0.01 * plan.degrade_factor * 1.0001);
}

TEST(SolvePlanTest, FloorsKeptWhenEvenFloorsDoNotFit) {
  PlanInputs in = BaseInputs();
  in.spec.budget_bytes = 1024;  // absurd: below the fixed overhead alone
  in.spec.f0.epsilon = 0.1;
  in.spec.f0_hint = 4096;
  in.spec.n_hint = 1 << 17;
  const GeometryPlan plan = SolvePlan(in);  // must not abort
  EXPECT_TRUE(plan.degraded);
  EXPECT_GT(plan.planned_bytes, in.spec.budget_bytes);  // honest overshoot
  EXPECT_GE(plan.kmv_k, 64u);                           // floor geometry
}

TEST(SolvePlanTest, BiggerBudgetBuysMonotonicallyFinerBestEffortGeometry) {
  PlanInputs in = BaseInputs();
  in.spec.f0_hint = 4096;
  in.spec.n_hint = 1 << 17;
  std::uint64_t last_width = 0;
  std::size_t last_k = 0;
  for (std::size_t budget : {std::size_t{1} << 20, std::size_t{4} << 20,
                             std::size_t{16} << 20}) {
    in.spec.budget_bytes = budget;
    const GeometryPlan plan = SolvePlan(in);
    EXPECT_GE(plan.f2_width, last_width) << "budget=" << budget;
    EXPECT_GE(plan.kmv_k, last_k) << "budget=" << budget;
    EXPECT_LE(plan.planned_bytes, budget) << "budget=" << budget;
    last_width = plan.f2_width;
    last_k = plan.kmv_k;
  }
}

TEST(SolvePlanTest, F0HintSizesTheUniverse) {
  PlanInputs in = BaseInputs();
  in.spec.budget_bytes = 4 << 20;
  in.spec.f0_hint = 3000;  // 4x slack -> 12000 -> pow2 16384
  const GeometryPlan plan = SolvePlan(in);
  EXPECT_EQ(plan.universe, 16384u);
}

TEST(SolvePlanTest, DeltaChainLandsLevelSetDepthUnderTheTarget) {
  // The F2 depth chain derives rows from 2 ln(1/delta) but the health bound
  // needs 3 ln(1/delta); the solver must tighten the monitor delta so the
  // final depth still meets the *requested* delta.
  PlanInputs in = BaseInputs();
  in.spec.budget_bytes = 8 << 20;
  in.spec.f2.epsilon = 0.1;
  in.spec.f2.delta = 0.01;
  in.spec.f0_hint = 4096;
  in.spec.n_hint = 1 << 17;
  const GeometryPlan plan = SolvePlan(in);
  EXPECT_EQ(plan.f2_cs_depth, LevelSetDepthFromDelta(plan.monitor_delta));
  EXPECT_LE(CountSketchDelta(plan.f2_cs_depth), 0.01);
}

TEST(SolvePlanTest, DisabledMetricsGetNoGeometry) {
  PlanInputs in = BaseInputs();
  in.enable_f0 = false;
  in.enable_heavy_hitters = false;
  in.spec.budget_bytes = 2 << 20;
  const GeometryPlan plan = SolvePlan(in);
  EXPECT_EQ(plan.kmv_k, 0u);
  EXPECT_EQ(plan.hh_width, 0u);
  EXPECT_GT(plan.f2_width, 0u);
}

}  // namespace
}  // namespace plan
}  // namespace substream
