#ifndef SUBSTREAM_PLAN_PLAN_H_
#define SUBSTREAM_PLAN_PLAN_H_

#include <cstddef>
#include <cstdint>

#include "plan/accuracy.h"
#include "sketch/cell_width.h"

/// \file plan.h
/// The accuracy-budget geometry planner: {byte budget, per-metric (eps,
/// delta) targets} -> the geometry of every summary a Monitor holds
/// (CountMin/CountSketch depth x width, KMV k / HLL precision, counter
/// cell width).
///
/// The paper states its guarantees as accuracy targets that *imply*
/// geometry; hand-picked depth/width/k constants state it backwards. A
/// PlanSpec states it the paper's way, and SolvePlan() inverts the exact
/// closed-form bounds Monitor::Health() reports (plan/accuracy.h — one
/// source of truth, so plan and health can never drift).
///
/// Solver contract:
///   - Deterministic: pure arithmetic on the spec, no clock, no RNG — the
///     same spec yields bit-identical geometry on every host, which is
///     what keeps independently-planned monitors merge-compatible.
///   - Explicit targets are sized exactly: the least geometry whose
///     forward bound meets (eps, delta).
///   - Best-effort metrics (epsilon == 0) split the leftover budget.
///   - Infeasible budgets NEVER abort: every explicit target is degraded
///     by one uniform factor (the smallest that fits, found by bisection)
///     and the result is reported through GeometryPlan::degraded /
///     degrade_factor / the achieved_* bounds.
///
/// plan/compiler.h applies a GeometryPlan to a MonitorConfig; this header
/// stays below the core layer (standard library + cell_width.h only).

namespace substream {
namespace plan {

/// One metric's accuracy ask. epsilon == 0 means best-effort: no explicit
/// requirement, use a share of whatever budget is left once explicit
/// targets are met. delta == 0 means the library default (0.05).
struct AccuracyTarget {
  double epsilon = 0.0;
  double delta = 0.0;
};

/// The {budget, targets} tuple a whole fleet can be configured from.
struct PlanSpec {
  /// Total byte budget for one Monitor's summaries (including the modelled
  /// entropy reserve when entropy is enabled).
  std::size_t budget_bytes = kDefaultMonitorBudgetBytes;

  AccuracyTarget f0;  ///< distinct-count relative error
  AccuracyTarget f2;  ///< F2 per-item CountSketch error (Health's bound)
  AccuracyTarget hh;  ///< heavy-hitter gap parameter (Theorem 6's eps)

  /// Observed-workload hints, in ORIGINAL-stream units (0 = unknown).
  /// WindowedMonitor re-planning feeds the closed window's report back in
  /// through these; the solver uses them to size the universe (whose
  /// change is the re-plan signal), the counter cell width and the entropy
  /// reserve.
  double f0_hint = 0.0;  ///< expected distinct items per window
  double f2_hint = 0.0;  ///< expected second moment per window
  double n_hint = 0.0;   ///< expected window length
};

/// The solved geometry plus the accounting that produced it. The
/// monitor_* / hh_epsilon / universe / max_f2_width / cell_width / f0_*
/// fields are the resolved MonitorConfig knobs that reproduce this
/// geometry through the ordinary constructor derivation chains.
struct GeometryPlan {
  // F0 backend geometry.
  bool f0_use_hll = false;
  std::size_t kmv_k = 0;
  int hll_precision = 0;

  // F2 CountSketch geometry.
  int f2_cs_depth = 0;
  std::uint64_t f2_width = 0;  ///< CountSketch width (the cap)

  // Heavy-hitter CountMin geometry.
  int hh_depth = 0;
  std::uint64_t hh_width = 0;

  CellWidth cell_width = CellWidth::k64;

  // Resolved config knobs.
  double monitor_epsilon = 0.0;
  double monitor_delta = 0.0;
  double hh_epsilon = 0.0;
  std::uint64_t universe = 0;

  // Byte accounting (model, validated against Monitor::SpaceBytes() by
  // tests; conservative on the growable hash-map parts).
  std::size_t budget_bytes = 0;
  std::size_t planned_bytes = 0;
  std::size_t f0_bytes = 0;
  std::size_t f2_bytes = 0;
  std::size_t hh_bytes = 0;
  std::size_t entropy_reserve_bytes = 0;

  // Feasibility report.
  bool degraded = false;
  double degrade_factor = 1.0;

  // Forward bounds of the final geometry (what Health() will report).
  double achieved_f0_epsilon = 0.0;
  double achieved_f2_epsilon = 0.0;
  double achieved_f2_delta = 0.0;
  double achieved_hh_epsilon = 0.0;
  double achieved_hh_delta = 0.0;
};

/// Everything the solver needs that is not in the spec: the sampling rate
/// and structural knobs the user still owns directly.
struct PlanInputs {
  double p = 1.0;
  std::uint64_t universe = 1 << 20;
  double hh_alpha = 0.05;
  bool enable_f0 = true;
  bool enable_f2 = true;
  bool enable_entropy = true;
  bool enable_heavy_hitters = true;
  PlanSpec spec;
};

/// Solves the spec. Deterministic; never aborts on infeasible budgets
/// (see file comment).
GeometryPlan SolvePlan(const PlanInputs& inputs);

/// One WindowedMonitor re-plan decision: geometry switched at the first
/// window of a new merge horizon, driven by the closed window's observed
/// statistics.
struct ReplanEvent {
  std::uint64_t epoch = 0;  ///< first window index with the new geometry
  double observed_f0 = 0.0;
  double observed_f2 = 0.0;
  double observed_n = 0.0;
  std::uint64_t old_universe = 0;
  std::uint64_t new_universe = 0;
  std::uint64_t old_max_f2_width = 0;
  std::uint64_t new_max_f2_width = 0;
  std::size_t old_kmv_k = 0;
  std::size_t new_kmv_k = 0;
  std::size_t planned_bytes = 0;
};

}  // namespace plan
}  // namespace substream

#endif  // SUBSTREAM_PLAN_PLAN_H_
