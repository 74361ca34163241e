#include "plan/plan.h"

#include <algorithm>
#include <cmath>

namespace substream {
namespace plan {

namespace {

constexpr double kDefaultDelta = 0.05;
/// Floor on the resolved monitor delta: keeps every depth chain
/// (LevelSetDepthFromDelta, CountMinDepthFromDelta on delta/4) safely under
/// the CounterTable row bound, so an extreme spec degrades instead of
/// tripping the table's depth check.
constexpr double kMinDelta = 1e-13;
constexpr std::size_t kFixedOverheadBytes = 4096;
/// Ceiling for the uniform degrade factor: beyond ~10^6x the floors below
/// dominate anyway, so the bisection stops here and reports `degraded`.
constexpr double kMaxDegrade = 1048576.0;
/// Hard geometry rails (the floors are also the best-effort starting rungs;
/// every best-effort metric then grows on a doubling ladder, which is the
/// merge-compatible geometry-class quantization re-planning snaps to).
constexpr std::size_t kMinKmvK = 64;
constexpr std::size_t kMaxKmvK = std::size_t{1} << 22;
constexpr std::uint64_t kMinF2Width = 64;
constexpr std::uint64_t kMaxF2Width = std::uint64_t{1} << 22;
constexpr double kHhEpsilonFloor = 0.99;

std::uint64_t RoundUpPow2(std::uint64_t v) {
  std::uint64_t r = 1;
  while (r < v) r <<= 1;
  return r;
}

/// Theorem 6's remapping, as F1HeavyHitterEstimator derives it.
double AlphaPrime(double alpha, double hh_epsilon) {
  return (1.0 - 0.4 * hh_epsilon) * alpha;
}

/// The CountMin width the heavy-hitter chain ends up with:
/// tracker epsilon = 0.5 * (hh_eps / 2) * alpha' = 0.25 * hh_eps * alpha'.
std::uint64_t HhWidthFromEpsilon(double alpha, double hh_epsilon) {
  return CountMinWidthFromEpsilon(0.25 * hh_epsilon *
                                  AlphaPrime(alpha, hh_epsilon));
}

/// Structural geometry shared by every candidate plan at one cell width.
struct Workload {
  std::uint64_t universe = 0;
  int cs_depth = 0;
  int hh_depth = 0;
  double n_samp = 0.0;   // expected sampled window length (0 = unknown)
  double f0_samp = 0.0;  // expected sampled distinct count
  std::size_t cell_bytes = 8;
};

std::size_t F0KmvBytes(std::size_t k) { return k * 8 + 256; }
std::size_t F0HllBytes(int precision) {
  return (std::size_t{1} << precision) + 128;
}

std::size_t HhBytes(const Workload& w, std::uint64_t width,
                    double alpha_prime) {
  const std::size_t pool =
      (static_cast<std::size_t>(std::ceil(8.0 / alpha_prime)) + 16) * 64;
  return static_cast<std::size_t>(w.hh_depth) *
             (width * w.cell_bytes + 8) +
         pool + 512;
}

std::size_t F2Bytes(const Workload& w, std::uint64_t width) {
  // One CountSketch: depth x width cells + row seeds, plus object overhead
  // (sign hashes, row sums).
  std::size_t bytes =
      static_cast<std::size_t>(w.cs_depth) * (width * w.cell_bytes + 8) + 768;
  // Narrow cells may lazily allocate wider spill levels; the ladder only
  // narrows when expected counts fit the cell, so charge a 1/8 allowance.
  if (w.cell_bytes < 8) {
    bytes += static_cast<std::size_t>(w.cs_depth) * width * w.cell_bytes / 8;
  }
  return bytes;
}

/// One candidate geometry: explicit metrics at `degrade * target`,
/// best-effort metrics at their floors.
struct Candidate {
  bool f0_use_hll = false;
  std::size_t kmv_k = 0;
  int hll_precision = 0;
  double f0_epsilon = 0.0;
  std::uint64_t f2_width = 0;
  double f2_epsilon = 0.0;
  std::uint64_t hh_width = 0;
  double hh_epsilon = 0.0;
  std::size_t f0_bytes = 0;
  std::size_t f2_bytes = 0;
  std::size_t hh_bytes = 0;
};

Candidate CandidateAt(const PlanInputs& in, const Workload& w,
                      double degrade) {
  const PlanSpec& spec = in.spec;
  Candidate c;
  if (in.enable_f0) {
    c.f0_epsilon = spec.f0.epsilon > 0.0
                       ? std::min(0.9, spec.f0.epsilon * degrade)
                       : KmvEpsilon(kMinKmvK);
    c.kmv_k = std::min(kMaxKmvK,
                       std::max(kMinKmvK, KmvKForEpsilon(c.f0_epsilon)));
    c.hll_precision = HllPrecisionForEpsilon(c.f0_epsilon);
    // Backend pick: KMV (the exact-merging default) unless its footprint
    // is out of proportion to the budget AND HyperLogLog can still meet
    // the target (HLL tops out near eps ~ 0.002 at precision 18).
    const std::size_t kmv_ceiling =
        std::max<std::size_t>(std::size_t{64} * 1024, spec.budget_bytes / 8);
    c.f0_use_hll = F0KmvBytes(c.kmv_k) > kmv_ceiling &&
                   HllEpsilon(c.hll_precision) <= c.f0_epsilon;
    c.f0_bytes =
        c.f0_use_hll ? F0HllBytes(c.hll_precision) : F0KmvBytes(c.kmv_k);
  }
  if (in.enable_f2) {
    c.f2_epsilon = spec.f2.epsilon > 0.0
                       ? std::min(0.99, spec.f2.epsilon * degrade)
                       : CountSketchEpsilon(kMinF2Width);
    // Power-of-two width classes: the quantization that keeps re-planned
    // geometry in a small set of merge-compatible classes.
    c.f2_width = std::min(
        kMaxF2Width,
        std::max(kMinF2Width,
                 RoundUpPow2(CountSketchWidthForEpsilon(c.f2_epsilon))));
    c.f2_bytes = F2Bytes(w, c.f2_width);
  }
  if (in.enable_heavy_hitters) {
    c.hh_epsilon = spec.hh.epsilon > 0.0
                       ? std::min(kHhEpsilonFloor,
                                  std::max(1e-4, spec.hh.epsilon * degrade))
                       : kHhEpsilonFloor;
    c.hh_width = HhWidthFromEpsilon(in.hh_alpha, c.hh_epsilon);
    c.hh_bytes = HhBytes(w, c.hh_width, AlphaPrime(in.hh_alpha, c.hh_epsilon));
  }
  return c;
}

std::size_t TotalBytes(const Candidate& c, std::size_t entropy_reserve) {
  return kFixedOverheadBytes + entropy_reserve + c.f0_bytes + c.f2_bytes +
         c.hh_bytes;
}

GeometryPlan SolveWithCells(const PlanInputs& in, const Workload& w) {
  const PlanSpec& spec = in.spec;
  std::size_t entropy_reserve =
      in.enable_entropy
          ? static_cast<std::size_t>(20.0 * w.f0_samp) + 512
          : 0;
  // Without any workload hint f0_samp falls back to the universe, which
  // would charge a worst-case entropy reserve bigger than most budgets and
  // mark every unhinted plan degraded. Cap the blind reserve at a quarter
  // of the budget: the entropy table grows with the *observed* distinct
  // count anyway, and the reserve becomes exact as soon as hints arrive
  // (construction-time, or via WindowedMonitor re-planning).
  const bool hinted = spec.f0_hint > 0.0 || spec.n_hint > 0.0;
  if (in.enable_entropy && !hinted) {
    entropy_reserve = std::min(entropy_reserve, spec.budget_bytes / 4);
  }

  const bool f0_explicit = in.enable_f0 && spec.f0.epsilon > 0.0;
  const bool f2_explicit = in.enable_f2 && spec.f2.epsilon > 0.0;
  const bool hh_explicit = in.enable_heavy_hitters && spec.hh.epsilon > 0.0;
  const bool any_explicit = f0_explicit || f2_explicit || hh_explicit;

  Candidate c = CandidateAt(in, w, 1.0);
  double degrade = 1.0;
  bool degraded = false;

  if (TotalBytes(c, entropy_reserve) <= spec.budget_bytes) {
    // Feasible: explicit targets are met exactly; best-effort metrics
    // climb their doubling ladders through the leftover, split by weight
    // (F2 is the hungriest consumer of extra width, F0 the cheapest).
    std::size_t leftover =
        spec.budget_bytes - TotalBytes(c, entropy_reserve);
    double weight_sum = 0.0;
    const double w_f0 = (in.enable_f0 && !f0_explicit) ? 1.0 : 0.0;
    const double w_hh = (in.enable_heavy_hitters && !hh_explicit) ? 2.0 : 0.0;
    const double w_f2 = (in.enable_f2 && !f2_explicit) ? 8.0 : 0.0;
    weight_sum = w_f0 + w_hh + w_f2;
    if (weight_sum > 0.0) {
      const double unit = static_cast<double>(leftover) / weight_sum;
      if (w_f0 > 0.0) {
        const std::size_t share = c.f0_bytes +
                                  static_cast<std::size_t>(unit * w_f0);
        std::size_t k = c.kmv_k;
        while (k * 2 <= kMaxKmvK && F0KmvBytes(k * 2) <= share) k *= 2;
        c.kmv_k = k;
        c.f0_epsilon = KmvEpsilon(k);
        c.hll_precision = HllPrecisionForEpsilon(c.f0_epsilon);
        c.f0_use_hll = false;
        c.f0_bytes = F0KmvBytes(k);
      }
      if (w_hh > 0.0) {
        const std::size_t share = c.hh_bytes +
                                  static_cast<std::size_t>(unit * w_hh);
        double eps = c.hh_epsilon;
        while (eps / 2.0 >= 1e-4) {
          const double next = eps / 2.0;
          const std::uint64_t width = HhWidthFromEpsilon(in.hh_alpha, next);
          if (HhBytes(w, width, AlphaPrime(in.hh_alpha, next)) > share) break;
          eps = next;
        }
        c.hh_epsilon = eps;
        c.hh_width = HhWidthFromEpsilon(in.hh_alpha, eps);
        c.hh_bytes = HhBytes(w, c.hh_width, AlphaPrime(in.hh_alpha, eps));
      }
      if (w_f2 > 0.0) {
        const std::size_t share = c.f2_bytes +
                                  static_cast<std::size_t>(unit * w_f2);
        std::uint64_t width = c.f2_width;
        while (width * 2 <= kMaxF2Width && F2Bytes(w, width * 2) <= share) {
          width *= 2;
        }
        c.f2_width = width;
        c.f2_epsilon = std::min(0.99, CountSketchEpsilon(width));
        c.f2_bytes = F2Bytes(w, width);
      }
    }
  } else if (any_explicit &&
             TotalBytes(CandidateAt(in, w, kMaxDegrade), entropy_reserve) <=
                 spec.budget_bytes) {
    // Infeasible as asked: degrade every explicit epsilon by one uniform
    // factor, the smallest that fits (bisection; byte cost is monotone
    // non-increasing in the factor). Reported, never an abort.
    double lo = 1.0;  // does not fit
    double hi = kMaxDegrade;
    for (int i = 0; i < 64; ++i) {
      const double mid = std::sqrt(lo * hi);  // log-space midpoint
      if (TotalBytes(CandidateAt(in, w, mid), entropy_reserve) <=
          spec.budget_bytes) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    degrade = hi;
    degraded = true;
    c = CandidateAt(in, w, degrade);
  } else {
    // Even the floors (or the degrade ceiling) exceed the budget: keep the
    // floors, report the overshoot honestly.
    degrade = any_explicit ? kMaxDegrade : 1.0;
    degraded = true;
    c = CandidateAt(in, w, degrade);
  }

  GeometryPlan plan;
  plan.f0_use_hll = c.f0_use_hll;
  plan.kmv_k = in.enable_f0 ? c.kmv_k : 0;
  plan.hll_precision = in.enable_f0 ? c.hll_precision : 0;
  plan.f2_cs_depth = in.enable_f2 ? w.cs_depth : 0;
  plan.f2_width = in.enable_f2 ? c.f2_width : 0;
  plan.hh_depth = in.enable_heavy_hitters ? w.hh_depth : 0;
  plan.hh_width = in.enable_heavy_hitters ? c.hh_width : 0;
  plan.cell_width = w.cell_bytes == 8   ? CellWidth::k64
                    : w.cell_bytes == 4 ? CellWidth::k32
                    : w.cell_bytes == 2 ? CellWidth::k16
                                        : CellWidth::k8;
  plan.monitor_epsilon =
      in.enable_f2 ? std::min(0.99, std::max(1e-6, c.f2_epsilon)) : 0.25;
  // monitor_delta is filled in by SolvePlan (it is shared across the cell
  // ladder and resolved before the per-cell solves).
  plan.hh_epsilon = in.enable_heavy_hitters ? c.hh_epsilon : 0.25;
  plan.universe = w.universe;
  plan.budget_bytes = spec.budget_bytes;
  plan.f0_bytes = c.f0_bytes;
  plan.f2_bytes = c.f2_bytes;
  plan.hh_bytes = c.hh_bytes;
  plan.entropy_reserve_bytes = entropy_reserve;
  plan.planned_bytes = TotalBytes(c, entropy_reserve);
  plan.degraded = degraded;
  plan.degrade_factor = degrade;
  plan.achieved_f0_epsilon =
      c.f0_use_hll ? HllEpsilon(c.hll_precision) : KmvEpsilon(c.kmv_k);
  plan.achieved_f2_epsilon = CountSketchEpsilon(c.f2_width);
  plan.achieved_f2_delta = CountSketchDelta(w.cs_depth);
  plan.achieved_hh_epsilon = CountMinEpsilon(c.hh_width);
  plan.achieved_hh_delta = CountMinDelta(w.hh_depth);
  return plan;
}

}  // namespace

GeometryPlan SolvePlan(const PlanInputs& in) {
  const PlanSpec& spec = in.spec;

  // Resolve the one monitor-wide delta knob: the strictest requested delta
  // across enabled metrics, tightened further so the F2 depth chain
  // (max(5, ceil(2 ln 1/delta)), health bound exp(-depth/3)) still lands
  // at or under the F2 target.
  auto metric_delta = [](const AccuracyTarget& t) {
    return t.delta > 0.0 && t.delta < 1.0 ? t.delta : kDefaultDelta;
  };
  double monitor_delta = kDefaultDelta;
  if (in.enable_f0) monitor_delta = std::min(monitor_delta, metric_delta(spec.f0));
  if (in.enable_heavy_hitters) {
    monitor_delta = std::min(monitor_delta, metric_delta(spec.hh));
  }
  if (in.enable_f2) {
    const double df2 = metric_delta(spec.f2);
    const double need_depth =
        static_cast<double>(CountSketchDepthForDelta(df2));
    monitor_delta =
        std::min({monitor_delta, df2, std::exp(-need_depth / 2.0)});
  }
  monitor_delta = std::max(monitor_delta, kMinDelta);

  Workload w;
  w.universe = in.universe < 2 ? 2 : in.universe;
  if (spec.f0_hint > 0.0) {
    // The universe tracks the observed distinct count (4x slack, then a
    // power of two — the same quantization the re-plan hysteresis uses).
    w.universe = RoundUpPow2(static_cast<std::uint64_t>(
        std::max(1024.0, 4.0 * spec.f0_hint)));
  }
  w.cs_depth = LevelSetDepthFromDelta(monitor_delta);
  w.hh_depth = CountMinDepthFromDelta(monitor_delta / 4.0);
  w.n_samp = spec.n_hint > 0.0 ? spec.n_hint * in.p : 0.0;
  const double f0_orig = spec.f0_hint > 0.0
                             ? spec.f0_hint
                             : static_cast<double>(w.universe);
  w.f0_samp = w.n_samp > 0.0 ? std::min(f0_orig, w.n_samp) : f0_orig;

  // Cell-width ladder: 64-bit first (the conservative historical layout);
  // narrow only when that cannot meet the explicit targets AND the
  // expected per-window counts fit the narrow cell with headroom (spill
  // promotion keeps estimates exact either way — this rule just keeps
  // spill churn and lazily-allocated spill levels out of the plan).
  GeometryPlan best;
  bool have_best = false;
  const double counts = w.n_samp;
  const std::size_t ladder[] = {8, 4, 2};
  for (std::size_t cell_bytes : ladder) {
    if (cell_bytes == 4 && !(counts > 0.0 && counts < 2147483648.0)) continue;
    if (cell_bytes == 2 && !(counts > 0.0 && counts < 32768.0)) continue;
    Workload wc = w;
    wc.cell_bytes = cell_bytes;
    GeometryPlan plan = SolveWithCells(in, wc);
    plan.monitor_delta = monitor_delta;
    if (!have_best || (plan.degraded
                           ? (best.degraded &&
                              plan.degrade_factor < best.degrade_factor)
                           : best.degraded)) {
      best = plan;
      have_best = true;
    }
    if (!best.degraded) break;
  }
  return best;
}

}  // namespace plan
}  // namespace substream
