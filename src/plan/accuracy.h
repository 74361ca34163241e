#ifndef SUBSTREAM_PLAN_ACCURACY_H_
#define SUBSTREAM_PLAN_ACCURACY_H_

// Closed-form accuracy <-> geometry formulas, shared between the health
// report (obs/health.h) and the geometry planner (plan/plan.h).
//
// Two directions live side by side so they can never drift:
//
//   - Forward (geometry -> bound): what Monitor::Health() reports for a
//     summary of the given depth/width/k/precision.
//   - Inverse (bound -> geometry): the least geometry whose forward bound
//     meets the target, i.e. Forward(Inverse(x)) <= x for every valid x.
//     The planner sizes every summary through these.
//
// The constructor-side derivation chains (CountMinSketch's delta -> depth,
// the Monitor's delta -> F2 CountSketch depth, ...) are also hoisted here,
// so a planner that wants a particular physical geometry can invert
// through the exact chain the constructors will re-derive.
//
// This header sits below the sketch layer (standard library only), like
// obs/health.h, so both can depend on it without new dependency edges.

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace substream {
namespace plan {

// ---------------------------------------------------------------------------
// Forward: geometry -> (epsilon, delta). These are the bounds Health()
// attaches to each summary.
// ---------------------------------------------------------------------------

// CountMin (Cormode-Muthukrishnan): overestimate <= (e/width) * ||f||_1
// with probability >= 1 - e^-depth.
inline double CountMinEpsilon(std::uint64_t width) {
  return width > 0 ? std::exp(1.0) / static_cast<double>(width) : 0.0;
}
inline double CountMinDelta(std::uint64_t depth) {
  return std::exp(-static_cast<double>(depth));
}

// CountSketch (Charikar-Chen-Farach-Colton): per-item error
// <= sqrt(e/width) * ||f||_2 with probability >= 1 - e^(-depth/3).
inline double CountSketchEpsilon(std::uint64_t width) {
  return width > 0 ? std::sqrt(std::exp(1.0) / static_cast<double>(width))
                   : 0.0;
}
inline double CountSketchDelta(std::uint64_t depth) {
  return std::exp(-static_cast<double>(depth) / 3.0);
}

// KMV distinct counter: relative error ~ 1/sqrt(k).
inline double KmvEpsilon(std::uint64_t k) {
  return k > 0 ? 1.0 / std::sqrt(static_cast<double>(k)) : 0.0;
}

// HyperLogLog: relative error ~ 1.04/sqrt(2^precision).
inline double HllEpsilon(int precision) {
  return 1.04 / std::sqrt(static_cast<double>(std::uint64_t{1} << precision));
}

// ---------------------------------------------------------------------------
// Inverse: (epsilon, delta) -> geometry. Least geometry meeting the target.
// ---------------------------------------------------------------------------

inline std::uint64_t CountMinWidthForEpsilon(double epsilon) {
  const double e = std::exp(1.0);
  return epsilon > 0.0 ? static_cast<std::uint64_t>(std::ceil(e / epsilon))
                       : 2;
}

inline std::uint64_t CountMinDepthForDelta(double delta) {
  return delta > 0.0 && delta < 1.0
             ? static_cast<std::uint64_t>(std::ceil(std::log(1.0 / delta)))
             : 1;
}

inline std::uint64_t CountSketchWidthForEpsilon(double epsilon) {
  const double e = std::exp(1.0);
  return epsilon > 0.0
             ? static_cast<std::uint64_t>(std::ceil(e / (epsilon * epsilon)))
             : 2;
}

inline std::uint64_t CountSketchDepthForDelta(double delta) {
  return delta > 0.0 && delta < 1.0
             ? static_cast<std::uint64_t>(
                   std::ceil(3.0 * std::log(1.0 / delta)))
             : 1;
}

inline std::size_t KmvKForEpsilon(double epsilon) {
  if (epsilon <= 0.0) return 1024;
  const double k = std::ceil(1.0 / (epsilon * epsilon));
  return static_cast<std::size_t>(k < 16.0 ? 16.0 : k);
}

inline int HllPrecisionForEpsilon(double epsilon) {
  int precision = 4;
  while (precision < 18 && HllEpsilon(precision) > epsilon) ++precision;
  return precision;
}

// ---------------------------------------------------------------------------
// Constructor derivation chains, hoisted from the sketch layer so the
// planner inverts through exactly what the constructors re-derive.
// ---------------------------------------------------------------------------

/// CounterTable<>::kMaxDepth, mirrored here so this header stays below the
/// sketch layer; countmin.cc static_asserts the two stay equal.
inline constexpr int kMaxCounterRows = 64;

/// CountMinSketch(params): delta -> rows. Clamped at the CounterTable row
/// bound: beyond it, extra rows buy nothing the width knob cannot.
inline int CountMinDepthFromDelta(double delta) {
  const int rows =
      static_cast<int>(std::ceil(std::log(1.0 / delta)));
  return rows < 1 ? 1 : (rows > kMaxCounterRows ? kMaxCounterRows : rows);
}

/// CountMinSketch(params): epsilon -> width (error <= (e/width) * F1).
inline std::uint64_t CountMinWidthFromEpsilon(double epsilon) {
  const double e = 2.718281828459045;
  const std::uint64_t width =
      static_cast<std::uint64_t>(std::ceil(e / epsilon));
  return width < 2 ? 2 : width;
}

/// CountSketchHeavyHitters: delta -> rows (median amplification, odd for a
/// unique median, clamped at the largest odd depth the table allows).
inline int CountSketchMedianDepthFromDelta(double delta) {
  const int rows = static_cast<int>(
                       std::ceil(4.0 * std::log(1.0 / delta))) |
                   1;
  const int clamped = rows < 5 ? 5 : rows;
  return clamped > kMaxCounterRows - 1 ? kMaxCounterRows - 1 : clamped;
}

/// FkEstimator sketch backend and the Monitor's F2 CountSketch: delta ->
/// CountSketch rows (max(5, ceil(2 ln 1/delta)) forced odd).
inline int LevelSetDepthFromDelta(double delta) {
  const int rows = static_cast<int>(
                       std::ceil(2.0 * std::log(1.0 / delta))) |
                   1;
  return rows < 5 ? 5 : rows;
}

// ---------------------------------------------------------------------------
// Monitor defaults.
// ---------------------------------------------------------------------------

/// The default PlanSpec budget for one Monitor's summaries.
inline constexpr std::size_t kDefaultMonitorBudgetBytes = std::size_t{16}
                                                          << 20;

/// MonitorConfig::max_f2_width's default: the cap on the one F2
/// CountSketch's width.
inline constexpr std::uint64_t kDefaultF2WidthCap = std::uint64_t{1} << 13;

// ---------------------------------------------------------------------------
// Sampled-ingest (NitroSketch mode) widening.
// ---------------------------------------------------------------------------

/// Additional relative error introduced by Bernoulli(rate) admission with
/// unbiased 1/rate correction (overload-graceful sampled ingest,
/// core/overload.h). A frequency N enters the counters as X/rate with
/// X ~ Binomial(N, rate), so Var[X/rate] = N (1 - rate) / rate; summing over
/// the window's N_total = raw_updates / rate survivors-equivalent and
/// applying a sub-Gaussian tail at confidence 1 - delta gives the relative
/// half-width
///
///     eps_sample = sqrt(2 (1 - rate) ln(1/delta) / raw_updates),
///
/// where `raw_updates` is the number of admitted (post-sampling) elements
/// actually applied. The bound is additive on top of each summary's
/// geometric epsilon and vanishes as rate -> 1 or as the window grows.
inline double SampledEpsilon(double rate, double delta,
                             std::uint64_t raw_updates) {
  if (rate >= 1.0 || raw_updates == 0) return 0.0;
  if (delta <= 0.0 || delta >= 1.0) delta = 0.05;
  return std::sqrt(2.0 * (1.0 - rate) * std::log(1.0 / delta) /
                   static_cast<double>(raw_updates));
}

}  // namespace plan
}  // namespace substream

#endif  // SUBSTREAM_PLAN_ACCURACY_H_
