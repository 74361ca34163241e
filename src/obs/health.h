#pragma once

// SketchHealth: per-summary introspection. Where the metrics registry
// answers "how fast / how often", a HealthReport answers "how full / how
// degraded": for each summary inside a Monitor it carries the geometry,
// the fill ratio of the counter table, the fraction of cells that spilled
// into wider overflow levels, and the derived (epsilon, delta) error bound
// the geometry buys.
//
// This header sits below the sketch layer (standard library plus the
// equally-low plan/accuracy.h formula header) so sketches and estimators
// can vend SummaryHealth entries without new dependency edges.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "plan/accuracy.h"

namespace substream {
namespace obs {

// Health of one summary (one sketch, one estimator backend). Fractions are
// in [0, 1]; epsilon/delta are 0 when no analytic bound applies (e.g.
// exact backends).
struct SummaryHealth {
  std::string name;        // e.g. "f0", "f2.level_sets", "hh.countmin"
  std::string kind;        // e.g. "countmin", "countsketch", "kmv", "exact"
  std::uint64_t depth = 0;         // rows (0 when not a depth*width table)
  std::uint64_t width = 0;         // buckets per row (or capacity k)
  std::uint64_t cells = 0;         // total base cells (or capacity)
  std::uint64_t nonzero_cells = 0;
  std::uint64_t spilled_cells = 0;  // cells promoted into overflow levels
  double fill_ratio = 0.0;          // nonzero_cells / cells
  double spill_fraction = 0.0;      // spilled_cells / cells
  double epsilon = 0.0;             // derived error bound (0 = n/a)
  double delta = 0.0;               // derived failure probability (0 = n/a)
  std::size_t space_bytes = 0;
};

struct HealthReport {
  std::uint64_t sampled_length = 0;  // weighted units the monitor absorbed
  double sampling_p = 1.0;           // substream sampling probability
  // Overload-graceful sampled ingest (core/overload.h). raw_updates counts
  // the elements actually applied (post-admission survivors); with sampled
  // mode off it equals sampled_length and the rate is exactly 1. The
  // widening is additive: each summary's promise under sampling is
  // (summary.epsilon + sampled_epsilon, summary.delta).
  std::uint64_t raw_updates = 0;
  double effective_sample_rate = 1.0;  // raw_updates / sampled_length
  double sampled_epsilon = 0.0;  // plan::SampledEpsilon widening (0 = exact)
  std::vector<SummaryHealth> summaries;
};

// Normalize the two ratio fields once counts are filled in.
inline void FinalizeRatios(SummaryHealth& h) {
  const double cells = h.cells > 0 ? static_cast<double>(h.cells) : 1.0;
  h.fill_ratio = static_cast<double>(h.nonzero_cells) / cells;
  h.spill_fraction = static_cast<double>(h.spilled_cells) / cells;
}

// Standard analytic bounds. The formulas themselves live in
// plan/accuracy.h — the single source of truth shared with the geometry
// planner, so the bound Health() reports and the bound the planner sized
// for can never drift. These delegating aliases keep the historical obs::
// spellings (and the hand-computed pins in obs_health_test) intact.
inline double CountMinEpsilon(std::uint64_t width) {
  return plan::CountMinEpsilon(width);
}
inline double CountMinDelta(std::uint64_t depth) {
  return plan::CountMinDelta(depth);
}
inline double CountSketchEpsilon(std::uint64_t width) {
  return plan::CountSketchEpsilon(width);
}
inline double CountSketchDelta(std::uint64_t depth) {
  return plan::CountSketchDelta(depth);
}
inline double KmvEpsilon(std::uint64_t k) { return plan::KmvEpsilon(k); }
inline double HllEpsilon(int precision) {
  return plan::HllEpsilon(precision);
}

}  // namespace obs
}  // namespace substream
