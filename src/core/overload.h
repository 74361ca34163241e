#ifndef SUBSTREAM_CORE_OVERLOAD_H_
#define SUBSTREAM_CORE_OVERLOAD_H_

#include <cstddef>
#include <cstdint>

#include "util/common.h"
#include "util/random.h"

/// \file overload.h
/// Overload-graceful sampled ingest (NitroSketch mode).
///
/// Under burst traffic the sharded pipeline's only native relief valve is
/// producer backoff: when a ring fills, PushBatch spins and sleeps until the
/// consumer catches up, so the pipeline slows down instead of degrading.
/// NitroSketch (Liu et al., "NitroSketch: Robust and General Sketch-based
/// Monitoring in Software Switches", SIGCOMM 2019) shows the alternative:
/// admit each element with probability p via geometric skip sampling and
/// apply the survivors with weight 1/p. Every counter stays an unbiased
/// estimate of its exact value, at a variance cost that shrinks as p -> 1 —
/// accuracy degrades smoothly and measurably instead of latency falling off
/// a cliff.
///
/// SampleController is the producer-side policy object. It does two jobs:
///
///  1. **Admission.** `Admit()` implements i.i.d. Bernoulli(p) admission in
///     O(1) amortized time by drawing geometric skip distances: after each
///     admitted element the controller draws `skip ~ Geometric(p)` (number
///     of failures before the next success) and rejects exactly that many
///     subsequent elements without touching the RNG. At p = 1 the fast path
///     is a single branch.
///
///  2. **Adaptation.** `Observe(occupancy, stall_delta)` moves the rate in
///     response to backpressure. Rates are constrained to powers of two
///     (p = 2^-level), so the unbiased correction weight round(1/p) = 2^level
///     is exact in integer arithmetic. Pressure — ring occupancy at or above
///     the engage watermark (1/2), or any new producer stalls — steps the
///     level up (halves p) immediately. Recovery is deliberately slower: the
///     level steps down only after `calm_observations` consecutive
///     observations at or below the disengage watermark (1/4). The watermarks
///     are fixed constants in overload.cc. The watermark gap plus the
///     calm streak is the hysteresis that keeps the rate from flapping when
///     occupancy hovers near a threshold.
///
/// The controller is a plain single-threaded object; ShardedMonitor calls it
/// from the producer thread only. Weighted survivors flow through the
/// weight of Monitor::UpdatePrehashed(), which feeds every frequency-
/// weighted summary (CountMin, CountSketch, entropy MLE) its existing
/// weighted-add path and records the raw-survivor count that Health()
/// needs to report the effective rate and widened error bounds.
namespace substream {

/// Tuning for the adaptive sampler. The master on/off switch lives in
/// MonitorConfig::overload_sampling (off by default); these knobs only shape
/// how an enabled controller reacts.
struct SampleControllerOptions {
  /// Floor for the sample rate; clamped to the nearest power of two.
  /// 1/64 caps the correction weight at 64 and the F2 variance widening at
  /// sqrt(2 * (1 - 1/64) * ln(1/delta) / raw) — see plan::SampledEpsilon.
  double min_rate = 1.0 / 64.0;
  /// Consecutive calm observations required before the rate steps back up
  /// one level (doubles) toward exact counting.
  std::size_t calm_observations = 4;
};

class SampleController {
 public:
  SampleController(const SampleControllerOptions& options, std::uint64_t seed);

  /// Bernoulli(rate) admission via geometric skips. Single-threaded.
  bool Admit() {
    if (level_ == 0) {
      ++admitted_;
      return true;
    }
    if (skip_ > 0) {
      --skip_;
      ++skipped_;
      return false;
    }
    skip_ = rng_.NextGeometric(rate_);
    ++admitted_;
    return true;
  }

  /// Feed one backpressure observation (typically once per flushed batch):
  /// `occupancy` is the destination ring's fill fraction in [0, 1], and
  /// `stall_delta` is the number of producer stalls since the previous
  /// observation. Returns true when the level (and thus weight()) changed —
  /// the caller must flush anything staged under the old weight FIRST, since
  /// a batch carries a single weight.
  bool Observe(double occupancy, std::uint64_t stall_delta);

  /// Current sample rate p = 2^-level in (0, 1].
  double rate() const { return rate_; }
  /// Unbiased correction weight round(1/p) = 2^level; exact by construction.
  count_t weight() const { return count_t{1} << level_; }
  /// Current level (0 = exact counting).
  std::uint32_t level() const { return level_; }
  std::uint64_t items_admitted() const { return admitted_; }
  std::uint64_t items_skipped() const { return skipped_; }

  /// Back to exact counting (fresh construction state); counters cleared.
  void Reset();

 private:
  void SetLevel(std::uint32_t level);

  SampleControllerOptions options_;
  std::uint32_t max_level_;
  std::uint32_t level_ = 0;
  double rate_ = 1.0;
  std::uint64_t skip_ = 0;
  std::size_t calm_streak_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t skipped_ = 0;
  Rng rng_;
};

}  // namespace substream

#endif  // SUBSTREAM_CORE_OVERLOAD_H_
