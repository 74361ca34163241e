#ifndef SUBSTREAM_CORE_HEAVY_HITTERS_H_
#define SUBSTREAM_CORE_HEAVY_HITTERS_H_

#include <optional>
#include <string>
#include <vector>

#include "obs/health.h"
#include "sketch/countmin.h"
#include "sketch/countsketch.h"
#include "util/common.h"

/// \file heavy_hitters.h
/// Section 6: heavy hitters of the original stream P recovered from the
/// sampled stream L.
///
/// Theorem 6 (F1): run CountMin(alpha', eps', delta') on L with
///   alpha' = (1 - 2 eps / 5) * alpha,  eps' = eps / 2,  delta' = delta / 4,
/// return its candidates and rescale recovered frequencies by 1/p. Valid
/// when F1(P) >= C p^{-1} alpha^{-1} eps^{-2} log(n/delta).
///
/// Theorem 7 (F2): run CountSketch(alpha', eps', delta') on L with
///   alpha' = (1 - 2 eps / 5) * alpha * sqrt(p),  eps' = eps / 10,
/// yielding an (alpha, 1 - sqrt(p)(1 - eps)) F2-heavy-hitter guarantee.

namespace substream {

/// A recovered heavy hitter with its rescaled frequency estimate.
struct HeavyHitter {
  item_t item = 0;
  /// Estimated frequency in the *original* stream: g^_i / p.
  double estimated_frequency = 0.0;
};

/// Shared parameters (Definition 4).
struct HeavyHitterParams {
  double alpha = 0.05;   ///< heavy-hitter fraction
  double epsilon = 0.2;  ///< exclusion-gap / frequency-accuracy parameter
  double delta = 0.05;   ///< failure probability
  double p = 1.0;        ///< sampling probability of the observed stream
  /// Physical cell width of the nested sketch counters (cell_width.h);
  /// spill promotion keeps estimates unchanged.
  CellWidth cell_width = CellWidth::k64;
};

/// Theorem 6: F1-heavy hitters of P from L via CountMin.
class F1HeavyHitterEstimator {
 public:
  F1HeavyHitterEstimator(const HeavyHitterParams& params, std::uint64_t seed);

  /// Feeds one element of the sampled stream L.
  void Update(item_t item);

  /// Feeds `n` already-prehashed elements of L (sketch adds and candidate
  /// re-estimates share the caller's prehash), each carrying `weight`
  /// units. Weight 1 runs the CountMin tracker's batched path; weights above
  /// 1 (sampled ingest) go item by item through its weighted-add path.
  void UpdatePrehashed(PrehashedColumns cols, std::size_t n,
                       count_t weight = 1);

  /// Merges an estimator built with the same parameters and seed.
  void Merge(const F1HeavyHitterEstimator& other);
  /// True when Merge(other) preconditions hold, checked all the way
  /// down through nested summaries; the Collector uses this to reject
  /// decoded-but-incompatible records instead of tripping the abort.
  bool MergeCompatibleWith(const F1HeavyHitterEstimator& other) const;

  /// Decayed merge: CountMin counters contribute scaled by `weight`;
  /// candidate pools re-estimate against the merged sketch, so aged-out
  /// hitters fall below the reporting threshold naturally. `weight` in
  /// (0, 1]; weight 1 delegates to Merge.
  void MergeScaled(const F1HeavyHitterEstimator& other, double weight);

  /// Clears all state; parameters and seed are kept.
  void Reset();

  /// Items with f_i >= alpha F1(P) (whp), with (1 +- eps) frequency
  /// estimates, sorted by decreasing estimate; at most O(1/alpha) items.
  std::vector<HeavyHitter> Estimate() const;

  /// Theorem 6's premise: minimum F1(P) for the guarantee to hold.
  static double RequiredOriginalLength(const HeavyHitterParams& params,
                                       double n_hint);

  count_t SampledLength() const { return sampled_length_; }
  const HeavyHitterParams& params() const { return params_; }
  std::size_t SpaceBytes() const { return tracker_.SpaceBytes(); }

  /// Appends the nested CountMin table's SummaryHealth under `name`.
  void AppendHealth(const std::string& name,
                    std::vector<obs::SummaryHealth>* out) const;

  /// Appends the versioned wire record: parameter header, then the nested
  /// tracker record.
  void Serialize(serde::Writer& out) const;

  /// Decodes one record; std::nullopt on truncated or corrupted input.
  static std::optional<F1HeavyHitterEstimator> Deserialize(serde::Reader& in);

 private:
  HeavyHitterParams params_;
  double alpha_prime_;
  CountMinHeavyHitters tracker_;
  count_t sampled_length_ = 0;
};

/// Theorem 7: F2-heavy hitters of P from L via CountSketch.
class F2HeavyHitterEstimator {
 public:
  F2HeavyHitterEstimator(const HeavyHitterParams& params, std::uint64_t seed);

  void Update(item_t item);

  /// Feeds `n` already-prehashed elements of L (sketch adds and candidate
  /// re-estimates share the caller's prehash), each carrying `weight`
  /// units. Weight 1 runs the CountSketch tracker's batched path; weights above
  /// 1 (sampled ingest) go item by item through its weighted-add path.
  void UpdatePrehashed(PrehashedColumns cols, std::size_t n,
                       count_t weight = 1);

  /// Merges an estimator built with the same parameters and seed.
  void Merge(const F2HeavyHitterEstimator& other);
  /// True when Merge(other) preconditions hold, checked all the way
  /// down through nested summaries; the Collector uses this to reject
  /// decoded-but-incompatible records instead of tripping the abort.
  bool MergeCompatibleWith(const F2HeavyHitterEstimator& other) const;

  /// Decayed merge: CountSketch counters contribute scaled by `weight`;
  /// candidate pools re-estimate against the merged sketch. `weight` in
  /// (0, 1]; weight 1 delegates to Merge.
  void MergeScaled(const F2HeavyHitterEstimator& other, double weight);

  /// Clears all state; parameters and seed are kept.
  void Reset();

  /// Items with f_i >= alpha sqrt(F2(P)) (whp), sorted by decreasing
  /// estimate. Items below (1 - eps) sqrt(p) alpha sqrt(F2(P)) are excluded
  /// (the sqrt(p) degradation is Theorem 7's price of sampling).
  std::vector<HeavyHitter> Estimate() const;

  /// Theorem 7's premise: minimum sqrt(F2(P)) for the guarantee.
  static double RequiredSqrtF2(const HeavyHitterParams& params, double n_hint);

  count_t SampledLength() const { return sampled_length_; }
  const HeavyHitterParams& params() const { return params_; }
  std::size_t SpaceBytes() const { return tracker_.SpaceBytes(); }

  /// Appends the nested CountSketch table's SummaryHealth under `name`.
  void AppendHealth(const std::string& name,
                    std::vector<obs::SummaryHealth>* out) const;

  /// Appends the versioned wire record: parameter header, then the nested
  /// tracker record.
  void Serialize(serde::Writer& out) const;

  /// Decodes one record; std::nullopt on truncated or corrupted input.
  static std::optional<F2HeavyHitterEstimator> Deserialize(serde::Reader& in);

 private:
  HeavyHitterParams params_;
  double alpha_prime_;
  CountSketchHeavyHitters tracker_;
  count_t sampled_length_ = 0;
};

}  // namespace substream

#endif  // SUBSTREAM_CORE_HEAVY_HITTERS_H_
