#ifndef SUBSTREAM_CORE_FK_ESTIMATOR_H_
#define SUBSTREAM_CORE_FK_ESTIMATOR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/health.h"
#include "sketch/level_sets.h"
#include "util/common.h"

/// \file fk_estimator.h
/// Algorithm 1 / Theorem 1: a one-pass (1+eps, delta) estimator of the
/// k-th frequency moment F_k(P) of the *original* stream, computed by
/// observing only the Bernoulli(p)-sampled stream L.
///
/// Pipeline: phi~_1 = F1(L)/p; for l = 2..k, estimate the l-wise collision
/// count C~_l(L) of the sampled stream (Indyk–Woodruff level sets, or exact
/// counting in reference modes), unbias by p^l, and apply Eq. (1):
///   phi~_l = C~_l(L) * l! / p^l + sum_{j<l} beta^l_j * phi~_j.
/// The answer is phi~_k. Space in sketch mode is O~(p^{-1} m^{1-2/k}).

namespace substream {

/// How the collision counts C_l(L) are obtained.
enum class CollisionBackend {
  /// Indyk–Woodruff level-set sketch: the paper's small-space algorithm.
  kSketch,
  /// Exact per-item counts on L, exact C_l(L): reference for tests; space
  /// O(F0(L)).
  kExactCollisions,
  /// Exact per-item counts on L, but C_l computed through the level-set
  /// discretization: isolates the (1+eps') rounding error of the level-set
  /// representation from sketch recovery error.
  kExactLevelSets,
};

/// Parameters of the F_k estimator.
struct FkParams {
  /// Moment order; k >= 2 (Theorem 1). k = 1 degenerates to counting.
  int k = 2;
  /// Target relative error.
  double epsilon = 0.1;
  /// Target failure probability.
  double delta = 0.05;
  /// Bernoulli sampling probability of the observed stream.
  double p = 1.0;
  /// Universe size hint m; sizes the sketch as m^{1-2/k}/p (Theorem 1).
  item_t universe = 1 << 16;
  /// Stream length hint (used only for the feasibility predicate).
  std::uint64_t n_hint = 0;
  CollisionBackend backend = CollisionBackend::kSketch;
  /// Multiplies the analytic sketch width; the paper's polylog factors are
  /// unspecified constants, exposed here as a knob.
  double space_multiplier = 8.0;
  /// Hard cap on CountSketch width per level (0 = uncapped).
  std::uint64_t max_width = 0;
  /// Physical cell width of the level-set CountSketch counters
  /// (cell_width.h); spill promotion keeps estimates unchanged. Ignored by
  /// the exact backends.
  CellWidth cell_width = CellWidth::k64;
};

/// One-pass F_k estimator over the sampled stream (Algorithm 1).
class FkEstimator {
 public:
  FkEstimator(const FkParams& params, std::uint64_t seed);

  ~FkEstimator();
  FkEstimator(FkEstimator&&) noexcept;
  FkEstimator& operator=(FkEstimator&&) noexcept;

  /// Feeds one element of the *sampled* stream L.
  void Update(item_t item);

  /// Feeds `n` already-prehashed elements of L (the level-set
  /// CountSketches consume the shared prehash directly), each carrying
  /// `weight` units. Weights above 1 are the sampled-ingest form: the
  /// unbiased round(1/p) correction for Bernoulli(p)-admitted survivors,
  /// equivalent to replaying each element `weight` times (level-set adds
  /// are linear). The sketch backend loops per item; the exact backend
  /// loops per item for weight > 1.
  void UpdatePrehashed(PrehashedColumns cols, std::size_t n,
                       count_t weight = 1);

  /// Merges an estimator built with the same parameters and seed (the
  /// level-set backends merge under their own geometry/seed preconditions).
  /// Decayed merge for windowed roll-ups: with `weight` in (0, 1), the
  /// backend's linear counters contribute scaled by `weight` (rounded to
  /// the counter domain), so the merged estimator approximates F_k of the
  /// decayed stream — including cross-window collision terms, by
  /// linearity of the underlying sketches.
  void Merge(const FkEstimator& other, double weight = 1.0);
  /// True when Merge(other) preconditions hold, checked all the way
  /// down through nested summaries; the Collector uses this to reject
  /// decoded-but-incompatible records instead of tripping the abort.
  bool MergeCompatibleWith(const FkEstimator& other) const;

  /// Clears all state; parameters, seed and backend are kept.
  void Reset();

  /// phi~_k, the estimate of F_k(P).
  double Estimate() const;

  /// The whole ladder phi~_1 .. phi~_k (estimates of F_1(P) .. F_k(P)).
  std::vector<double> AllMoments() const;

  /// The raw collision estimates C~_l(L) for l = 2..k (diagnostics), all
  /// from one readout of the backend.
  std::vector<double> CollisionEstimates() const;

  /// Number of sampled-stream elements consumed, i.e. F1(L).
  count_t SampledLength() const { return sampled_length_; }

  /// The epsilon schedule eps_1..eps_k of Lemma 3 in use.
  const std::vector<double>& epsilon_schedule() const { return schedule_; }

  const FkParams& params() const { return params_; }

  std::size_t SpaceBytes() const;

  /// Appends one SummaryHealth entry for the active backend under `name`
  /// (sketch mode: per-depth CountSketch tables aggregated).
  void AppendHealth(const std::string& name,
                    std::vector<obs::SummaryHealth>* out) const;

  /// Feasibility threshold of Theorem 1: estimation is information-
  /// theoretically possible only when p = Omega~(min(m, n)^{-1/k}).
  static double MinSamplingProbability(int k, item_t m, std::uint64_t n);

  /// Analytic CountSketch width for the level-set structure:
  /// ceil(space_multiplier * m^{1-2/k} / (p * eps^2)).
  static std::uint64_t SketchWidth(const FkParams& params);

  /// Appends the versioned wire record: parameter header, then the active
  /// backend's nested record.
  void Serialize(serde::Writer& out) const;

  /// Decodes one record; std::nullopt on truncated or corrupted input.
  static std::optional<FkEstimator> Deserialize(serde::Reader& in);

 private:
  /// Deserialize-only: adopts params and recomputes the epsilon schedule
  /// without building a backend (the decoded nested record supplies it).
  struct DeserializeTag {};
  FkEstimator(DeserializeTag, const FkParams& params);

  FkParams params_;
  std::vector<double> schedule_;
  count_t sampled_length_ = 0;
  // Exactly one backend is active, per params_.backend.
  std::unique_ptr<IndykWoodruffEstimator> sketch_backend_;
  std::unique_ptr<ExactLevelSets> exact_backend_;
};

}  // namespace substream

#endif  // SUBSTREAM_CORE_FK_ESTIMATOR_H_
