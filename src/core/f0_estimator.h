#ifndef SUBSTREAM_CORE_F0_ESTIMATOR_H_
#define SUBSTREAM_CORE_F0_ESTIMATOR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/health.h"
#include "sketch/hyperloglog.h"
#include "sketch/kmv.h"
#include "util/common.h"

/// \file f0_estimator.h
/// Algorithm 2 / Lemma 8: estimating the number of distinct elements F0(P)
/// of the original stream from the sampled stream L.
///
/// Let X be a (1/2, delta)-streaming estimate of F0(L). Algorithm 2 returns
/// X / sqrt(p) and Lemma 8 proves the multiplicative error is at most
/// 4/sqrt(p) with probability >= 1 - (delta + e^{-p F0(P)/8}). Theorem 4
/// shows Omega(1/sqrt(p)) error is unavoidable for *any* algorithm, so the
/// simple scaling is optimal up to constants — the lesson of Section 4 is
/// that streaming costs essentially nothing on top of the sampling loss.

namespace substream {

/// Streaming backend used to estimate F0(L).
enum class F0Backend {
  kKmv,          ///< K-minimum-values sketch.
  kHyperLogLog,  ///< HLL registers.
  kExact,        ///< Exact distinct count of L (reference; O(F0(L)) space).
};

/// Parameters for the F0 estimator.
struct F0Params {
  double p = 1.0;                      ///< sampling probability of L
  double delta = 0.05;                 ///< sketch failure probability
  F0Backend backend = F0Backend::kKmv;
  std::size_t kmv_k = 1024;            ///< KMV size (relative error ~1/sqrt(k))
  int hll_precision = 14;              ///< HLL register count = 2^precision
};

/// One-pass F0(P) estimator over the sampled stream (Algorithm 2).
class F0Estimator {
 public:
  F0Estimator(const F0Params& params, std::uint64_t seed);
  ~F0Estimator();
  F0Estimator(F0Estimator&&) noexcept;
  F0Estimator& operator=(F0Estimator&&) noexcept;

  /// Feeds one element of the sampled stream L.
  void Update(item_t item);

  /// Feeds `n` already-prehashed elements of L (the Monitor pipeline's
  /// columnar entry point). The backend consumes the column it needs:
  /// KMV/HLL read the hash column, the exact backend bulk-inserts the item
  /// column.
  void UpdatePrehashed(PrehashedColumns cols, std::size_t n);

  /// Merges an estimator built with the same parameters and seed (backend
  /// sketches merge under their own geometry/seed preconditions).
  void Merge(const F0Estimator& other);
  /// True when Merge(other) preconditions hold, checked all the way
  /// down through nested summaries; the Collector uses this to reject
  /// decoded-but-incompatible records instead of tripping the abort.
  bool MergeCompatibleWith(const F0Estimator& other) const;

  /// Clears all state; parameters, seed and backend are kept.
  void Reset();

  /// Algorithm 2's output: X / sqrt(p).
  double Estimate() const;

  /// The raw streaming estimate X of F0(L).
  double EstimateSampledDistinct() const;

  /// Lemma 8's error bound: the output is within multiplicative factor
  /// 4/sqrt(p) of F0(P) with the stated probability.
  double ErrorFactorBound() const;

  count_t SampledLength() const { return sampled_length_; }
  const F0Params& params() const { return params_; }

  std::size_t SpaceBytes() const;

  /// Appends one SummaryHealth entry for the active backend under `name`
  /// (KMV fill = retained/k; HLL fill = touched registers / 2^precision).
  void AppendHealth(const std::string& name,
                    std::vector<obs::SummaryHealth>* out) const;

  /// Appends the versioned wire record: parameter header, then the active
  /// backend's nested record (serde/serde.h).
  void Serialize(serde::Writer& out) const;

  /// Decodes one record; std::nullopt on truncated or corrupted input.
  static std::optional<F0Estimator> Deserialize(serde::Reader& in);

 private:
  struct ExactSet;

  /// Deserialize-only: adopts params without building a backend (the
  /// decoded nested record supplies it), so corrupted wire parameters can
  /// never size an allocation.
  struct DeserializeTag {};
  F0Estimator(DeserializeTag, const F0Params& params);

  F0Params params_;
  count_t sampled_length_ = 0;
  std::unique_ptr<KmvSketch> kmv_;
  std::unique_ptr<HyperLogLog> hll_;
  std::unique_ptr<ExactSet> exact_;
};

}  // namespace substream

#endif  // SUBSTREAM_CORE_F0_ESTIMATOR_H_
