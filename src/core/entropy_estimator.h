#ifndef SUBSTREAM_CORE_ENTROPY_ESTIMATOR_H_
#define SUBSTREAM_CORE_ENTROPY_ESTIMATOR_H_

#include <memory>
#include <optional>

#include "sketch/entropy_sketch.h"
#include "util/common.h"

/// \file entropy_estimator.h
/// Section 5 / Theorem 5: constant-factor estimation of the empirical
/// entropy H(f) of the original stream from the sampled stream L.
///
/// Lemma 9 shows no multiplicative approximation is possible in general
/// (even at constant p); but Proposition 1 + Lemma 10 show that the entropy
/// of the sampled stream is a constant-factor proxy once the true entropy
/// clears the threshold omega(p^{-1/2} n^{-1/6}):
///   H(f)/2 - O(p^{-1/2} n^{-1/6})  <=  H_pn(g)  <=  O(H(f)).
/// The estimator therefore reports H(g) (multiplicatively estimated on L)
/// together with the validity threshold so callers can tell whether the
/// constant-factor guarantee applies.

namespace substream {

/// Streaming backend used to estimate H(g) on L.
enum class EntropyBackend {
  kMle,          ///< plug-in entropy over exact counts of L
  kMillerMadow,  ///< MLE + Miller–Madow bias correction
  kAmsSketch,    ///< Chakrabarti–Cormode–McGregor AMS-style sketch
};

/// Parameters of the entropy estimator.
struct EntropyParams {
  double p = 1.0;    ///< sampling probability of L
  /// Original stream length n, if known; 0 means "infer as F1(L)/p". Used
  /// for H_pn normalization and the validity threshold.
  double n_hint = 0.0;
  EntropyBackend backend = EntropyBackend::kMle;
  double epsilon = 0.2;   ///< AMS sketch relative error target
  double delta = 0.05;    ///< AMS sketch failure probability
};

/// Result of an entropy estimation (all entropies in bits).
struct EntropyResult {
  /// The estimate of H(f): the (multiplicative) estimate of H(g).
  double entropy = 0.0;
  /// The paper's normalized quantity H_pn(g) (MLE backends only; otherwise
  /// equals `entropy`).
  double entropy_hpn = 0.0;
  /// Validity threshold p^{-1/2} n^{-1/6} from Lemma 10/Theorem 5.
  double threshold = 0.0;
  /// True when the estimate clears the threshold, i.e. the constant-factor
  /// guarantee of Theorem 5 is in force.
  bool reliable = false;
};

/// One-pass entropy estimator over the sampled stream (Theorem 5).
class EntropyEstimator {
 public:
  EntropyEstimator(const EntropyParams& params, std::uint64_t seed);
  ~EntropyEstimator();
  EntropyEstimator(EntropyEstimator&&) noexcept;
  EntropyEstimator& operator=(EntropyEstimator&&) noexcept;

  /// Feeds one element of the sampled stream L.
  void Update(item_t item);

  /// Feeds `n` already-prehashed elements of L (the Monitor pipeline's
  /// columnar entry point; the entropy backends replay scalar updates, so
  /// the per-item and column paths stay bit-identical), each carrying
  /// `weight` units. Weights above 1 (sampled ingest) are MLE-backend only
  /// — the AMS reservoir samples stream *positions* and cannot absorb
  /// weighted occurrences (same restriction as a decayed Merge); Monitor
  /// always runs the MLE backend.
  void UpdatePrehashed(PrehashedColumns cols, std::size_t n,
                       count_t weight = 1);

  /// Merges an estimator built with the same parameters and seed. The MLE
  /// backends merge exactly; the AMS sketch merges via the distributed-
  /// reservoir rule (see AmsEntropySketch::Merge). Decayed merge (`weight`
  /// in (0, 1), MLE backends only — an AMS reservoir position cannot be
  /// weight-scaled, and Monitor always uses MLE): counts contribute scaled
  /// by `weight`, yielding the entropy of the decayed empirical
  /// distribution.
  void Merge(const EntropyEstimator& other, double weight = 1.0);
  /// True when Merge(other) preconditions hold, checked all the way
  /// down through nested summaries; the Collector uses this to reject
  /// decoded-but-incompatible records instead of tripping the abort.
  bool MergeCompatibleWith(const EntropyEstimator& other) const;

  /// Clears all state; parameters, seed and backend are kept.
  void Reset();

  EntropyResult Estimate() const;

  count_t SampledLength() const { return sampled_length_; }
  const EntropyParams& params() const { return params_; }

  /// The Lemma 10 validity threshold for given p and n.
  static double ValidityThreshold(double p, double n);

  std::size_t SpaceBytes() const;

  /// Appends the versioned wire record: parameter header, then the active
  /// backend's nested record.
  void Serialize(serde::Writer& out) const;

  /// Decodes one record; std::nullopt on truncated or corrupted input.
  static std::optional<EntropyEstimator> Deserialize(serde::Reader& in);

 private:
  /// Deserialize-only: adopts params without building a backend (the
  /// decoded nested record supplies it).
  struct DeserializeTag {};
  EntropyEstimator(DeserializeTag, const EntropyParams& params)
      : params_(params) {}

  EntropyParams params_;
  count_t sampled_length_ = 0;
  std::unique_ptr<EntropyMleEstimator> mle_;
  std::unique_ptr<AmsEntropySketch> ams_;
};

}  // namespace substream

#endif  // SUBSTREAM_CORE_ENTROPY_ESTIMATOR_H_
