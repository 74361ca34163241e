#ifndef SUBSTREAM_SKETCH_ENTROPY_SKETCH_H_
#define SUBSTREAM_SKETCH_ENTROPY_SKETCH_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sketch/sketch.h"
#include "util/common.h"
#include "util/random.h"

/// \file entropy_sketch.h
/// Streaming estimators for the empirical entropy H(g) of the consumed
/// stream. Theorem 5 of the paper reduces entropy estimation over P to
/// multiplicative estimation of H(g) on L; the substrate it cites ([25],
/// Harvey–Nelson–Onak) is substituted here (see DESIGN.md §3.4) by:
///  - EntropyMleEstimator: exact plug-in entropy over a frequency map of L
///    (space O(F0(L)), still sublinear in n); optional Miller–Madow bias
///    correction; also computes the paper's H_pn(g) variant.
///  - AmsEntropySketch: the Chakrabarti–Cormode–McGregor AMS-style
///    estimator (uniform reservoir position + suffix occurrence count),
///    unbiased for H(g), amplified by median-of-means. O(t) words.

namespace substream {

/// Plug-in (maximum-likelihood) entropy of the consumed stream.
class EntropyMleEstimator {
 public:
  EntropyMleEstimator() = default;

  void Update(item_t item);

  /// Adds `count` occurrences of `item`.
  void Update(item_t item, count_t count) {
    SUBSTREAM_CHECK(count >= 1);
    counts_[item] += count;
    total_ += count;
  }

  /// Feeds `n` already-prehashed elements (the frequency map never
  /// consumes the prehash; scalar fallback keeps the paths bit-identical).
  void UpdatePrehashed(PrehashedColumns cols, std::size_t n) {
    UpdatePrehashedColsByLoop(*this, cols, n);
  }

  /// Merges another frequency map (exact: counts add pointwise). Decayed
  /// merge: with `weight` in (0, 1), counts add as `round(weight * count)`
  /// (entries rounding to zero age out), so the estimate becomes the
  /// entropy of the decayed empirical distribution.
  void Merge(const EntropyMleEstimator& other, double weight = 1.0);
  /// True when Merge(other) preconditions hold, checked all the way
  /// down through nested summaries; the Collector uses this to reject
  /// decoded-but-incompatible records instead of tripping the abort.
  bool MergeCompatibleWith(const EntropyMleEstimator& other) const;

  /// Forgets all counts.
  void Reset() {
    counts_.clear();
    total_ = 0;
  }

  /// H(g) = sum (g_i/n') lg(n'/g_i) where n' is the consumed length.
  double Estimate() const;

  /// Miller–Madow bias-corrected entropy: H_MLE + (F0 - 1)/(2 n' ln 2).
  double EstimateMillerMadow() const;

  /// The paper's H_pn(g) = sum (g_i/(p n)) lg(p n / g_i), the entropy
  /// normalized by the *expected* sampled length p*n instead of the realized
  /// one (Proposition 1 shows they differ by O(log m / sqrt(pn))).
  double EstimateHpn(double expected_length) const;

  count_t ConsumedLength() const { return total_; }

  std::size_t SpaceBytes() const {
    return counts_.size() * (sizeof(item_t) + sizeof(count_t));
  }

  /// Appends the versioned wire record: consumed length + frequency map.
  void Serialize(serde::Writer& out) const;

  /// Decodes one record; std::nullopt on truncated or corrupted input.
  static std::optional<EntropyMleEstimator> Deserialize(serde::Reader& in);

 private:
  std::unordered_map<item_t, count_t> counts_;
  count_t total_ = 0;
};

/// AMS-style unbiased entropy estimator.
///
/// Each of the `groups * per_group` basic estimators holds a uniformly
/// random stream position (maintained reservoir-style) and the count r of
/// occurrences of that position's item from the position onward. The atom
/// X = f(r) := r lg(n/r) - (r-1) lg(n/(r-1)) satisfies E[X] = H(g).
class AmsEntropySketch {
 public:
  /// Sizes the sketch for relative error eps on streams with H = Omega(1),
  /// failure probability delta.
  AmsEntropySketch(double epsilon, double delta, std::uint64_t seed);

  /// Explicit geometry (named factory to avoid overload ambiguity with the
  /// accuracy-driven constructor).
  static AmsEntropySketch WithGeometry(std::size_t groups,
                                       std::size_t per_group,
                                       std::uint64_t seed);

  void Update(item_t item);

  /// Feeds `n` already-prehashed elements (the reservoir is RNG-driven and
  /// never consumes the prehash; scalar fallback keeps the paths
  /// bit-identical, RNG sequence included).
  void UpdatePrehashed(PrehashedColumns cols, std::size_t n) {
    UpdatePrehashedColsByLoop(*this, cols, n);
  }

  /// Merges a same-geometry, same-seed sketch: each atom keeps its holding
  /// with probability n_this/(n_this + n_other), otherwise adopts the
  /// other's (the distributed-reservoir merge rule), so every atom still
  /// holds a uniformly random position of the concatenated stream.
  void Merge(const AmsEntropySketch& other);
  /// True when Merge(other) preconditions hold, checked all the way
  /// down through nested summaries; the Collector uses this to reject
  /// decoded-but-incompatible records instead of tripping the abort.
  bool MergeCompatibleWith(const AmsEntropySketch& other) const;

  /// Empties all atoms and restarts the reservoir randomness from the
  /// construction seed.
  void Reset();

  /// Median-of-means estimate of H(g) in bits. Requires at least 1 update.
  double Estimate() const;

  count_t ConsumedLength() const { return total_; }

  std::size_t SpaceBytes() const {
    return atoms_.size() * sizeof(Atom) + sizeof(*this);
  }

  /// Appends the versioned wire record: geometry + seed header, consumed
  /// length, the reservoir PRNG state (so a restored sketch continues the
  /// exact random sequence), then the atoms.
  void Serialize(serde::Writer& out) const;

  /// Decodes one record; std::nullopt on truncated or corrupted input.
  static std::optional<AmsEntropySketch> Deserialize(serde::Reader& in);

 private:
  struct Atom {
    item_t item = 0;
    count_t suffix_count = 0;  // r
  };

  struct GeometryTag {};
  AmsEntropySketch(GeometryTag, std::size_t groups, std::size_t per_group,
                   std::uint64_t seed);

  std::size_t groups_;
  std::uint64_t seed_;
  std::vector<Atom> atoms_;
  Rng rng_;
  count_t total_ = 0;
};

SUBSTREAM_ASSERT_MERGEABLE_SUMMARY(EntropyMleEstimator);
SUBSTREAM_ASSERT_MERGEABLE_SUMMARY(AmsEntropySketch);

}  // namespace substream

#endif  // SUBSTREAM_SKETCH_ENTROPY_SKETCH_H_
