#ifndef SUBSTREAM_SKETCH_ENTROPY_SKETCH_H_
#define SUBSTREAM_SKETCH_ENTROPY_SKETCH_H_

#include <optional>
#include <unordered_map>

#include "sketch/sketch.h"
#include "util/common.h"

/// \file entropy_sketch.h
/// Streaming estimator for the empirical entropy H(g) of the consumed
/// stream. Theorem 5 of the paper reduces entropy estimation over P to
/// multiplicative estimation of H(g) on L; the substrate it cites ([25],
/// Harvey–Nelson–Onak) is substituted here by EntropyMleEstimator: the
/// exact plug-in entropy over a frequency map of L (space O(F0(L)), still
/// sublinear in n), which also computes the paper's H_pn(g) variant.

namespace substream {

/// The entropies EntropyMleEstimator reads off its counts in one walk (all
/// in bits).
struct EntropyMleReadout {
  /// Plug-in H(g) = sum (g_i/n') lg(n'/g_i), n' the consumed length.
  double plug_in = 0.0;
  /// The paper's H_pn(g) = sum (g_i/(p n)) lg(p n / g_i): the entropy
  /// normalized by the *expected* sampled length p*n instead of the
  /// realized one (Proposition 1 shows they differ by O(log m / sqrt(pn))).
  /// Items with g_i >= p n contribute 0.
  double hpn = 0.0;
};

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
  double Estimate() const { return Readout(0.0).plug_in; }

  /// Plug-in and H_pn at `expected_length` = p n, from one walk of the
  /// counts (H_pn reads 0 when `expected_length` <= 0).
  EntropyMleReadout Readout(double expected_length) const;

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

SUBSTREAM_ASSERT_MERGEABLE_SUMMARY(EntropyMleEstimator);

}  // namespace substream

#endif  // SUBSTREAM_SKETCH_ENTROPY_SKETCH_H_
