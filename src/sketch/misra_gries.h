#ifndef SUBSTREAM_SKETCH_MISRA_GRIES_H_
#define SUBSTREAM_SKETCH_MISRA_GRIES_H_

#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sketch/sketch.h"
#include "util/common.h"

/// \file misra_gries.h
/// Misra–Gries frequent-elements summary [33], cited by the paper as the
/// insert-only alternative to CountMin for Theorem 6.

namespace substream {

/// Deterministic k-counter summary. For every item,
///   f_i - F1/(k+1) <= Estimate(i) <= f_i,
/// so every item with f_i > F1/(k+1) survives in the summary.
class MisraGries {
 public:
  explicit MisraGries(std::size_t k);

  void Update(item_t item, count_t count = 1);

  /// Feeds `n` already-prehashed elements (the counter map never consumes
  /// the prehash; scalar fallback keeps the paths bit-identical).
  void UpdatePrehashed(PrehashedColumns cols, std::size_t n) {
    UpdatePrehashedColsByLoop(*this, cols, n);
  }

  /// Forgets all counters and error state; k is kept.
  void Reset() {
    counters_.clear();
    total_ = 0;
    decrement_total_ = 0;
  }

  /// Lower-bound estimate of the frequency of `item` (0 if not tracked).
  count_t Estimate(item_t item) const;

  /// Merges another k-counter summary (Agarwal et al. mergeability): add
  /// counters pointwise, then subtract the (k+1)-st largest value from all
  /// and drop non-positive counters. The merged summary keeps the combined
  /// error bound (F1_total / (k+1) plus accumulated decrements).
  void Merge(const MisraGries& other);
  /// True when Merge(other) preconditions hold, checked all the way
  /// down through nested summaries; the Collector uses this to reject
  /// decoded-but-incompatible records instead of tripping the abort.
  bool MergeCompatibleWith(const MisraGries& other) const;

  /// Upper bound on the estimation error: decrements / (k+1)-sized groups.
  count_t ErrorBound() const { return decrement_total_; }

  count_t TotalCount() const { return total_; }

  /// All tracked (item, estimate) pairs with estimate >= threshold, sorted
  /// by decreasing estimate.
  std::vector<std::pair<item_t, count_t>> Candidates(double threshold) const;

  std::size_t SpaceBytes() const {
    return counters_.size() * (sizeof(item_t) + sizeof(count_t));
  }

  /// Appends the versioned wire record: k header, error state, counters.
  void Serialize(serde::Writer& out) const;

  /// Decodes one record; std::nullopt on truncated or corrupted input.
  static std::optional<MisraGries> Deserialize(serde::Reader& in);

 private:
  std::size_t k_;
  std::unordered_map<item_t, count_t> counters_;
  count_t total_ = 0;
  count_t decrement_total_ = 0;
};

SUBSTREAM_ASSERT_MERGEABLE_SUMMARY(MisraGries);

}  // namespace substream

#endif  // SUBSTREAM_SKETCH_MISRA_GRIES_H_
