#ifndef SUBSTREAM_SKETCH_SPACE_SAVING_H_
#define SUBSTREAM_SKETCH_SPACE_SAVING_H_

#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sketch/sketch.h"
#include "util/common.h"

/// \file space_saving.h
/// SpaceSaving summary (Metwally et al.) — a classic deterministic
/// insert-only heavy-hitter structure: the counter-based summary that can
/// stand in for CountMin on insert-only sampled streams L.

namespace substream {

/// k-counter SpaceSaving. Estimates never underestimate:
///   f_i <= Estimate(i) <= f_i + F1/k.
class SpaceSaving {
 public:
  explicit SpaceSaving(std::size_t k);

  void Update(item_t item, count_t count = 1);

  /// Feeds `n` already-prehashed elements (the counter map never consumes
  /// the prehash; scalar fallback keeps the paths bit-identical).
  void UpdatePrehashed(PrehashedColumns cols, std::size_t n) {
    UpdatePrehashedColsByLoop(*this, cols, n);
  }

  /// Merges another k-counter summary (Agarwal et al. mergeability):
  /// counters add pointwise (overestimates too), then the table is pruned
  /// back to the k largest counts. The merged summary keeps the combined
  /// f_i <= Estimate(i) <= f_i + F1_total/k guarantee.
  void Merge(const SpaceSaving& other);
  /// True when Merge(other) preconditions hold, checked all the way
  /// down through nested summaries; the Collector uses this to reject
  /// decoded-but-incompatible records instead of tripping the abort.
  bool MergeCompatibleWith(const SpaceSaving& other) const;

  /// Forgets all counters and error state; k is kept.
  void Reset() {
    counters_.clear();
    total_ = 0;
    min_count_when_full_ = 0;
  }

  /// Upper-bound estimate (0 if never tracked and table not yet full).
  count_t Estimate(item_t item) const;

  /// Maximum overestimation of any tracked item.
  count_t ErrorBound() const { return min_count_when_full_; }

  count_t TotalCount() const { return total_; }

  /// Tracked (item, estimate) pairs with estimate >= threshold, sorted by
  /// decreasing estimate.
  std::vector<std::pair<item_t, count_t>> Candidates(double threshold) const;

  std::size_t SpaceBytes() const {
    return counters_.size() * (sizeof(item_t) + 2 * sizeof(count_t));
  }

  /// Appends the versioned wire record: k header, error state, counters
  /// with their overestimate bounds.
  void Serialize(serde::Writer& out) const;

  /// Decodes one record; std::nullopt on truncated or corrupted input.
  static std::optional<SpaceSaving> Deserialize(serde::Reader& in);

 private:
  struct Cell {
    count_t count;
    count_t overestimate;  ///< count of the evicted item this one replaced
  };

  std::size_t k_;
  std::unordered_map<item_t, Cell> counters_;
  count_t total_ = 0;
  count_t min_count_when_full_ = 0;

  item_t FindMin() const;
};

SUBSTREAM_ASSERT_MERGEABLE_SUMMARY(SpaceSaving);

}  // namespace substream

#endif  // SUBSTREAM_SKETCH_SPACE_SAVING_H_
