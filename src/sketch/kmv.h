#ifndef SUBSTREAM_SKETCH_KMV_H_
#define SUBSTREAM_SKETCH_KMV_H_

#include <cstdint>
#include <optional>
#include <set>

#include "sketch/sketch.h"
#include "util/common.h"
#include "util/hash.h"

/// \file kmv.h
/// K-Minimum-Values distinct counter (Bar-Yossef et al.).
///
/// Algorithm 2 of the paper needs any streaming (1/2, delta)-estimator of
/// F0(L); KMV with k = O(1/eps^2) gives a (1+eps, delta) estimator, far
/// stronger than required. The lower bound of Theorem 4 shows the dominant
/// error is the sampling itself, not this sketch.
///
/// Hash values derive from the shared prehash (one seeded remix of the
/// per-item PreHash). The derivation is a bijection of the item identity,
/// so — unlike the former polynomial hash — two distinct items can never
/// collide on a retained value.

namespace substream {

/// Keeps the k smallest hash values of the distinct items seen.
/// Estimate: (k - 1) / v_k where v_k is the k-th smallest normalized hash.
class KmvSketch {
 public:
  KmvSketch(std::size_t k, std::uint64_t seed);

  void Update(item_t item) { Update(MakePrehashed(item)); }

  /// Prehashed form of Update: one remix, no further hashing.
  void Update(const PrehashedItem& ph);

  /// Weighted-update form of the contract: KMV is frequency-insensitive,
  /// so any positive count is a single distinct observation.
  void Update(item_t item, count_t count) {
    SUBSTREAM_CHECK(count >= 1);
    Update(item);
  }

  /// Feeds `n` already-prehashed elements; value derivation only reads the
  /// hash column.
  void UpdatePrehashed(PrehashedColumns cols, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) Update(cols.At(i));
  }

  /// Forgets all observed values; k and seed are kept.
  void Reset() { values_.clear(); }

  /// Estimated number of distinct items. Exact while fewer than k distinct
  /// hashes have been observed.
  double Estimate() const;

  /// Merges a sketch with the same k and seed: keeps the k smallest hash
  /// values of the union (the standard KMV union rule).
  void Merge(const KmvSketch& other);
  /// True when Merge(other) preconditions hold, checked all the way
  /// down through nested summaries; the Collector uses this to reject
  /// decoded-but-incompatible records instead of tripping the abort.
  bool MergeCompatibleWith(const KmvSketch& other) const;

  std::size_t k() const { return k_; }
  std::uint64_t seed() const { return seed_; }
  /// Number of retained hash values (== min(k, distinct observed)); the
  /// health report's fill ratio for a KMV summary is size()/k().
  std::size_t size() const { return values_.size(); }

  std::size_t SpaceBytes() const {
    return values_.size() * sizeof(std::uint64_t) + sizeof(*this);
  }

  /// Appends the versioned wire record: k + seed header, then the retained
  /// hash values in increasing order.
  void Serialize(serde::Writer& out) const;

  /// Decodes one record; std::nullopt on truncated or corrupted input.
  static std::optional<KmvSketch> Deserialize(serde::Reader& in);

 private:
  std::size_t k_;
  std::uint64_t seed_;
  std::set<std::uint64_t> values_;  // k smallest distinct hash values
};

SUBSTREAM_ASSERT_MERGEABLE_SUMMARY(KmvSketch);

}  // namespace substream

#endif  // SUBSTREAM_SKETCH_KMV_H_
