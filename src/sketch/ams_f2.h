#ifndef SUBSTREAM_SKETCH_AMS_F2_H_
#define SUBSTREAM_SKETCH_AMS_F2_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "sketch/sketch.h"
#include "util/common.h"
#include "util/hash.h"

/// \file ams_f2.h
/// AMS "tug-of-war" second-moment sketch (Alon, Matias, Szegedy [1]).
///
/// This is the substrate of the Rusu–Dobra baseline [34]: estimate F2(L)
/// with an AMS sketch and unbias analytically. It is also used as a
/// standalone (1+eps, delta) F2 estimator in tests.

namespace substream {

/// Median-of-means AMS sketch: `groups` x `per_group` independent atomic
/// estimators, each Z_j = sum_i s_j(i) f_i with 4-wise independent signs;
/// E[Z^2] = F2, Var[Z^2] <= 2 F2^2.
class AmsF2Sketch {
 public:
  /// (1+eps, delta) estimator: per_group = O(1/eps^2), groups = O(log 1/delta).
  AmsF2Sketch(double epsilon, double delta, std::uint64_t seed);

  /// Explicit geometry (named factory to avoid overload ambiguity with the
  /// accuracy-driven constructor).
  static AmsF2Sketch WithGeometry(std::size_t groups, std::size_t per_group,
                                  std::uint64_t seed);

  void Update(item_t item, std::int64_t count = 1);

  /// Feeds `n` already-prehashed elements, estimator-major: each atomic
  /// estimator accumulates its signed sum over the whole item column in a
  /// register before touching the counter array. The 4-wise-independent
  /// sign hashes need the raw identity (independence is what the variance
  /// bound uses), so the hash column is unused here.
  void UpdatePrehashed(PrehashedColumns cols, std::size_t n);

  /// Zeroes all counters; geometry, seed and sign hashes are kept.
  void Reset();

  /// Median-of-means estimate of F2.
  double Estimate() const;

  /// Merges a sketch with the same geometry and seed (linearity).
  void Merge(const AmsF2Sketch& other);
  /// True when Merge(other) preconditions hold, checked all the way
  /// down through nested summaries; the Collector uses this to reject
  /// decoded-but-incompatible records instead of tripping the abort.
  bool MergeCompatibleWith(const AmsF2Sketch& other) const;

  count_t TotalCount() const { return total_; }

  std::size_t groups() const { return groups_; }
  std::size_t per_group() const { return per_group_; }
  std::uint64_t seed() const { return seed_; }

  std::size_t SpaceBytes() const;

  /// Appends the versioned wire record: geometry + seed header, then
  /// counters.
  void Serialize(serde::Writer& out) const;

  /// Decodes one record; std::nullopt on truncated or corrupted input.
  static std::optional<AmsF2Sketch> Deserialize(serde::Reader& in);

 private:
  struct GeometryTag {};
  AmsF2Sketch(GeometryTag, std::size_t groups, std::size_t per_group,
              std::uint64_t seed);

  std::size_t groups_;
  std::size_t per_group_;
  std::uint64_t seed_;
  std::vector<std::int64_t> counters_;  // groups * per_group
  std::vector<PolynomialHash> sign_hashes_;
  count_t total_ = 0;
};

SUBSTREAM_ASSERT_MERGEABLE_SUMMARY(AmsF2Sketch);

}  // namespace substream

#endif  // SUBSTREAM_SKETCH_AMS_F2_H_
