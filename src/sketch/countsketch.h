#ifndef SUBSTREAM_SKETCH_COUNTSKETCH_H_
#define SUBSTREAM_SKETCH_COUNTSKETCH_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "obs/health.h"
#include "sketch/candidate_pool.h"
#include "sketch/cell_width.h"
#include "sketch/counter_table.h"
#include "sketch/sketch.h"
#include "util/common.h"
#include "util/hash.h"

/// \file countsketch.h
/// CountSketch (Charikar, Chen, Farach-Colton [8]).
///
/// Used in three places: the Monitor's F2 is one CountSketch on L, read
/// through its row-norm F2 estimate; Theorem 7 runs CountSketch on L to
/// find F2-heavy hitters of P; and the Indyk–Woodruff level-set machinery
/// (Theorem 2) runs one CountSketch per subsampling level to recover
/// level-set members.
///
/// Buckets come from the shared prehash stage through a CounterTable
/// (counter_table.h); signs keep their per-row 4-wise-independent
/// PolynomialHash — the F2 variance bound genuinely needs the independence,
/// while bucket selection only needs uniformity. On AVX2/AVX-512 dispatch
/// levels (sketch/counter_kernels.h) the batched UpdatePrehashed path runs
/// both derivations lane-parallel over item micro-blocks, bit-identically
/// to the scalar PolynomialHash path; per-item operations stay scalar at
/// every level (a per-item lanes-across-rows panel loses to store-to-load
/// forwarding stalls at real depths).

namespace substream {

/// CountSketch with point queries, an F2 estimate from row norms, and
/// optional heavy-hitter candidate tracking.
///
/// Point query error: |Estimate(i) - f_i| <= c * sqrt(F2 / width) with
/// constant probability per row; the median over `depth` rows amplifies to
/// failure probability exp(-Omega(depth)).
class CountSketch {
 public:
  /// `cell_width` picks the physical cell storage (cell_width.h); narrow
  /// cells hold *signed* counters (stop pattern at max-positive).
  CountSketch(int depth, std::uint64_t width, std::uint64_t seed,
              CellWidth cell_width = CellWidth::k64);

  void Update(item_t item, std::int64_t count = 1) {
    Update(MakePrehashed(item), count);
  }

  /// Prehashed form of Update: buckets derive from `ph.hash`, signs from
  /// `ph.item` (the polynomial sign hashes need the raw identity).
  void Update(const PrehashedItem& ph, std::int64_t count = 1);

  /// Fused add + point estimate (the estimate reflects the add, exactly as
  /// Update followed by Estimate would): one bucket and one sign
  /// derivation per row serve both. Scalar at every dispatch level; the
  /// per-item level-set Update is its caller.
  double UpdateAndEstimate(const PrehashedItem& ph, std::int64_t count);

  /// Adds `n` already-prehashed elements (each with count 1), row-major and
  /// cache-blocked: per row the counter pointer, row seed and sign hash are
  /// hoisted, so the inner loop is one remix, one sign evaluation and an
  /// add. Buckets derive from the hash column, signs from the item column,
  /// both through unit-stride SIMD kernels; the replay order — and hence
  /// the FP row-norm stream — is the stream order at every dispatch level.
  void UpdatePrehashed(PrehashedColumns cols, std::size_t n);

  /// Zeroes all counters and row norms; geometry and hashes are kept.
  void Reset();

  /// Median-of-rows point estimate of the (signed) frequency of `item`.
  double Estimate(item_t item) const {
    return Estimate(MakePrehashed(item));
  }

  /// Prehashed point estimate.
  double Estimate(const PrehashedItem& ph) const;

  /// Merges a sketch built with the same geometry and seed (linearity of
  /// CountSketch: the merged sketch equals the sketch of the concatenated
  /// streams exactly). Decayed merge: with `weight` in (0, 1), every
  /// counter of `other` contributes `round(weight * counter)`, so the
  /// result is (up to rounding) the sketch of the weight-scaled stream —
  /// including the cross terms a per-window F2 combination would miss. Row
  /// norms are recomputed from the merged counters.
  void Merge(const CountSketch& other, double weight = 1.0);
  /// True when Merge(other) preconditions hold, checked all the way
  /// down through nested summaries; the Collector uses this to reject
  /// decoded-but-incompatible records instead of tripping the abort.
  bool MergeCompatibleWith(const CountSketch& other) const;

  /// Median over rows of the row L2^2: an 8-approximation of F2 with
  /// constant probability per row, amplified by the median (standard
  /// CountSketch norm estimation; each row's sum of squared counters has
  /// expectation F2).
  double EstimateF2() const;

  /// Number of updates consumed (signed counts summed).
  std::int64_t TotalCount() const { return total_; }

  int depth() const { return depth_; }
  std::uint64_t width() const { return width_; }
  std::uint64_t seed() const { return seed_; }
  /// Base cell width of the counter table, after any merge promotion.
  CellWidth cell_width() const { return table_.cell_width(); }

  std::size_t SpaceBytes() const;

  /// Health snapshot: geometry, counter-table fill/spill from a
  /// full scan, and the analytic (eps, delta) the geometry buys
  /// (obs::CountSketchEpsilon/Delta). O(depth * width) — report-time only.
  obs::SummaryHealth Health() const;

  /// Appends the versioned wire record: geometry + seed header, row norms,
  /// then counters.
  void Serialize(serde::Writer& out) const;

  /// Decodes one record; std::nullopt on truncated or corrupted input.
  static std::optional<CountSketch> Deserialize(serde::Reader& in);

 private:
  int depth_;
  std::uint64_t width_;
  std::uint64_t seed_;
  CounterTable<std::int64_t> table_;
  // Running sum of squared counters per row, maintained incrementally so
  // EstimateF2() costs O(depth) instead of O(depth * width). The level-set
  // machinery reads it after every update, the Monitor at every Report().
  std::vector<double> row_sumsq_;
  std::vector<PolynomialHash> sign_hashes_;
  std::int64_t total_ = 0;

  /// Rebuilds row_sumsq_ from the (possibly multi-level) counters in
  /// ascending bucket order — the order the 64-bit merge loops accumulate
  /// in, so merged norms are bit-equal across storage widths.
  void RecomputeRowNorms();
};

/// CountSketch-based F2 heavy-hitter tracker: maintains candidates whose
/// estimated frequency clears phi * sqrt(F2-estimate).
class CountSketchHeavyHitters {
 public:
  /// `phi`: F2-heavy fraction (item is heavy when f_i >= phi * sqrt(F2)).
  /// `eps_resolution`: relative precision of the recovered frequencies.
  /// `cell_width` picks the nested sketch's cell storage.
  CountSketchHeavyHitters(double phi, double eps_resolution, double delta,
                          std::uint64_t seed,
                          CellWidth cell_width = CellWidth::k64);

  void Update(item_t item, count_t count = 1) {
    Update(MakePrehashed(item), count);
  }

  /// Prehashed form: sketch add and candidate re-estimate share one
  /// prehash.
  void Update(const PrehashedItem& ph, count_t count = 1);

  /// Feeds `n` already-prehashed elements. Candidate tracking interleaves a
  /// read after every write, so this is a per-item loop over pairs rebuilt
  /// from the columns.
  void UpdatePrehashed(PrehashedColumns cols, std::size_t n);

  /// Merges a tracker with the same phi, geometry and seed: sketches add
  /// (`weight`-scaled, for a decayed merge), candidate pools union with
  /// both sides re-estimated against the merged sketch.
  void Merge(const CountSketchHeavyHitters& other, double weight = 1.0);
  /// True when Merge(other) preconditions hold, checked all the way
  /// down through nested summaries; the Collector uses this to reject
  /// decoded-but-incompatible records instead of tripping the abort.
  bool MergeCompatibleWith(const CountSketchHeavyHitters& other) const;

  /// Clears sketch counters and the candidate pool.
  void Reset();

  /// Items whose estimate >= threshold_phi * sqrt(EstimateF2()), sorted by
  /// decreasing estimate.
  std::vector<std::pair<item_t, double>> Candidates(double threshold_phi) const;

  const CountSketch& sketch() const { return sketch_; }

  std::size_t SpaceBytes() const;

  /// Appends the versioned wire record: phi/capacity header, the nested
  /// sketch record, then the candidate pool.
  void Serialize(serde::Writer& out) const;

  /// Decodes one record; std::nullopt on truncated or corrupted input.
  static std::optional<CountSketchHeavyHitters> Deserialize(serde::Reader& in);

 private:
  double phi_;
  CountSketch sketch_;
  // Candidate pool: item -> last estimate, capacity ceil(8/phi^2) + 16.
  CandidatePool<double> candidates_;
  count_t updates_ = 0;
};

SUBSTREAM_ASSERT_MERGEABLE_SUMMARY(CountSketch);
SUBSTREAM_ASSERT_MERGEABLE_SUMMARY(CountSketchHeavyHitters);

}  // namespace substream

#endif  // SUBSTREAM_SKETCH_COUNTSKETCH_H_
