#ifndef SUBSTREAM_SKETCH_COUNTMIN_H_
#define SUBSTREAM_SKETCH_COUNTMIN_H_

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

/// \file countmin.h
/// CountMin sketch (Cormode & Muthukrishnan [15]).
///
/// Theorem 6 of the paper runs CountMin on the sampled stream L with
/// remapped parameters (alpha', eps', delta') to recover the F1-heavy
/// hitters of the original stream P.
///
/// Counters live in a shared CounterTable (counter_table.h): flat row-major
/// storage with bucket selection derived from the one-per-item prehash
/// (util/hash.h) instead of per-row polynomial hashing — the scalar path
/// computes the prehash itself, the columnar path receives it, and both
/// produce bit-identical sketches.

namespace substream {

/// Parameters for a CountMin sketch.
struct CountMinParams {
  /// Additive error target: point queries err by at most eps * F1 with
  /// probability 1 - delta (per query).
  double epsilon = 0.01;
  /// Per-query failure probability.
  double delta = 0.01;
  /// If true, uses conservative update (only raises counters that must
  /// rise), which reduces overestimation for insert-only streams.
  bool conservative_update = false;
};

/// CountMin sketch with optional heavy-hitter candidate tracking.
///
/// Guarantees (standard, insert-only): Estimate(i) >= f_i always, and
/// Estimate(i) <= f_i + eps * F1 with probability >= 1 - delta.
class CountMinSketch {
 public:
  /// `options` picks the physical cell storage (cell_width.h); the default
  /// is the historical 64-bit layout. With the power-of-two option the
  /// effective width() is the requested width rounded up to 2^k.
  CountMinSketch(const CountMinParams& params, std::uint64_t seed,
                 CounterTableOptions options = {});

  /// Explicit geometry: depth rows x width counters.
  CountMinSketch(int depth, std::uint64_t width, bool conservative_update,
                 std::uint64_t seed, CounterTableOptions options = {});

  /// Adds `count` occurrences of `item`.
  void Update(item_t item, count_t count = 1) {
    Update(MakePrehashed(item), count);
  }

  /// Prehashed form of Update: the caller already computed the shared
  /// prehash, so only the cheap per-row derivations remain.
  void Update(const PrehashedItem& ph, count_t count = 1);

  /// Adds `n` already-prehashed elements (each with count 1). The columnar
  /// hot path: no hashing beyond the per-row remix, and bucket derivation
  /// reads only the hash column, through unit-stride SIMD kernels, while
  /// the counter table is walked row-major and cache-blocked.
  void UpdatePrehashed(PrehashedColumns cols, std::size_t n);

  /// Zeroes all counters; geometry, seed and hash derivations are kept.
  void Reset();

  /// Point estimate of the frequency of `item` (never underestimates).
  count_t Estimate(item_t item) const {
    return Estimate(MakePrehashed(item));
  }

  /// Prehashed point estimate.
  count_t Estimate(const PrehashedItem& ph) const { return table_.Min(ph); }

  /// Merges a sketch built with the same geometry and seed; afterwards this
  /// sketch summarizes the concatenation of both streams. Merging standard
  /// (non-conservative) sketches is exact; conservative-update sketches
  /// merge by counter-wise max-sum and may further overestimate. Cell
  /// widths may differ — this sketch promotes to the wider side — but the
  /// bucket-reduction mode (pow2 flag) and overflow policy must match.
  /// Decayed merge: with `weight` in (0, 1), every counter of `other`
  /// contributes `round(weight * counter)` (CountMin is linear, so the
  /// result is the sketch of the weight-scaled stream up to rounding).
  void Merge(const CountMinSketch& other, double weight = 1.0);
  /// True when Merge(other) preconditions hold, checked all the way
  /// down through nested summaries; the Collector uses this to reject
  /// decoded-but-incompatible records instead of tripping the abort.
  bool MergeCompatibleWith(const CountMinSketch& other) const;

  /// Total number of updates F1.
  count_t TotalCount() const { return total_; }

  int depth() const { return depth_; }
  std::uint64_t width() const { return width_; }
  std::uint64_t seed() const { return seed_; }
  /// Storage policy of the counter table. cell_width reflects the *base*
  /// level after any merge promotion.
  const CounterTableOptions& table_options() const {
    return table_.options();
  }

  /// Sketch memory footprint in bytes (counters + row seeds).
  std::size_t SpaceBytes() const;

  /// Health snapshot: geometry, counter-table fill/spill/saturation from a
  /// full scan, and the analytic (eps, delta) the geometry buys
  /// (obs::CountMinEpsilon/Delta). O(depth * width) — report-time only.
  obs::SummaryHealth Health() const;

  /// Appends the versioned wire record (serde/serde.h): geometry + seed
  /// header, then counters.
  void Serialize(serde::Writer& out) const;

  /// Decodes one record; std::nullopt on truncated or corrupted input.
  static std::optional<CountMinSketch> Deserialize(serde::Reader& in);

 private:
  int depth_;
  std::uint64_t width_;
  bool conservative_update_;
  std::uint64_t seed_;
  CounterTable<count_t> table_;
  count_t total_ = 0;
};

/// CountMin-based F1 heavy-hitter tracker: maintains the set of items whose
/// estimated frequency is at least `phi * TotalCount()` as the stream is
/// consumed (standard heap-based construction [15]).
class CountMinHeavyHitters {
 public:
  /// `phi` is the heavy-hitter fraction (alpha in Definition 4); the sketch
  /// resolves frequencies to within eps_resolution * phi * F1. `options`
  /// picks the nested sketch's cell storage.
  CountMinHeavyHitters(double phi, double eps_resolution, double delta,
                       std::uint64_t seed, CounterTableOptions options = {});

  void Update(item_t item, count_t count = 1) {
    Update(MakePrehashed(item), count);
  }

  /// Prehashed form: sketch add and candidate re-estimate share one
  /// prehash.
  void Update(const PrehashedItem& ph, count_t count = 1);

  /// Feeds `n` already-prehashed elements. Candidate tracking interleaves a
  /// read after every write, so this is a per-item loop over pairs rebuilt
  /// from the columns; sketch add and estimate reuse the caller's prehash.
  void UpdatePrehashed(PrehashedColumns cols, std::size_t n);

  /// Merges a tracker with the same phi, geometry and seed: sketches add
  /// (`weight`-scaled, for a decayed merge), candidate pools union with
  /// both sides re-estimated against the merged sketch, so an aged-out
  /// heavy hitter whose decayed estimate no longer clears the bar loses
  /// eviction contests naturally.
  void Merge(const CountMinHeavyHitters& other, double weight = 1.0);
  /// True when Merge(other) preconditions hold, checked all the way
  /// down through nested summaries; the Collector uses this to reject
  /// decoded-but-incompatible records instead of tripping the abort.
  bool MergeCompatibleWith(const CountMinHeavyHitters& other) const;

  /// Clears sketch counters and the candidate pool.
  void Reset();

  /// Items whose estimated frequency >= threshold_fraction * F1, with their
  /// estimates, sorted by decreasing estimate. Pass phi to get the heavy
  /// hitters; a slightly smaller fraction widens the net.
  std::vector<std::pair<item_t, count_t>> Candidates(
      double threshold_fraction) const;

  count_t TotalCount() const { return sketch_.TotalCount(); }

  const CountMinSketch& sketch() const { return sketch_; }

  std::size_t SpaceBytes() const;

  /// Appends the versioned wire record: phi/capacity header, the nested
  /// sketch record, then the candidate pool.
  void Serialize(serde::Writer& out) const;

  /// Decodes one record; std::nullopt on truncated or corrupted input.
  static std::optional<CountMinHeavyHitters> Deserialize(serde::Reader& in);

 private:
  double phi_;
  CountMinSketch sketch_;
  // Candidate pool: item -> last estimate, capacity ceil(8/phi) + 16.
  CandidatePool<count_t> candidates_;
};

SUBSTREAM_ASSERT_MERGEABLE_SUMMARY(CountMinSketch);
SUBSTREAM_ASSERT_MERGEABLE_SUMMARY(CountMinHeavyHitters);

}  // namespace substream

#endif  // SUBSTREAM_SKETCH_COUNTMIN_H_
