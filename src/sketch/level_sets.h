#ifndef SUBSTREAM_SKETCH_LEVEL_SETS_H_
#define SUBSTREAM_SKETCH_LEVEL_SETS_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sketch/candidate_pool.h"
#include "sketch/countsketch.h"
#include "sketch/sketch.h"
#include "util/common.h"
#include "util/hash.h"

/// \file level_sets.h
/// Indyk–Woodruff level-set frequency-moment machinery [27], the black box
/// of Theorem 2 in the paper.
///
/// Frequencies of the consumed stream are bucketed into geometric level
/// sets S_i = { j : eta (1+eps')^i <= g_j < eta (1+eps')^{i+1} }. The
/// structure estimates level-set sizes s~_i; downstream, Algorithm 1 turns
/// them into collision estimates C~_l = sum_i s~_i * C(eta (1+eps')^i, l).
///
/// Sketch implementation: items are assigned a geometric depth by hashing
/// (depth(j) = trailing zeros of a tabulation hash), giving nested
/// substreams L_0 ⊇ L_1 ⊇ ..., each holding every occurrence of the items
/// it retains — so item frequencies are preserved in the substream where
/// the item survives. Each substream runs a CountSketch with candidate
/// tracking. A level set is read off at the depth where its members are
/// F2-heavy in their substream; the surviving-member count is scaled by
/// 2^depth. See Theorem 2 and Lemma 6 of the paper; constants are knobs
/// here because the paper leaves them inside Õ(·).

namespace substream {

/// One estimated level set.
struct LevelSetEstimate {
  int level = 0;        ///< i (or the integer frequency for integer bins)
  double value = 0.0;   ///< representative frequency of the level
  double size = 0.0;    ///< s~_i
  int depth = 0;        ///< subsampling depth the set was read at
  /// True for the small-frequency integer bins (g <= integer_bin_max):
  /// C(g, l) is non-smooth near g = l, so small frequencies are binned at
  /// exact integers instead of geometric boundaries (see .cc commentary).
  bool integer_bin = false;
};

/// Configuration of the Indyk–Woodruff structure.
struct LevelSetParams {
  /// Geometric ratio of level boundaries is (1 + eps_prime).
  double eps_prime = 0.25;
  /// Number of nested subsampling depths (0 .. max_depth). Depth d holds an
  /// expected 2^{-d} fraction of the item universe.
  int max_depth = 20;
  /// CountSketch rows per depth.
  int cs_depth = 5;
  /// CountSketch width (buckets per row) per depth. This is the 1/gamma
  /// space knob: Theorem 1 sets it to O~(p^{-1} m^{1-2/k}).
  std::uint64_t cs_width = 1024;
  /// An item with estimate g^ at depth t is deemed recoverable (heavy) when
  /// g^2 >= heavy_factor * F2_t / cs_width.
  double heavy_factor = 4.0;
  /// Maximum number of tracked candidates per depth (defaults to a multiple
  /// of cs_width when 0).
  std::size_t candidate_capacity = 0;
  /// Frequencies up to this value are tracked in exact integer bins;
  /// geometric levels start above. C(g, l) jumps from 0 to 1 at g = l, so
  /// geometric rounding there has unbounded relative error.
  int integer_bin_max = 8;
  /// Per-depth exact-count capacity: while a substream holds at most this
  /// many distinct items, it is counted exactly (sparse recovery, as in the
  /// original Indyk–Woodruff construction) instead of via CountSketch.
  /// 0 derives 2 * cs_width.
  std::size_t exact_capacity = 0;
  /// Physical cell width of the per-depth CountSketch counters
  /// (cell_width.h). Narrow cells spill into wider overflow levels, so
  /// estimates are unchanged; deep, sparse substreams rarely spill and the
  /// table footprint shrinks up to 8x.
  CellWidth cell_width = CellWidth::k64;
};

/// Sketch-mode level-set estimator (Indyk–Woodruff).
class IndykWoodruffEstimator {
 public:
  IndykWoodruffEstimator(const LevelSetParams& params, std::uint64_t seed);

  void Update(item_t item) { Update(MakePrehashed(item)); }

  /// Prehashed form of Update: depth routing still uses the tabulation
  /// hash on the raw identity (hierarchical subsampling wants its per-bit
  /// uniformity), but every per-depth CountSketch add and candidate
  /// re-estimate reuses the caller's prehash.
  void Update(const PrehashedItem& ph) { Update(ph, 1); }

  /// Weighted form: one occurrence carrying `count` units, exactly as if
  /// the item appeared `count` times back to back (the per-depth
  /// CountSketch adds are linear, exact maps add `count`, candidate
  /// re-estimation sees the final estimate). This is the sampled-ingest
  /// (NitroSketch-mode) entry: survivors of Bernoulli(p) admission arrive
  /// with the unbiased correction weight round(1/p). This per-item path is
  /// the reference the column path below is pinned against.
  void Update(const PrehashedItem& ph, count_t count);

  /// Column ingest, each item carrying `weight` units; the resulting state
  /// (counters, row norms, exact maps, candidate pools) is byte-identical
  /// to n per-item Update(cols.At(i), weight) calls. Per chunk of up to
  /// kPrehashChunkItems items the depth column is computed once and
  /// stable-filtered into nested per-depth sub-columns (depth t holds the
  /// items of depth >= t, in stream order); each depth then runs one
  /// column CountSketch::UpdateAndEstimate and replays the exact-map adds
  /// and candidate tracking in stream order from the per-item estimates it
  /// returns. Depth slots share no state, so the depth-major order inside
  /// a chunk is unobservable.
  void UpdatePrehashed(PrehashedColumns cols, std::size_t n,
                       count_t weight = 1);

  /// Clears all per-depth sketches, candidate pools and exact maps;
  /// parameters, eta and hash functions are kept.
  void Reset();

  /// Estimated level sets with nonzero size, in increasing level order.
  std::vector<LevelSetEstimate> EstimateLevelSets() const;

  /// C~_l of the consumed stream: sum_i s~_i * C(v_i, l).
  double EstimateCollisions(int l) const;

  /// Direct moment estimate sum_i s~_i * v_i^k (classic IW usage).
  double EstimateMoment(int k) const;

  /// Merges a structure built with the same parameters and seed (same
  /// depth hash, level boundaries and CountSketch seeds): per-depth
  /// sketches add linearly; candidate pools union with re-estimation.
  /// Decayed merge: with `weight` in (0, 1), per-depth CountSketches merge
  /// with `weight`-scaled counters (linear, so the result sketches the
  /// weight-scaled stream up to rounding) and exact maps add rounded
  /// scaled counts (entries rounding to zero age out).
  void Merge(const IndykWoodruffEstimator& other, double weight = 1.0);
  /// True when Merge(other) preconditions hold, checked all the way
  /// down through nested summaries; the Collector uses this to reject
  /// decoded-but-incompatible records instead of tripping the abort.
  bool MergeCompatibleWith(const IndykWoodruffEstimator& other) const;

  /// Number of stream elements consumed.
  count_t ConsumedLength() const { return total_; }

  double eta() const { return eta_; }
  const LevelSetParams& params() const { return params_; }
  std::uint64_t seed() const { return seed_; }

  std::size_t SpaceBytes() const;

  /// Aggregated health of the per-depth CountSketch tables: cell counts
  /// summed across all subsampling depths, (eps, delta) from the per-depth
  /// geometry. O(max_depth * cs_depth * cs_width) — report-time only.
  obs::SummaryHealth Health() const;

  /// Appends the versioned wire record: full LevelSetParams + seed header
  /// (eta and the depth hash re-derive from the seed), then per-depth
  /// nested CountSketch records, candidate pools and exact maps.
  void Serialize(serde::Writer& out) const;

  /// Decodes one record; std::nullopt on truncated or corrupted input.
  static std::optional<IndykWoodruffEstimator> Deserialize(serde::Reader& in);

 private:
  struct DepthSlot {
    CountSketch sketch;
    CandidatePool<double> candidates;
    // Exact per-item counts while the substream is sparse enough; cleared
    // and marked invalid on overflow. Deep substreams stay sparse, which
    // is exactly where CountSketch point noise would otherwise corrupt
    // small-frequency levels.
    std::unordered_map<item_t, count_t> exact;
    bool exact_valid = true;
  };

  LevelSetParams params_;
  std::uint64_t seed_;
  double eta_;
  TabulationHash depth_hash_;
  std::vector<DepthSlot> depths_;
  std::size_t candidate_capacity_;
  std::size_t exact_capacity_;
  count_t total_ = 0;

  int DepthOf(item_t item) const;
  /// One chunk (n <= kPrehashChunkItems) of the column path.
  void UpdateChunk(PrehashedColumns cols, std::size_t n, count_t count);
  /// The per-depth step after the sketch add: exact-map add, then
  /// candidate tracking against 0.5 * heavy_factor * f2 / cs_width, where
  /// `estimate` and `f2` are the sketch's post-add readings.
  void RecordAdd(DepthSlot& slot, item_t item, count_t count, double estimate,
                 double f2);
  /// Representative frequency of a level given its lower boundary.
  double LevelMidValue(double lower_boundary) const;
};

/// Reference-mode level sets: exact frequencies via a hash map, identical
/// level-set discretization. Separates discretization error (the (1+eps')
/// rounding) from sketch recovery error in tests and experiments.
class ExactLevelSets {
 public:
  /// `eta` in (0,1]; pass the same value as the sketch under test to make
  /// the discretizations comparable.
  ExactLevelSets(double eps_prime, double eta);

  void Update(item_t item) { Update(item, 1); }

  /// Weighted form: `count` occurrences at once (sampled-ingest survivors).
  void Update(item_t item, count_t count);

  /// Feeds `n` already-prehashed elements (exact counts never consume the
  /// prehash; scalar fallback keeps the paths bit-identical).
  void UpdatePrehashed(PrehashedColumns cols, std::size_t n) {
    UpdatePrehashedColsByLoop(*this, cols, n);
  }

  /// Merges another reference structure with identical discretization
  /// (same eps_prime and eta): exact counts add pointwise, as
  /// `round(weight * count)` for a decayed merge (entries rounding to zero
  /// age out of the map entirely).
  void Merge(const ExactLevelSets& other, double weight = 1.0);
  /// True when Merge(other) preconditions hold, checked all the way
  /// down through nested summaries; the Collector uses this to reject
  /// decoded-but-incompatible records instead of tripping the abort.
  bool MergeCompatibleWith(const ExactLevelSets& other) const;

  /// Forgets all counts; discretization parameters are kept.
  void Reset() {
    counts_.clear();
    total_ = 0;
  }

  std::vector<LevelSetEstimate> EstimateLevelSets() const;

  /// Discretized collision count sum_i |S_i| * C(v_i, l).
  double EstimateCollisions(int l) const;

  /// Exact collision count sum_j C(g_j, l) of the consumed stream.
  double ExactCollisions(int l) const;

  /// Exact moment sum_j g_j^k.
  double ExactMoment(int k) const;

  count_t ConsumedLength() const { return total_; }
  double eta() const { return eta_; }
  double eps_prime() const { return eps_prime_; }

  std::size_t SpaceBytes() const {
    return counts_.size() * (sizeof(item_t) + sizeof(count_t));
  }

  /// Appends the versioned wire record: discretization header (eps', eta),
  /// then the exact frequency map.
  void Serialize(serde::Writer& out) const;

  /// Decodes one record; std::nullopt on truncated or corrupted input.
  static std::optional<ExactLevelSets> Deserialize(serde::Reader& in);

 private:
  double eps_prime_;
  double eta_;
  std::unordered_map<item_t, count_t> counts_;
  count_t total_ = 0;
};

SUBSTREAM_ASSERT_MERGEABLE_SUMMARY(IndykWoodruffEstimator);
SUBSTREAM_ASSERT_MERGEABLE_SUMMARY(ExactLevelSets);

/// Level index of frequency g for boundaries eta (1+eps')^i:
/// the unique i >= 0 with eta (1+eps')^i <= g < eta (1+eps')^{i+1}.
int LevelIndex(double g, double eta, double eps_prime);

/// Draws the random boundary offset eta from `seed`, uniform in [1/4, 1).
/// (The paper draws eta from (0,1) and conditions on eta not being tiny;
/// the clamp implements that conditioning deterministically.)
double DrawEta(std::uint64_t seed);

}  // namespace substream

#endif  // SUBSTREAM_SKETCH_LEVEL_SETS_H_
