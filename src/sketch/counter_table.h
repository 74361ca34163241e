#ifndef SUBSTREAM_SKETCH_COUNTER_TABLE_H_
#define SUBSTREAM_SKETCH_COUNTER_TABLE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"
#include "sketch/cell_width.h"
#include "sketch/counter_kernels.h"
#include "sketch/sketch.h"
#include "util/common.h"
#include "util/hash.h"
#include "util/simd.h"

/// \file counter_table.h
/// The shared counter substrate of the counter-array sketches (CountMin,
/// CountSketch, and the per-depth sketches inside the level-set machinery).
///
/// Storage is a single flat row-major array of `depth * width` counters —
/// no per-row vector indirection — and bucket selection runs through the
/// shared prehash stage (util/hash.h): one RemixHash with a per-row seed
/// plus a branch-free FastRange64 reduction (or a mask, for tables built
/// with the power-of-two width option), instead of a per-row
/// k-wise-independent polynomial evaluation and a `%`. Batched adds are
/// cache-blocked: the prehashed column is consumed in L1-sized blocks so
/// every row pass re-reads a resident block instead of streaming the whole
/// column `depth` times from L2/DRAM.
///
/// ## Compact cells and overflow-spill promotion
///
/// The physical cell width is a runtime storage policy (CounterTableOptions,
/// cell_width.h): the base level holds 8-, 16-, 32- or 64-bit cells behind
/// the unchanged 64-bit logical interface. A narrow cell that can no longer
/// represent its counter spills its value into the next-wider overflow
/// level, allocated lazily on first spill; a cell's logical value is the sum
/// of its level entries, so estimates stay bit-identical to a 64-bit-cell
/// table fed the same stream (all level arithmetic is mod-2^64 exact). The
/// saturating policy clamps at the base level instead and never allocates
/// overflow levels. Narrow unit increments run against a *stop pattern*
/// (all-ones unsigned, max-positive signed): a cell at the stop value takes
/// the cold spill path, every other cell is one raw-pattern increment.
///
/// The batched bucket derivations dispatch through the SIMD kernel layer
/// (sketch/counter_kernels.h): on AVX2/AVX-512 hosts AddPrehashed runs the
/// remix + reduction math 4/8 lanes wide into a stack-resident index
/// buffer and replays the increments from it in stream order, and the
/// scalar dispatch level keeps the fused loop as the portable reference.
/// All paths produce bit-identical counters — including identical physical
/// spill state, because spills only ever happen in stream order. Per-item
/// operations stay scalar at every level (see Add for why a per-item panel
/// loses).
///
/// The table deliberately knows nothing about signs, norms or candidate
/// pools; sketches that need them (CountSketch) keep those alongside and
/// drive the table through Row()/BucketOf() (64-bit base) or
/// AtFlat()/AddAtFlat() (any base).

namespace substream {

/// Cell-level health tallies from one table scan (see HealthCounts()).
struct TableHealthCounts {
  std::size_t cells = 0;      ///< total base cells (depth * width)
  std::size_t nonzero = 0;    ///< cells with a nonzero logical value
  std::size_t spilled = 0;    ///< cells with a nonzero overflow-level entry
  std::size_t saturated = 0;  ///< base cells pinned at the clamp pattern
};

namespace table_telemetry {

/// Cached registry handles for the CounterTable cold paths, shared across
/// all CounterT instantiations. All three sit on spill/clamp/allocation
/// branches — never in the per-item increment loops.
inline obs::Counter& SpillPromotions() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "substream_sketch_spill_promotions_total",
      "Counter cells promoted into a wider overflow level");
  return counter;
}

inline obs::Counter& OverflowLevelAllocs() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "substream_sketch_overflow_level_allocs_total",
      "Lazy allocations of an overflow level above the base cell width");
  return counter;
}

inline obs::Counter& SaturatedClamps() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "substream_sketch_saturated_clamps_total",
      "Adds clamped or dropped at a saturated cell (kSaturate policy)");
  return counter;
}

}  // namespace table_telemetry

/// Flat depth x width counter matrix with prehash-derived bucket selection.
template <typename CounterT>
class CounterTable {
 public:
  /// Items per cache block of the batched add loops: 16 KiB of prehashed
  /// column, small enough to stay L1-resident across all row passes.
  static constexpr std::size_t kBlockItems = 1024;

  /// Upper bound on rows, matching the serde decoders' geometry validation;
  /// lets readout paths keep per-row scratch on the stack.
  static constexpr int kMaxDepth = 64;

  CounterTable(int depth, std::uint64_t width, std::uint64_t seed,
               CounterTableOptions options = {})
      : depth_(depth), width_(width), options_(options) {
    SUBSTREAM_CHECK(depth >= 1 && depth <= kMaxDepth);
    SUBSTREAM_CHECK(width >= 1);
    if (options_.pow2_width) {
      width_ = RoundUpPow2(width_);
      mask_ = width_ - 1;
    }
    row_seeds_.reserve(static_cast<std::size_t>(depth));
    // Even indices, matching CountSketch's historical bucket/sign split so
    // a table row seed can never collide with a sibling sign-hash seed.
    for (int r = 0; r < depth; ++r) {
      row_seeds_.push_back(DeriveSeed(seed, 2 * static_cast<std::uint64_t>(r)));
    }
    EnsureLevelAllocated(options_.cell_width);
  }

  int depth() const { return depth_; }
  /// Bucket count per row. With the power-of-two option this is the
  /// *rounded* width, which is what merges compare and serde records.
  std::uint64_t width() const { return width_; }

  const CounterTableOptions& options() const { return options_; }
  CellWidth cell_width() const { return options_.cell_width; }
  bool pow2_width() const { return options_.pow2_width; }
  OverflowPolicy overflow() const { return options_.overflow; }

  /// Bucket of `prehash` in row `row`: seeded remix + fast-range (or mask).
  /// Mask placement differs from fast-range placement even at equal
  /// power-of-two widths, so the pow2 flag is part of merge compatibility.
  std::uint64_t BucketOf(int row, std::uint64_t prehash) const {
    const std::uint64_t h =
        RemixHash(prehash, row_seeds_[static_cast<std::size_t>(row)]);
    return options_.pow2_width ? (h & mask_) : FastRange64(h, width_);
  }

  /// Direct row access into the 64-bit level. Only meaningful on tables
  /// with a 64-bit base (the default); narrow-base callers go through
  /// AtFlat()/AddAtFlat().
  CounterT* Row(int row) {
    return cells_.data() + static_cast<std::size_t>(row) * width_;
  }
  const CounterT* Row(int row) const {
    return cells_.data() + static_cast<std::size_t>(row) * width_;
  }

  std::uint64_t row_seed(int row) const {
    return row_seeds_[static_cast<std::size_t>(row)];
  }

  /// Flat cell index of (row, bucket) in row-major order.
  std::size_t FlatIndex(int row, std::uint64_t bucket) const {
    return static_cast<std::size_t>(row) * width_ + bucket;
  }

  std::size_t NumCells() const {
    return static_cast<std::size_t>(depth_) * width_;
  }

  /// Logical counter value at flat index `i`: the mod-2^64 sum of the
  /// allocated level entries (sign-extended for signed CounterT).
  CounterT AtFlat(std::size_t i) const {
    if (options_.cell_width == CellWidth::k64) {
      return cells_[i];
    }
    std::uint64_t sum = LevelValueBits(options_.cell_width, i);
    if (has_upper_) {
      for (int w = static_cast<int>(options_.cell_width) + 1;
           w <= static_cast<int>(CellWidth::k64); ++w) {
        const CellWidth cw = static_cast<CellWidth>(w);
        if (LevelAllocated(cw)) sum += LevelValueBits(cw, i);
      }
    }
    return static_cast<CounterT>(sum);
  }

  /// Adds `delta` to the logical counter at flat index `i`, spilling or
  /// saturating per the overflow policy. All arithmetic is mod-2^64 in
  /// uint64, so the total across levels always equals what a 64-bit cell
  /// would hold — including when the 64-bit reference itself wraps.
  void AddAtFlat(std::size_t i, CounterT delta) {
    if (delta == CounterT{}) return;
    std::uint64_t carry = static_cast<std::uint64_t>(delta);
    for (int w = static_cast<int>(options_.cell_width);
         w < static_cast<int>(CellWidth::k64); ++w) {
      const CellWidth cw = static_cast<CellWidth>(w);
      const std::uint64_t sum = LevelValueBits(cw, i) + carry;
      if (FitsLevel(sum, cw)) {
        SetLevelCell(cw, i, sum);
        return;
      }
      if (options_.overflow == OverflowPolicy::kSaturate) {
        SetLevelCell(cw, i, ClampLevel(sum, cw));
        table_telemetry::SaturatedClamps().Inc();
        return;
      }
      // Spill: this level drops to zero and the whole sum moves up, so the
      // level total is unchanged plus `delta`.
      SetLevelCell(cw, i, 0);
      carry = sum;
      EnsureLevelAllocated(static_cast<CellWidth>(w + 1));
      table_telemetry::SpillPromotions().Inc();
    }
    cells_[i] = static_cast<CounterT>(static_cast<std::uint64_t>(cells_[i]) +
                                      carry);
  }

  /// Adds `count` to every row's bucket of `ph`. Deliberately scalar: the
  /// vector kernels only engage on the batched paths, where derivations
  /// amortize across a block. A per-item "panel" (lanes across rows) has
  /// to hand its wide store straight to narrow per-row loads — a failed
  /// store-to-load forward per read, measured as a 4x per-item ingest
  /// regression on AVX2 at real depths.
  void Add(const PrehashedItem& ph, CounterT count) {
    if (options_.cell_width == CellWidth::k64) {
      for (int r = 0; r < depth_; ++r) {
        Row(r)[BucketOf(r, ph.hash)] += count;
      }
      return;
    }
    for (int r = 0; r < depth_; ++r) {
      AddAtFlat(FlatIndex(r, BucketOf(r, ph.hash)), count);
    }
  }

  /// Minimum over rows of the bucket counters of `ph` (the CountMin read).
  CounterT Min(const PrehashedItem& ph) const {
    if (options_.cell_width == CellWidth::k64) {
      CounterT best = Row(0)[BucketOf(0, ph.hash)];
      for (int r = 1; r < depth_; ++r) {
        best = std::min(best, Row(r)[BucketOf(r, ph.hash)]);
      }
      return best;
    }
    CounterT best = AtFlat(FlatIndex(0, BucketOf(0, ph.hash)));
    for (int r = 1; r < depth_; ++r) {
      best = std::min(best, AtFlat(FlatIndex(r, BucketOf(r, ph.hash))));
    }
    return best;
  }

  /// Conservative update: raises each row's counter only as far as needed
  /// for the new minimum to reflect the update (insert-only streams). The
  /// bucket indices are derived once and reused by the read and write
  /// passes (scalar on purpose — see Add). The target saturates at
  /// CounterT's max instead of wrapping past it — near-max cells would
  /// otherwise compute a tiny wrapped target and silently stop rising.
  void AddConservative(const PrehashedItem& ph, CounterT count) {
    std::uint64_t idx[kMaxDepth];
    for (int r = 0; r < depth_; ++r) {
      idx[static_cast<std::size_t>(r)] = BucketOf(r, ph.hash);
    }
    if (options_.cell_width == CellWidth::k64) {
      CounterT best = Row(0)[idx[0]];
      for (int r = 1; r < depth_; ++r) {
        best = std::min(best, Row(r)[idx[static_cast<std::size_t>(r)]]);
      }
      const CounterT target = SaturatingTarget(best, count);
      for (int r = 0; r < depth_; ++r) {
        CounterT& cell = Row(r)[idx[static_cast<std::size_t>(r)]];
        cell = std::max(cell, target);
      }
      return;
    }
    CounterT best = AtFlat(FlatIndex(0, idx[0]));
    for (int r = 1; r < depth_; ++r) {
      best = std::min(
          best, AtFlat(FlatIndex(r, idx[static_cast<std::size_t>(r)])));
    }
    const CounterT target = SaturatingTarget(best, count);
    for (int r = 0; r < depth_; ++r) {
      const std::size_t flat =
          FlatIndex(r, idx[static_cast<std::size_t>(r)]);
      const CounterT cur = AtFlat(flat);
      if (target > cur) {
        AddAtFlat(flat, static_cast<CounterT>(static_cast<std::uint64_t>(
                            target) -
                        static_cast<std::uint64_t>(cur)));
      }
    }
  }

  /// Unit-count batched add of a prehash column, cache-blocked and
  /// row-major. Bucket derivation reads only the hash column. On vector
  /// dispatch levels the remix + reduction math runs SIMD into a stack
  /// index buffer and the increments replay it in stream order; the scalar
  /// level keeps the fused loop. Increment order per row is the stream
  /// order at every level, so counters — and spill state — are
  /// bit-identical across dispatch levels.
  void AddPrehashed(const std::uint64_t* hashes, std::size_t n) {
    const kernels::KernelTable& k = kernels::Dispatch();
    switch (options_.cell_width) {
      case CellWidth::k8:
        AddPrehashedNarrow(lv8_.data(), hashes, n, k);
        return;
      case CellWidth::k16:
        AddPrehashedNarrow(lv16_.data(), hashes, n, k);
        return;
      case CellWidth::k32:
        AddPrehashedNarrow(lv32_.data(), hashes, n, k);
        return;
      case CellWidth::k64:
        break;
    }
    const bool pow2 = options_.pow2_width;
    if (k.isa != simd::Isa::kScalar) {
      // Vector path: the shared micro-block software pipeline
      // (kernels::MicroBlockPipeline) inside the same row-major cache
      // blocking as the scalar loop, so one row's counters and one 16 KiB
      // column block stay L1-resident per pass.
      std::uint64_t idx[2][kernels::kMicroBlockItems];
      for (std::size_t base = 0; base < n; base += kBlockItems) {
        const std::size_t m = std::min(kBlockItems, n - base);
        const std::uint64_t* const block = hashes + base;
        for (int r = 0; r < depth_; ++r) {
          CounterT* const row = Row(r);
          const std::uint64_t seed = row_seeds_[static_cast<std::size_t>(r)];
          kernels::MicroBlockPipeline(
              block, m,
              [&](const std::uint64_t* p, std::size_t mm, int slot) {
                if (pow2) {
                  k.bucket_row_mask_cols(p, mm, seed, mask_, idx[slot]);
                } else {
                  k.bucket_row_cols(p, mm, seed, width_, idx[slot]);
                }
              },
              [&](int slot, std::size_t mm) {
                const std::uint64_t* const buf = idx[slot];
                for (std::size_t i = 0; i < mm; ++i) {
                  row[buf[i]] += CounterT{1};
                }
              });
        }
      }
      return;
    }
    for (std::size_t base = 0; base < n; base += kBlockItems) {
      const std::size_t m = std::min(kBlockItems, n - base);
      const std::uint64_t* const block = hashes + base;
      for (int r = 0; r < depth_; ++r) {
        CounterT* const row = Row(r);
        const std::uint64_t seed = row_seeds_[static_cast<std::size_t>(r)];
        if (pow2) {
          const std::uint64_t mask = mask_;
          for (std::size_t i = 0; i < m; ++i) {
            row[RemixHash(block[i], seed) & mask] += CounterT{1};
          }
        } else {
          const std::uint64_t width = width_;
          for (std::size_t i = 0; i < m; ++i) {
            row[FastRange64(RemixHash(block[i], seed), width)] += CounterT{1};
          }
        }
      }
    }
  }

  /// Pointwise counter sum: every counter of `other` contributes
  /// `ScaleCounter(counter, weight)`, clamped to CounterT's range (the
  /// decayed-merge form; `weight` is validated by the calling sketch).
  /// Weight 1 runs the plain add loop. 64-bit cells add with uint64_t
  /// wraparound, the table's counter domain. Callers enforce their merge
  /// preconditions (same depth/width/seed, same pow2 flag and overflow
  /// policy) first; the row seeds derive from the seed, so equal headers
  /// imply equal bucket derivations. Mixed cell widths merge by promoting
  /// this table's base to the wider side first.
  void MergeAdd(const CounterTable& other, double weight = 1.0) {
    SUBSTREAM_CHECK(depth_ == other.depth_ && width_ == other.width_);
    const auto add = [&](auto scale) {
      if (options_.cell_width == CellWidth::k64 &&
          other.options_.cell_width == CellWidth::k64) {
        for (std::size_t i = 0; i < cells_.size(); ++i) {
          cells_[i] = static_cast<CounterT>(
              static_cast<std::uint64_t>(cells_[i]) +
              static_cast<std::uint64_t>(scale(other.cells_[i])));
        }
        return;
      }
      if (other.options_.cell_width > options_.cell_width) {
        PromoteBase(other.options_.cell_width);
      }
      const std::size_t n = NumCells();
      for (std::size_t i = 0; i < n; ++i) {
        const CounterT v = scale(other.AtFlat(i));
        if (v != CounterT{}) AddAtFlat(i, v);
      }
    };
    if (weight == 1.0) {
      add([](CounterT v) { return v; });
    } else {
      add([weight](CounterT v) { return ScaleCounter(v, weight); });
    }
  }

  /// Returns to the freshly-constructed state. Overflow levels are dropped
  /// (capacity retained) so a reset-and-reused table is indistinguishable —
  /// including on the wire — from a newly constructed one.
  void Reset() {
    switch (options_.cell_width) {
      case CellWidth::k8:
        std::fill(lv8_.begin(), lv8_.end(), std::uint8_t{0});
        break;
      case CellWidth::k16:
        std::fill(lv16_.begin(), lv16_.end(), std::uint16_t{0});
        break;
      case CellWidth::k32:
        std::fill(lv32_.begin(), lv32_.end(), std::uint32_t{0});
        break;
      case CellWidth::k64:
        std::fill(cells_.begin(), cells_.end(), CounterT{});
        break;
    }
    if (has_upper_) {
      if (options_.cell_width < CellWidth::k16) lv16_.clear();
      if (options_.cell_width < CellWidth::k32) lv32_.clear();
      if (options_.cell_width < CellWidth::k64) cells_.clear();
      has_upper_ = false;
    }
  }

  /// Promotes the base level to `new_base` (a wider width), preserving all
  /// logical values. No-op if the base is already at least that wide. The
  /// overflow policy is retained; saturated cells stay at their clipped
  /// values.
  void PromoteBase(CellWidth new_base) {
    if (new_base <= options_.cell_width) return;
    const std::size_t n = NumCells();
    std::vector<CounterT> logical(n);
    for (std::size_t i = 0; i < n; ++i) logical[i] = AtFlat(i);
    lv8_.clear();
    lv8_.shrink_to_fit();
    lv16_.clear();
    lv16_.shrink_to_fit();
    lv32_.clear();
    lv32_.shrink_to_fit();
    cells_.clear();
    cells_.shrink_to_fit();
    has_upper_ = false;
    options_.cell_width = new_base;
    EnsureLevelAllocated(new_base);
    for (std::size_t i = 0; i < n; ++i) {
      if (logical[i] != CounterT{}) AddAtFlat(i, logical[i]);
    }
  }

  /// Row-major flat counter array of the 64-bit level (the only level for
  /// default-width tables; serde iterates it in the same order the
  /// historical nested-vector encoding produced, keeping the wire format
  /// byte-identical).
  std::vector<CounterT>& cells() { return cells_; }
  const std::vector<CounterT>& cells() const { return cells_; }

  // --- Level storage access (serde and the narrow replay paths). ---

  bool LevelAllocated(CellWidth w) const {
    switch (w) {
      case CellWidth::k8:
        return !lv8_.empty();
      case CellWidth::k16:
        return !lv16_.empty();
      case CellWidth::k32:
        return !lv32_.empty();
      case CellWidth::k64:
        return !cells_.empty();
    }
    return false;
  }

  /// Allocates (zeroed) storage for level `w` if absent.
  void EnsureLevelAllocated(CellWidth w) {
    const std::size_t n = NumCells();
    const bool was_allocated = LevelAllocated(w);
    switch (w) {
      case CellWidth::k8:
        if (lv8_.empty()) lv8_.assign(n, 0);
        break;
      case CellWidth::k16:
        if (lv16_.empty()) lv16_.assign(n, 0);
        break;
      case CellWidth::k32:
        if (lv32_.empty()) lv32_.assign(n, 0);
        break;
      case CellWidth::k64:
        if (cells_.empty()) cells_.assign(n, CounterT{});
        break;
    }
    if (w > options_.cell_width) {
      has_upper_ = true;
      if (!was_allocated) table_telemetry::OverflowLevelAllocs().Inc();
    }
  }

  /// Number of allocated levels above the base (contiguous by
  /// construction: spills allocate strictly next-wider).
  int UpperLevelCount() const {
    int count = 0;
    for (int w = static_cast<int>(options_.cell_width) + 1;
         w <= static_cast<int>(CellWidth::k64); ++w) {
      if (LevelAllocated(static_cast<CellWidth>(w))) ++count;
    }
    return count;
  }

  /// Raw (zero-extended) bit pattern of level `w` cell `i`.
  std::uint64_t LevelCellU(CellWidth w, std::size_t i) const {
    switch (w) {
      case CellWidth::k8:
        return lv8_[i];
      case CellWidth::k16:
        return lv16_[i];
      case CellWidth::k32:
        return lv32_[i];
      case CellWidth::k64:
        return static_cast<std::uint64_t>(cells_[i]);
    }
    return 0;
  }

  /// Sign-extended value of level `w` cell `i`.
  std::int64_t LevelCellS(CellWidth w, std::size_t i) const {
    switch (w) {
      case CellWidth::k8:
        return static_cast<std::int8_t>(lv8_[i]);
      case CellWidth::k16:
        return static_cast<std::int16_t>(lv16_[i]);
      case CellWidth::k32:
        return static_cast<std::int32_t>(lv32_[i]);
      case CellWidth::k64:
        return static_cast<std::int64_t>(cells_[i]);
    }
    return 0;
  }

  /// Stores the low bits of `pattern` into level `w` cell `i`.
  void SetLevelCell(CellWidth w, std::size_t i, std::uint64_t pattern) {
    switch (w) {
      case CellWidth::k8:
        lv8_[i] = static_cast<std::uint8_t>(pattern);
        break;
      case CellWidth::k16:
        lv16_[i] = static_cast<std::uint16_t>(pattern);
        break;
      case CellWidth::k32:
        lv32_[i] = static_cast<std::uint32_t>(pattern);
        break;
      case CellWidth::k64:
        cells_[i] = static_cast<CounterT>(pattern);
        break;
    }
  }

  std::size_t SpaceBytes() const {
    return lv8_.size() * sizeof(std::uint8_t) +
           lv16_.size() * sizeof(std::uint16_t) +
           lv32_.size() * sizeof(std::uint32_t) +
           cells_.size() * sizeof(CounterT) +
           row_seeds_.size() * sizeof(std::uint64_t);
  }

  /// One pass over the table for the SketchHealth report: logical fill,
  /// overflow-spill residency, and (saturating policy only) cells pinned at
  /// the clamp pattern. A cell that legitimately *reached* the clamp value
  /// is indistinguishable from one clamped there; both read as saturated,
  /// which is the conservative signal an operator wants. O(cells); callers
  /// run it at report/health time, never on the ingest path.
  TableHealthCounts HealthCounts() const {
    TableHealthCounts out;
    out.cells = NumCells();
    const bool saturating = options_.overflow == OverflowPolicy::kSaturate;
    const CellWidth base = options_.cell_width;
    for (std::size_t i = 0; i < out.cells; ++i) {
      if (AtFlat(i) != CounterT{}) ++out.nonzero;
      if (has_upper_) {
        for (int w = static_cast<int>(base) + 1;
             w <= static_cast<int>(CellWidth::k64); ++w) {
          const CellWidth cw = static_cast<CellWidth>(w);
          if (LevelAllocated(cw) && LevelValueBits(cw, i) != 0) {
            ++out.spilled;
            break;
          }
        }
      }
      if (saturating && base != CellWidth::k64) {
        const std::uint64_t bits = LevelValueBits(base, i);
        const int b = CellBits(base);
        bool pinned;
        if constexpr (std::is_signed_v<CounterT>) {
          const std::int64_t v = static_cast<std::int64_t>(bits);
          const std::int64_t maxv = (std::int64_t{1} << (b - 1)) - 1;
          pinned = (v == maxv || v == -maxv - 1);
        } else {
          pinned = bits == (std::uint64_t{1} << b) - 1;
        }
        if (pinned) ++out.saturated;
      }
    }
    return out;
  }

 private:
  static std::uint64_t RoundUpPow2(std::uint64_t v) {
    std::uint64_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  /// Two's-complement uint64 image of level `w` cell `i`, extended per
  /// CounterT's signedness — the representation all mod-2^64 level
  /// arithmetic runs in.
  std::uint64_t LevelValueBits(CellWidth w, std::size_t i) const {
    if constexpr (std::is_signed_v<CounterT>) {
      return static_cast<std::uint64_t>(LevelCellS(w, i));
    } else {
      return LevelCellU(w, i);
    }
  }

  /// True when the (extended) value `bits` is representable in a `w` cell.
  bool FitsLevel(std::uint64_t bits, CellWidth w) const {
    if (w == CellWidth::k64) return true;
    const int b = CellBits(w);
    if constexpr (std::is_signed_v<CounterT>) {
      const std::int64_t v = static_cast<std::int64_t>(bits);
      const std::int64_t maxv = (std::int64_t{1} << (b - 1)) - 1;
      return v >= -maxv - 1 && v <= maxv;
    } else {
      return bits <= (std::uint64_t{1} << b) - 1;
    }
  }

  /// Clipped pattern for a non-fitting value (saturating policy only).
  std::uint64_t ClampLevel(std::uint64_t bits, CellWidth w) const {
    const int b = CellBits(w);
    if constexpr (std::is_signed_v<CounterT>) {
      const std::int64_t v = static_cast<std::int64_t>(bits);
      const std::int64_t maxv = (std::int64_t{1} << (b - 1)) - 1;
      return static_cast<std::uint64_t>(v > maxv ? maxv : -maxv - 1);
    } else {
      return (std::uint64_t{1} << b) - 1;
    }
  }

  static CounterT SaturatingTarget(CounterT best, CounterT count) {
    const CounterT maxv = std::numeric_limits<CounterT>::max();
    if (count > CounterT{} && best > static_cast<CounterT>(maxv - count)) {
      return maxv;
    }
    return static_cast<CounterT>(static_cast<std::uint64_t>(best) +
                                 static_cast<std::uint64_t>(count));
  }

  /// Cold path of a narrow unit increment whose base cell sits at the stop
  /// pattern: spill +1 through the level chain, or nothing (saturating —
  /// the stop pattern IS the clamp).
  void SpillUnit(std::size_t flat) {
    if (options_.overflow == OverflowPolicy::kSaturate) {
      // Dropped unit increment at a stop-pattern cell: the clamp IS the
      // stop value, so nothing is written — but the drop is a health
      // signal (estimates under-count from here on).
      table_telemetry::SaturatedClamps().Inc();
      return;
    }
    AddAtFlat(flat, CounterT{1});
  }

  /// Narrow-cell batched unit add: same cache blocking and micro-block
  /// pipeline as the 64-bit path, with a stop-pattern check per increment.
  template <typename PhysT>
  void AddPrehashedNarrow(PhysT* level, const std::uint64_t* hashes,
                          std::size_t n, const kernels::KernelTable& k) {
    constexpr PhysT kStop =
        std::is_signed_v<CounterT>
            ? static_cast<PhysT>(static_cast<PhysT>(~PhysT{0}) >> 1)
            : static_cast<PhysT>(~PhysT{0});
    const bool pow2 = options_.pow2_width;
    if (k.isa != simd::Isa::kScalar) {
      std::uint64_t idx[2][kernels::kMicroBlockItems];
      for (std::size_t base = 0; base < n; base += kBlockItems) {
        const std::size_t m = std::min(kBlockItems, n - base);
        const std::uint64_t* const block = hashes + base;
        for (int r = 0; r < depth_; ++r) {
          const std::uint64_t row_base =
              static_cast<std::uint64_t>(r) * width_;
          PhysT* const row = level + row_base;
          const std::uint64_t seed = row_seeds_[static_cast<std::size_t>(r)];
          kernels::MicroBlockPipeline(
              block, m,
              [&](const std::uint64_t* p, std::size_t mm, int slot) {
                if (pow2) {
                  k.bucket_row_mask_cols(p, mm, seed, mask_, idx[slot]);
                } else {
                  k.bucket_row_cols(p, mm, seed, width_, idx[slot]);
                }
              },
              [&](int slot, std::size_t mm) {
                const std::uint64_t* const buf = idx[slot];
                for (std::size_t i = 0; i < mm; ++i) {
                  const PhysT v = row[buf[i]];
                  if (v == kStop) {
                    SpillUnit(static_cast<std::size_t>(row_base + buf[i]));
                  } else {
                    row[buf[i]] = static_cast<PhysT>(v + PhysT{1});
                  }
                }
              });
        }
      }
      return;
    }
    for (std::size_t base = 0; base < n; base += kBlockItems) {
      const std::size_t m = std::min(kBlockItems, n - base);
      const std::uint64_t* const block = hashes + base;
      for (int r = 0; r < depth_; ++r) {
        const std::uint64_t row_base = static_cast<std::uint64_t>(r) * width_;
        PhysT* const row = level + row_base;
        const std::uint64_t seed = row_seeds_[static_cast<std::size_t>(r)];
        if (pow2) {
          const std::uint64_t mask = mask_;
          for (std::size_t i = 0; i < m; ++i) {
            const std::uint64_t b = RemixHash(block[i], seed) & mask;
            const PhysT v = row[b];
            if (v == kStop) {
              SpillUnit(static_cast<std::size_t>(row_base + b));
            } else {
              row[b] = static_cast<PhysT>(v + PhysT{1});
            }
          }
        } else {
          const std::uint64_t width = width_;
          for (std::size_t i = 0; i < m; ++i) {
            const std::uint64_t b =
                FastRange64(RemixHash(block[i], seed), width);
            const PhysT v = row[b];
            if (v == kStop) {
              SpillUnit(static_cast<std::size_t>(row_base + b));
            } else {
              row[b] = static_cast<PhysT>(v + PhysT{1});
            }
          }
        }
      }
    }
  }

  int depth_;
  std::uint64_t width_;
  CounterTableOptions options_;
  std::uint64_t mask_ = 0;
  bool has_upper_ = false;
  std::vector<std::uint64_t> row_seeds_;
  // Level chain, narrowest first. The base level (options_.cell_width) is
  // always allocated; wider levels appear lazily on first spill. `cells_`
  // doubles as the 64-bit base for default-width tables and as the final
  // spill level otherwise.
  std::vector<std::uint8_t> lv8_;
  std::vector<std::uint16_t> lv16_;
  std::vector<std::uint32_t> lv32_;
  std::vector<CounterT> cells_;
};

}  // namespace substream

#endif  // SUBSTREAM_SKETCH_COUNTER_TABLE_H_
