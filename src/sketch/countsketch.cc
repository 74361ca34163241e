#include "sketch/countsketch.h"

#include <algorithm>
#include <cmath>

#include "plan/accuracy.h"
#include "serde/serde.h"
#include "sketch/table_serde.h"
#include "util/stats.h"

namespace substream {

CountSketch::CountSketch(int depth, std::uint64_t width, std::uint64_t seed,
                         CounterTableOptions options)
    : depth_(depth),
      width_(width),
      seed_(seed),
      table_(depth, width, seed, options) {
  // The table may have rounded the width up to a power of two.
  width_ = table_.width();
  row_sumsq_.assign(static_cast<std::size_t>(depth), 0.0);
  sign_hashes_.reserve(static_cast<std::size_t>(depth));
  for (int r = 0; r < depth; ++r) {
    // 4-wise independent signs make row L2^2 an unbiased F2 estimate with
    // bounded variance (as in AMS). Odd seed indices: the table's bucket
    // row seeds occupy the even ones.
    sign_hashes_.emplace_back(
        4, DeriveSeed(seed, 2 * static_cast<std::uint64_t>(r) + 1));
  }
}

// Per-item paths (Update, UpdateAndEstimate, Estimate) stay scalar at every
// dispatch level: a per-item sign/bucket panel returns its lanes through a
// wide store the caller immediately re-reads narrowly — a failed
// store-to-load forward per row, measured as a 4x per-item regression on
// AVX2 at depth 5. The vector kernels engage on UpdatePrehashed and the
// column UpdateAndEstimate, where derivations amortize across micro-blocks.

void CountSketch::Update(const PrehashedItem& ph, std::int64_t count) {
  total_ += count;
  if (table_.cell_width() == CellWidth::k64) {
    for (int r = 0; r < depth_; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      std::int64_t& cell = table_.Row(r)[table_.BucketOf(r, ph.hash)];
      const std::int64_t delta = sign_hashes_[rr].Sign(ph.item) * count;
      // (x + d)^2 - x^2 = 2xd + d^2, keeping the row norm current in O(1).
      row_sumsq_[rr] += static_cast<double>(2 * cell * delta + delta * delta);
      cell += delta;
    }
    return;
  }
  // Narrow cells: identical arithmetic against the logical (level-summed)
  // value, so the norm increments — and their FP accumulation order — match
  // the 64-bit path exactly.
  for (int r = 0; r < depth_; ++r) {
    const auto rr = static_cast<std::size_t>(r);
    const std::size_t flat = table_.FlatIndex(r, table_.BucketOf(r, ph.hash));
    const std::int64_t cell = table_.AtFlat(flat);
    const std::int64_t delta = sign_hashes_[rr].Sign(ph.item) * count;
    row_sumsq_[rr] += static_cast<double>(2 * cell * delta + delta * delta);
    table_.AddAtFlat(flat, delta);
  }
}

double CountSketch::UpdateAndEstimate(const PrehashedItem& ph,
                                      std::int64_t count) {
  total_ += count;
  double row_estimates[CounterTable<std::int64_t>::kMaxDepth];
  if (table_.cell_width() == CellWidth::k64) {
    for (int r = 0; r < depth_; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      std::int64_t& cell = table_.Row(r)[table_.BucketOf(r, ph.hash)];
      const int sign = sign_hashes_[rr].Sign(ph.item);
      const std::int64_t delta = sign * count;
      row_sumsq_[rr] += static_cast<double>(2 * cell * delta + delta * delta);
      cell += delta;
      row_estimates[rr] = static_cast<double>(sign) * static_cast<double>(cell);
    }
    return MedianInPlace(row_estimates, static_cast<std::size_t>(depth_));
  }
  for (int r = 0; r < depth_; ++r) {
    const auto rr = static_cast<std::size_t>(r);
    const std::size_t flat = table_.FlatIndex(r, table_.BucketOf(r, ph.hash));
    const std::int64_t cell = table_.AtFlat(flat);
    const int sign = sign_hashes_[rr].Sign(ph.item);
    const std::int64_t delta = sign * count;
    row_sumsq_[rr] += static_cast<double>(2 * cell * delta + delta * delta);
    table_.AddAtFlat(flat, delta);
    row_estimates[rr] =
        static_cast<double>(sign) * static_cast<double>(cell + delta);
  }
  return MedianInPlace(row_estimates, static_cast<std::size_t>(depth_));
}

void CountSketch::UpdateAndEstimate(PrehashedColumns cols, std::size_t n,
                                    std::int64_t count, double* estimates,
                                    double* f2) {
  constexpr std::size_t kMicro = kernels::kMicroBlockItems;
  const kernels::KernelTable& k = kernels::Dispatch();
  const bool k64 = table_.cell_width() == CellWidth::k64;
  const bool pow2 = table_.pow2_width();
  const auto d = static_cast<std::size_t>(depth_);
  // Per-row results of one micro-block, item-major (item i's rows at
  // [i * d, i * d + d)) so both medians run in place.
  double row_est[CounterTable<std::int64_t>::kMaxDepth * kMicro];
  double row_f2[CounterTable<std::int64_t>::kMaxDepth * kMicro];
  std::uint64_t idx[2][kMicro];
  std::int64_t sgn[2][kMicro];
  for (std::size_t base = 0; base < n; base += kMicro) {
    const std::size_t m = std::min(kMicro, n - base);
    const std::uint64_t* const hashes = cols.hashes + base;
    const std::uint64_t* const items = cols.items + base;
    auto derive = [&](int r, int slot) {
      if (pow2) {
        k.bucket_row_mask_cols(hashes, m, table_.row_seed(r), width_ - 1,
                               idx[slot]);
      } else {
        k.bucket_row_cols(hashes, m, table_.row_seed(r), width_, idx[slot]);
      }
      k.sign_row4_cols(items, m,
                       sign_hashes_[static_cast<std::size_t>(r)]
                           .coefficients()
                           .data(),
                       sgn[slot]);
    };
    // Row r + 1 is derived before row r replays, so the replay never reads
    // a buffer whose wide stores are still inside the forwarding window.
    derive(0, 0);
    for (int r = 0; r < depth_; ++r) {
      const int slot = r & 1;
      if (r + 1 < depth_) derive(r + 1, slot ^ 1);
      const auto rr = static_cast<std::size_t>(r);
      double sumsq = row_sumsq_[rr];
      if (k64) {
        std::int64_t* const row = table_.Row(r);
        for (std::size_t i = 0; i < m; ++i) {
          std::int64_t& cell = row[idx[slot][i]];
          const std::int64_t sign = sgn[slot][i];
          const std::int64_t delta = sign * count;
          sumsq += static_cast<double>(2 * cell * delta + delta * delta);
          cell += delta;
          row_est[i * d + rr] =
              static_cast<double>(sign) * static_cast<double>(cell);
          row_f2[i * d + rr] = sumsq;
        }
      } else {
        // Same logical arithmetic as the per-item narrow path, including
        // the estimate from the unclamped sum.
        const std::uint64_t row_base = static_cast<std::uint64_t>(r) * width_;
        for (std::size_t i = 0; i < m; ++i) {
          const std::size_t flat =
              static_cast<std::size_t>(row_base + idx[slot][i]);
          const std::int64_t cell = table_.AtFlat(flat);
          const std::int64_t sign = sgn[slot][i];
          const std::int64_t delta = sign * count;
          sumsq += static_cast<double>(2 * cell * delta + delta * delta);
          table_.AddAtFlat(flat, delta);
          row_est[i * d + rr] =
              static_cast<double>(sign) * static_cast<double>(cell + delta);
          row_f2[i * d + rr] = sumsq;
        }
      }
      row_sumsq_[rr] = sumsq;
    }
    for (std::size_t i = 0; i < m; ++i) {
      estimates[base + i] = MedianInPlace(row_est + i * d, d);
      f2[base + i] = MedianInPlace(row_f2 + i * d, d);
    }
  }
  total_ += count * static_cast<std::int64_t>(n);
}

void CountSketch::UpdatePrehashed(PrehashedColumns cols, std::size_t n) {
  constexpr std::size_t kBlock = CounterTable<std::int64_t>::kBlockItems;
  const kernels::KernelTable& k = kernels::Dispatch();
  const bool k64 = table_.cell_width() == CellWidth::k64;
  const bool pow2 = table_.pow2_width();
  if (k.isa != simd::Isa::kScalar) {
    // Vector path: derive bucket indices and signs lane-parallel into
    // micro-block stack buffers via the shared double-buffered pipeline
    // (kernels::MicroBlockPipeline), then replay the order-sensitive cell
    // and row-norm updates serially in stream order — bit-identical to the
    // scalar loop (same FP accumulation order for the row norms). The
    // derive stage reads two parallel columns (buckets from the hash
    // column, signs from the item column), so the pipeline cursor is a
    // plain offset. Narrow cells replay through the logical
    // AtFlat/AddAtFlat view, which equals the 64-bit cell value exactly
    // (mod-2^64 level sums), so the norm stream is unchanged.
    std::uint64_t idx[2][kernels::kMicroBlockItems];
    std::int64_t sgn[2][kernels::kMicroBlockItems];
    for (std::size_t base = 0; base < n; base += kBlock) {
      const std::size_t m = std::min(kBlock, n - base);
      const std::uint64_t* const hashes = cols.hashes + base;
      const std::uint64_t* const items = cols.items + base;
      for (int r = 0; r < depth_; ++r) {
        const auto rr = static_cast<std::size_t>(r);
        std::int64_t* const row = k64 ? table_.Row(r) : nullptr;
        const std::uint64_t row_base =
            static_cast<std::uint64_t>(r) * width_;
        const std::uint64_t row_seed = table_.row_seed(r);
        // PolynomialHash stores exactly the 4 coefficients, constant term
        // first — the layout sign_row4_cols reads.
        const std::uint64_t* const row_coeffs =
            sign_hashes_[rr].coefficients().data();
        double sumsq = row_sumsq_[rr];
        kernels::MicroBlockPipeline(
            std::size_t{0}, m,
            [&](std::size_t off, std::size_t mm, int slot) {
              if (pow2) {
                k.bucket_row_mask_cols(hashes + off, mm, row_seed,
                                       width_ - 1, idx[slot]);
              } else {
                k.bucket_row_cols(hashes + off, mm, row_seed, width_,
                                  idx[slot]);
              }
              k.sign_row4_cols(items + off, mm, row_coeffs, sgn[slot]);
            },
            [&](int slot, std::size_t mm) {
              if (k64) {
                for (std::size_t i = 0; i < mm; ++i) {
                  std::int64_t& cell = row[idx[slot][i]];
                  const std::int64_t delta = sgn[slot][i];
                  sumsq += static_cast<double>(2 * cell * delta + 1);
                  cell += delta;
                }
                return;
              }
              for (std::size_t i = 0; i < mm; ++i) {
                const std::size_t flat =
                    static_cast<std::size_t>(row_base + idx[slot][i]);
                const std::int64_t cell = table_.AtFlat(flat);
                const std::int64_t delta = sgn[slot][i];
                sumsq += static_cast<double>(2 * cell * delta + 1);
                table_.AddAtFlat(flat, delta);
              }
            });
        row_sumsq_[rr] = sumsq;
      }
    }
    total_ += static_cast<std::int64_t>(n);
    return;
  }
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t m = std::min(kBlock, n - base);
    const std::uint64_t* const hashes = cols.hashes + base;
    const std::uint64_t* const items = cols.items + base;
    for (int r = 0; r < depth_; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      std::int64_t* const row = k64 ? table_.Row(r) : nullptr;
      const std::uint64_t row_base = static_cast<std::uint64_t>(r) * width_;
      const std::uint64_t row_seed = table_.row_seed(r);
      const PolynomialHash& sign_hash = sign_hashes_[rr];
      double sumsq = row_sumsq_[rr];
      for (std::size_t i = 0; i < m; ++i) {
        const std::uint64_t h = RemixHash(hashes[i], row_seed);
        const std::uint64_t b =
            pow2 ? (h & (width_ - 1)) : FastRange64(h, width_);
        const std::int64_t delta = sign_hash.Sign(items[i]);
        if (k64) {
          std::int64_t& cell = row[b];
          sumsq += static_cast<double>(2 * cell * delta + 1);
          cell += delta;
        } else {
          const std::size_t flat = static_cast<std::size_t>(row_base + b);
          const std::int64_t cell = table_.AtFlat(flat);
          sumsq += static_cast<double>(2 * cell * delta + 1);
          table_.AddAtFlat(flat, delta);
        }
      }
      row_sumsq_[rr] = sumsq;
    }
  }
  total_ += static_cast<std::int64_t>(n);
}

void CountSketch::Reset() {
  table_.Reset();
  std::fill(row_sumsq_.begin(), row_sumsq_.end(), 0.0);
  total_ = 0;
}

bool CountSketch::MergeCompatibleWith(const CountSketch& other) const {
  // Cell widths may differ (Merge promotes to the wider side), but the
  // bucket reduction and overflow policy must agree — see CountMin.
  return depth_ == other.depth_ && width_ == other.width_ &&
         seed_ == other.seed_ &&
         table_.pow2_width() == other.table_.pow2_width() &&
         table_.overflow() == other.table_.overflow();
}

void CountSketch::Merge(const CountSketch& other, double weight) {
  SUBSTREAM_CHECK_MSG(ValidMergeWeight(weight),
                      "CountSketch decayed-merge weight %f outside (0, 1]",
                      weight);
  SUBSTREAM_CHECK_MSG(MergeCompatibleWith(other),
                      "merging incompatible CountSketches");
  total_ += ScaleCounter(other.total_, weight);
  if (table_.cell_width() != CellWidth::k64 ||
      other.table_.cell_width() != CellWidth::k64) {
    table_.MergeAdd(other.table_, weight);
    RecomputeRowNorms();
    return;
  }
  // 64-bit tables: fused add and row norm, one pass per row. Adds wrap
  // through uint64_t like CounterTable::MergeAdd.
  const auto add_rows = [&](auto scale) {
    for (int r = 0; r < depth_; ++r) {
      std::int64_t* const row = table_.Row(r);
      const std::int64_t* const other_row = other.table_.Row(r);
      double sumsq = 0.0;
      for (std::uint64_t c = 0; c < width_; ++c) {
        row[c] = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(row[c]) +
            static_cast<std::uint64_t>(scale(other_row[c])));
        sumsq += static_cast<double>(row[c]) * static_cast<double>(row[c]);
      }
      row_sumsq_[static_cast<std::size_t>(r)] = sumsq;
    }
  };
  if (weight == 1.0) {
    add_rows([](std::int64_t v) { return v; });
  } else {
    add_rows([weight](std::int64_t v) { return ScaleCounter(v, weight); });
  }
}

void CountSketch::RecomputeRowNorms() {
  // Same ascending bucket order as the 64-bit merge loops, so equal merged
  // counters give bit-equal norms regardless of storage width.
  for (int r = 0; r < depth_; ++r) {
    double sumsq = 0.0;
    for (std::uint64_t c = 0; c < width_; ++c) {
      const double v = static_cast<double>(
          table_.AtFlat(table_.FlatIndex(r, c)));
      sumsq += v * v;
    }
    row_sumsq_[static_cast<std::size_t>(r)] = sumsq;
  }
}

double CountSketch::Estimate(const PrehashedItem& ph) const {
  // Stack scratch: this runs per item inside the level-set candidate
  // tracking, so a heap allocation here would dominate the readout.
  double row_estimates[CounterTable<std::int64_t>::kMaxDepth];
  const bool k64 = table_.cell_width() == CellWidth::k64;
  for (int r = 0; r < depth_; ++r) {
    const auto rr = static_cast<std::size_t>(r);
    const std::uint64_t b = table_.BucketOf(r, ph.hash);
    const std::int64_t cell =
        k64 ? table_.Row(r)[b] : table_.AtFlat(table_.FlatIndex(r, b));
    row_estimates[rr] = static_cast<double>(sign_hashes_[rr].Sign(ph.item)) *
                        static_cast<double>(cell);
  }
  return MedianInPlace(row_estimates, static_cast<std::size_t>(depth_));
}

double CountSketch::EstimateF2() const {
  double sumsq[CounterTable<std::int64_t>::kMaxDepth];
  std::copy(row_sumsq_.begin(), row_sumsq_.end(), sumsq);
  return MedianInPlace(sumsq, row_sumsq_.size());
}

std::size_t CountSketch::SpaceBytes() const {
  std::size_t bytes = table_.SpaceBytes();
  for (const auto& h : sign_hashes_) bytes += h.SpaceBytes();
  return bytes;
}

obs::SummaryHealth CountSketch::Health() const {
  obs::SummaryHealth health;
  health.kind = "countsketch";
  health.depth = static_cast<std::uint64_t>(depth_);
  health.width = width_;
  const TableHealthCounts counts = table_.HealthCounts();
  health.cells = counts.cells;
  health.nonzero_cells = counts.nonzero;
  health.spilled_cells = counts.spilled;
  health.saturated_cells = counts.saturated;
  health.epsilon = obs::CountSketchEpsilon(width_);
  health.delta = obs::CountSketchDelta(static_cast<std::uint64_t>(depth_));
  health.space_bytes = SpaceBytes();
  obs::FinalizeRatios(health);
  return health;
}

void CountSketch::Serialize(serde::Writer& out) const {
  out.Record(serde::TypeTag::kCountSketch);
  out.Varint(static_cast<std::uint64_t>(depth_));
  out.Varint(width_);
  out.U64(seed_);
  out.U8(static_cast<std::uint8_t>(table_.cell_width()));
  out.U8(table_serde::FlagsOf(table_.options()));
  out.Svarint(total_);
  // Row norms are serialized (not recomputed) so a decoded sketch is
  // bit-identical to the live one, incremental float error included.
  for (double sumsq : row_sumsq_) out.F64(sumsq);
  // Physical levels, base first; the default 64-bit layout reduces to the
  // historical flat cell encoding plus a zero upper-level count.
  table_serde::WriteLevels(out, table_);
}

std::optional<CountSketch> CountSketch::Deserialize(serde::Reader& in) {
  if (!in.ExpectRecord(serde::TypeTag::kCountSketch)) return std::nullopt;
  const std::uint64_t depth = in.Varint();
  const std::uint64_t width = in.Varint();
  const std::uint64_t seed = in.U64();
  CounterTableOptions options;  // v2 records: 64-bit spill cells
  if (in.record_version() >= 3 && !table_serde::ReadOptions(in, &options)) {
    return std::nullopt;
  }
  const std::int64_t total = in.Svarint();
  if (!in.ok() || depth < 1 || depth > 64 || width < 1 ||
      width > (1ULL << 48)) {
    return std::nullopt;
  }
  // Serialized widths are post-rounding (see CountMin::Deserialize).
  if (options.pow2_width && (width & (width - 1)) != 0) return std::nullopt;
  if (!in.CanHold(depth * width, 1)) return std::nullopt;
  CountSketch sketch(static_cast<int>(depth), width, seed, options);
  sketch.total_ = total;
  for (double& sumsq : sketch.row_sumsq_) sumsq = in.F64();
  if (!table_serde::ReadLevels(in, &sketch.table_,
                               in.record_version() == 2)) {
    return std::nullopt;
  }
  return sketch;
}

namespace {

int DepthFromDelta(double delta) {
  SUBSTREAM_CHECK(delta > 0.0 && delta < 1.0);
  // Median amplification: O(log 1/delta) rows, odd for a unique median.
  // Clamped (at the largest odd depth the CounterTable row bound allows)
  // so extreme deltas degrade accuracy instead of aborting construction.
  // The derivation lives in plan/accuracy.h, shared with the planner.
  return plan::CountSketchMedianDepthFromDelta(delta);
}

}  // namespace

CountSketchHeavyHitters::CountSketchHeavyHitters(double phi,
                                                 double eps_resolution,
                                                 double delta,
                                                 std::uint64_t seed,
                                                 CounterTableOptions options)
    : phi_(phi),
      sketch_(DepthFromDelta(delta),
              // Point error ~ sqrt(F2/width); to resolve phi*sqrt(F2) with
              // relative precision eps we need width >= c/(eps*phi)^2. The
              // constant 2 relies on the median over depth rows for the
              // rest of the confidence.
              std::max<std::uint64_t>(
                  8, static_cast<std::uint64_t>(std::ceil(
                         2.0 / (eps_resolution * eps_resolution * phi * phi)))),
              seed, options) {
  SUBSTREAM_CHECK(phi > 0.0 && phi <= 1.0);
  SUBSTREAM_CHECK(eps_resolution > 0.0 && eps_resolution < 1.0);
  candidates_ = CandidatePool<double>(
      static_cast<std::size_t>(std::ceil(8.0 / (phi * phi))) + 16);
}

void CountSketchHeavyHitters::Update(const PrehashedItem& ph, count_t count) {
  updates_ += count;
  sketch_.Update(ph, static_cast<std::int64_t>(count));
  const double est = sketch_.Estimate(ph);
  // Cheap pre-filter: sqrt(F2) >= F1/sqrt(n)... instead of recomputing the
  // F2 estimate per update (expensive), compare against a lower bound that
  // uses the running update count: sqrt(F2(L)) >= sqrt(F1(L)). Anything that
  // could possibly be heavy at the end clears half of phi * sqrt(F1 so far).
  const double lower_bound_sqrt_f2 =
      std::sqrt(static_cast<double>(updates_));
  if (est >= 0.5 * phi_ * lower_bound_sqrt_f2) {
    candidates_.Offer(ph.item, est);
  }
}

void CountSketchHeavyHitters::UpdatePrehashed(PrehashedColumns cols,
                                              std::size_t n) {
  // Candidate tracking interleaves a read after every write, so the loop is
  // per-item — but sketch add and estimate reuse the caller's prehash.
  for (std::size_t i = 0; i < n; ++i) Update(cols.At(i));
}

bool CountSketchHeavyHitters::MergeCompatibleWith(
    const CountSketchHeavyHitters& other) const {
  return phi_ == other.phi_ &&
         candidates_.capacity() == other.candidates_.capacity() &&
         sketch_.MergeCompatibleWith(other.sketch_);
}

void CountSketchHeavyHitters::Merge(const CountSketchHeavyHitters& other,
                                    double weight) {
  SUBSTREAM_CHECK_MSG(MergeCompatibleWith(other),
                      "merging CountSketch heavy-hitter trackers with "
                      "different phi/capacity");
  // Enforces geometry + seed equality and validates the weight.
  sketch_.Merge(other.sketch_, weight);
  updates_ += ScaleCounter(other.updates_, weight);
  // Re-estimate BOTH pools against the merged (possibly decay-scaled)
  // sketch before unioning, so eviction compares current estimates rather
  // than stale per-shard ones.
  const auto estimate = [this](item_t item) { return sketch_.Estimate(item); };
  candidates_.Refresh(estimate);
  candidates_.Union(other.candidates_, estimate);
}

void CountSketchHeavyHitters::Reset() {
  sketch_.Reset();
  candidates_.Clear();
  updates_ = 0;
}

std::vector<std::pair<item_t, double>> CountSketchHeavyHitters::Candidates(
    double threshold_phi) const {
  return candidates_.Ranked(
      threshold_phi * std::sqrt(sketch_.EstimateF2()),
      [this](item_t item) { return sketch_.Estimate(item); });
}

std::size_t CountSketchHeavyHitters::SpaceBytes() const {
  return sketch_.SpaceBytes() + candidates_.SpaceBytes();
}

void CountSketchHeavyHitters::Serialize(serde::Writer& out) const {
  out.Record(serde::TypeTag::kCountSketchHeavyHitters);
  out.F64(phi_);
  out.Varint(candidates_.capacity());
  out.Varint(updates_);
  sketch_.Serialize(out);
  serde::WriteDoubleMap(out, candidates_.map());
}

std::optional<CountSketchHeavyHitters> CountSketchHeavyHitters::Deserialize(
    serde::Reader& in) {
  if (!in.ExpectRecord(serde::TypeTag::kCountSketchHeavyHitters)) {
    return std::nullopt;
  }
  const double phi = in.F64();
  const std::uint64_t capacity = in.Varint();
  const count_t updates = in.Varint();
  // Capacity 0 would leave the full pool's eviction scan nothing to scan.
  if (!in.ok() || !serde::ValidProbability(phi) || capacity == 0 ||
      capacity > (1ULL << 48)) {
    return std::nullopt;
  }
  auto sketch = CountSketch::Deserialize(in);
  if (!sketch) return std::nullopt;
  // Fixed safe accuracy knobs for construction; the nested record replaces
  // the geometry they produce (see CountMinHeavyHitters::Deserialize).
  CountSketchHeavyHitters tracker(0.5, 0.5, 0.5, sketch->seed());
  tracker.phi_ = phi;
  tracker.candidates_ = CandidatePool<double>(capacity);
  tracker.updates_ = updates;
  tracker.sketch_ = std::move(*sketch);
  if (!serde::ReadDoubleMap(in, &tracker.candidates_.map())) {
    return std::nullopt;
  }
  if (tracker.candidates_.size() > capacity) return std::nullopt;
  return tracker;
}

}  // namespace substream
