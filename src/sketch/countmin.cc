#include "sketch/countmin.h"

#include <cmath>

#include "plan/accuracy.h"
#include "serde/serde.h"
#include "sketch/table_serde.h"

namespace substream {

// The planner inverts targets through the same chains the constructors
// derive geometry with (plan/accuracy.h); its mirrored row bound must
// track the table's.
static_assert(plan::kMaxCounterRows == CounterTable<count_t>::kMaxDepth,
              "plan/accuracy.h mirrors the CounterTable row bound");

namespace {

int DepthFromDelta(double delta) {
  SUBSTREAM_CHECK(delta > 0.0 && delta < 1.0);
  // Clamped at the CounterTable row bound: beyond it, extra rows buy
  // nothing the width knob cannot (and the table would abort).
  return plan::CountMinDepthFromDelta(delta);
}

std::uint64_t WidthFromEpsilon(double epsilon) {
  SUBSTREAM_CHECK(epsilon > 0.0);
  return plan::CountMinWidthFromEpsilon(epsilon);
}

}  // namespace

CountMinSketch::CountMinSketch(const CountMinParams& params,
                               std::uint64_t seed,
                               CellWidth cell_width)
    : CountMinSketch(DepthFromDelta(params.delta),
                     WidthFromEpsilon(params.epsilon), seed, cell_width) {}

CountMinSketch::CountMinSketch(int depth, std::uint64_t width,
                               std::uint64_t seed, CellWidth cell_width)
    : depth_(depth),
      width_(width),
      seed_(seed),
      table_(depth, width, seed, cell_width) {}

void CountMinSketch::Update(const PrehashedItem& ph, count_t count) {
  total_ += count;
  table_.Add(ph, count);
}

void CountMinSketch::UpdatePrehashed(PrehashedColumns cols, std::size_t n) {
  // CountMin never reads the item identity on ingest, so the table
  // takes the hash column alone.
  table_.AddPrehashed(cols.hashes, n);
  total_ += n;
}

void CountMinSketch::Reset() {
  table_.Reset();
  total_ = 0;
}

bool CountMinSketch::MergeCompatibleWith(const CountMinSketch& other) const {
  // Cell widths may differ: Merge promotes to the wider side.
  return depth_ == other.depth_ && width_ == other.width_ &&
         seed_ == other.seed_;
}

void CountMinSketch::Merge(const CountMinSketch& other, double weight) {
  SUBSTREAM_CHECK_MSG(ValidMergeWeight(weight),
                      "CountMin decayed-merge weight %f outside (0, 1]",
                      weight);
  SUBSTREAM_CHECK_MSG(MergeCompatibleWith(other),
                      "merging incompatible CountMin sketches");
  table_.MergeAdd(other.table_, weight);
  total_ += ScaleCounter(other.total_, weight);
}

std::size_t CountMinSketch::SpaceBytes() const { return table_.SpaceBytes(); }

obs::SummaryHealth CountMinSketch::Health() const {
  obs::SummaryHealth health;
  health.kind = "countmin";
  health.depth = static_cast<std::uint64_t>(depth_);
  health.width = width_;
  const TableHealthCounts counts = table_.HealthCounts();
  health.cells = counts.cells;
  health.nonzero_cells = counts.nonzero;
  health.spilled_cells = counts.spilled;
  health.epsilon = obs::CountMinEpsilon(width_);
  health.delta = obs::CountMinDelta(static_cast<std::uint64_t>(depth_));
  health.space_bytes = SpaceBytes();
  obs::FinalizeRatios(health);
  return health;
}

void CountMinSketch::Serialize(serde::Writer& out) const {
  out.Record(serde::TypeTag::kCountMinSketch);
  out.Varint(static_cast<std::uint64_t>(depth_));
  out.Varint(width_);
  // Retired conservative-update flag: always false, kept so the record
  // layout is unchanged.
  out.Bool(false);
  out.U64(seed_);
  table_serde::WriteCellWidth(out, table_.cell_width());
  out.Varint(total_);
  // Physical levels, base first. For the default 64-bit layout this is the
  // historical flat cell encoding plus a zero upper-level count.
  table_serde::WriteLevels(out, table_);
}

std::optional<CountMinSketch> CountMinSketch::Deserialize(serde::Reader& in) {
  if (!in.ExpectRecord(serde::TypeTag::kCountMinSketch)) return std::nullopt;
  const std::uint64_t depth = in.Varint();
  const std::uint64_t width = in.Varint();
  const std::uint8_t retired_conservative = in.U8();
  const std::uint64_t seed = in.U64();
  CellWidth cell_width = CellWidth::k64;  // v2 records: 64-bit cells
  if (in.record_version() >= 3 &&
      !table_serde::ReadCellWidth(in, &cell_width)) {
    return std::nullopt;
  }
  const count_t total = in.Varint();
  // Mirror the constructor checks, then bound the allocation by the bytes
  // actually present (each counter is at least one varint byte).
  if (!in.ok() || retired_conservative != 0 || depth < 1 || depth > 64 ||
      width < 1 || width > (1ULL << 48)) {
    return std::nullopt;
  }
  if (!in.CanHold(depth * width, 1)) return std::nullopt;
  CountMinSketch sketch(static_cast<int>(depth), width, seed, cell_width);
  sketch.total_ = total;
  if (!table_serde::ReadLevels(in, &sketch.table_,
                               in.record_version() == 2)) {
    return std::nullopt;
  }
  return sketch;
}

CountMinHeavyHitters::CountMinHeavyHitters(double phi, double eps_resolution,
                                           double delta, std::uint64_t seed,
                                           CellWidth cell_width)
    : phi_(phi),
      sketch_(
          CountMinParams{
              // Counter error must be small relative to the HH threshold:
              // eps_cm * F1 <= (eps_resolution/2) * phi * F1.
              /*epsilon=*/0.5 * eps_resolution * phi,
              /*delta=*/delta},
          seed, cell_width) {
  SUBSTREAM_CHECK(phi > 0.0 && phi <= 1.0);
  SUBSTREAM_CHECK(eps_resolution > 0.0 && eps_resolution < 1.0);
  // At most 1/(phi (1 - eps)) items can be heavy; keep slack for churn.
  candidates_ = CandidatePool<count_t>(
      static_cast<std::size_t>(std::ceil(8.0 / phi)) + 16);
}

void CountMinHeavyHitters::Update(const PrehashedItem& ph, count_t count) {
  sketch_.Update(ph, count);
  const count_t est = sketch_.Estimate(ph);
  // Track anything that currently clears half the final threshold; final
  // filtering happens in Candidates() against the final F1.
  if (static_cast<double>(est) >=
      0.5 * phi_ * static_cast<double>(sketch_.TotalCount())) {
    candidates_.Offer(ph.item, est);
  }
}

void CountMinHeavyHitters::UpdatePrehashed(PrehashedColumns cols,
                                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) Update(cols.At(i));
}

bool CountMinHeavyHitters::MergeCompatibleWith(
    const CountMinHeavyHitters& other) const {
  return phi_ == other.phi_ &&
         candidates_.capacity() == other.candidates_.capacity() &&
         sketch_.MergeCompatibleWith(other.sketch_);
}

void CountMinHeavyHitters::Merge(const CountMinHeavyHitters& other,
                                 double weight) {
  SUBSTREAM_CHECK_MSG(MergeCompatibleWith(other),
                      "merging CountMin heavy-hitter trackers with different "
                      "phi/capacity");
  // Enforces geometry + seed equality and validates the weight.
  sketch_.Merge(other.sketch_, weight);
  // Union the candidate pools, re-estimating BOTH sides against the merged
  // (possibly decay-scaled) sketch so eviction decisions compare current
  // estimates; a stale pre-merge value could otherwise get a genuinely
  // heavy item evicted.
  const auto estimate = [this](item_t item) { return sketch_.Estimate(item); };
  candidates_.Refresh(estimate);
  candidates_.Union(other.candidates_, estimate);
}

void CountMinHeavyHitters::Reset() {
  sketch_.Reset();
  candidates_.Clear();
}

std::vector<std::pair<item_t, count_t>> CountMinHeavyHitters::Candidates(
    double threshold_fraction) const {
  return candidates_.Ranked(
      threshold_fraction * static_cast<double>(sketch_.TotalCount()),
      [this](item_t item) { return sketch_.Estimate(item); });
}

std::size_t CountMinHeavyHitters::SpaceBytes() const {
  return sketch_.SpaceBytes() + candidates_.SpaceBytes();
}

void CountMinHeavyHitters::Serialize(serde::Writer& out) const {
  out.Record(serde::TypeTag::kCountMinHeavyHitters);
  out.F64(phi_);
  out.Varint(candidates_.capacity());
  sketch_.Serialize(out);
  serde::WriteCountMap(out, candidates_.map());
}

std::optional<CountMinHeavyHitters> CountMinHeavyHitters::Deserialize(
    serde::Reader& in) {
  if (!in.ExpectRecord(serde::TypeTag::kCountMinHeavyHitters)) {
    return std::nullopt;
  }
  const double phi = in.F64();
  const std::uint64_t capacity = in.Varint();
  // Capacity 0 would leave the full pool's eviction scan nothing to scan.
  if (!in.ok() || !serde::ValidProbability(phi) || capacity == 0 ||
      capacity > (1ULL << 48)) {
    return std::nullopt;
  }
  auto sketch = CountMinSketch::Deserialize(in);
  if (!sketch) return std::nullopt;
  // Construct with fixed safe accuracy knobs (they only shape the sketch
  // geometry, which the nested record replaces), then install the decoded
  // state. Building from the wire phi instead would let a corrupted tiny
  // phi drive an allocation bomb through the analytic width.
  CountMinHeavyHitters tracker(0.5, 0.5, 0.5, sketch->seed());
  tracker.phi_ = phi;
  tracker.candidates_ = CandidatePool<count_t>(capacity);
  tracker.sketch_ = std::move(*sketch);
  if (!serde::ReadCountMap(in, &tracker.candidates_.map())) {
    return std::nullopt;
  }
  if (tracker.candidates_.size() > capacity) return std::nullopt;
  return tracker;
}

}  // namespace substream
