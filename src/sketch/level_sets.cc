#include "sketch/level_sets.h"

#include <algorithm>
#include <cmath>

#include "serde/serde.h"
#include "util/math.h"
#include "util/random.h"

namespace substream {

int LevelIndex(double g, double eta, double eps_prime) {
  SUBSTREAM_CHECK(g > 0.0);
  SUBSTREAM_CHECK(eta > 0.0 && eta <= 1.0);
  SUBSTREAM_CHECK(eps_prime > 0.0);
  if (g < eta) return 0;
  const int i = static_cast<int>(
      std::floor(std::log(g / eta) / std::log1p(eps_prime)));
  return std::max(0, i);
}

namespace {

// For each l in [first, last], the compensated sum of term(x, l) over
// `range` in iteration order: entry l - first is bitwise what a single-l
// pass over the same range gives.
template <typename Range, typename Term>
std::vector<double> SumPerOrder(const Range& range, int first, int last,
                                Term term) {
  SUBSTREAM_CHECK(first >= 1 && first <= last);
  std::vector<KahanSum> sums(static_cast<std::size_t>(last - first + 1));
  for (const auto& x : range) {
    for (int l = first; l <= last; ++l) {
      sums[static_cast<std::size_t>(l - first)].Add(term(x, l));
    }
  }
  std::vector<double> out;
  out.reserve(sums.size());
  for (const KahanSum& sum : sums) out.push_back(sum.Value());
  return out;
}

}  // namespace

double DrawEta(std::uint64_t seed) {
  const double unit =
      static_cast<double>(Mix64(seed ^ 0xe7a1u) >> 11) * 0x1.0p-53;
  return 0.25 + 0.75 * unit;
}

IndykWoodruffEstimator::IndykWoodruffEstimator(const LevelSetParams& params,
                                               std::uint64_t seed)
    : params_(params),
      seed_(seed),
      eta_(DrawEta(seed)),
      depth_hash_(DeriveSeed(seed, 0xd5)) {
  SUBSTREAM_CHECK(params.eps_prime > 0.0 && params.eps_prime < 1.0);
  SUBSTREAM_CHECK(params.max_depth >= 0 && params.max_depth <= 62);
  SUBSTREAM_CHECK(params.cs_depth >= 1 &&
                  params.cs_depth <= CounterTable<std::int64_t>::kMaxDepth);
  SUBSTREAM_CHECK(params.cs_width >= 2);
  SUBSTREAM_CHECK(params.heavy_factor > 0.0);
  candidate_capacity_ = params.candidate_capacity != 0
                            ? params.candidate_capacity
                            : static_cast<std::size_t>(4 * params.cs_width);
  exact_capacity_ = params.exact_capacity != 0
                        ? params.exact_capacity
                        : static_cast<std::size_t>(2 * params.cs_width);
  depths_.reserve(static_cast<std::size_t>(params.max_depth) + 1);
  for (int t = 0; t <= params.max_depth; ++t) {
    depths_.push_back(DepthSlot{
        CountSketch(params.cs_depth, params.cs_width,
                    DeriveSeed(seed, 0x100 + static_cast<std::uint64_t>(t)),
                    params.cell_width),
        CandidatePool<double>(candidate_capacity_),
        {},
        true});
  }
}

int IndykWoodruffEstimator::DepthOf(item_t item) const {
  const std::uint64_t h = depth_hash_.Hash(item);
  // Trailing zeros give a geometric depth; h == 0 maps to the deepest level.
  const int tz = h == 0 ? 64 : __builtin_ctzll(h);
  return std::min(tz, params_.max_depth);
}

void IndykWoodruffEstimator::Update(const PrehashedItem& ph, count_t count) {
  SUBSTREAM_CHECK(count >= 1);
  total_ += count;
  const item_t item = ph.item;
  const int item_depth = DepthOf(item);
  for (int t = 0; t <= item_depth; ++t) {
    DepthSlot& slot = depths_[static_cast<std::size_t>(t)];
    // Fused add + estimate: identical in effect to Update then Estimate,
    // with one bucket/sign derivation per row instead of two.
    const double estimate =
        slot.sketch.UpdateAndEstimate(ph, static_cast<std::int64_t>(count));
    if (slot.exact_valid) {
      slot.exact[item] += count;
      if (slot.exact.size() > exact_capacity_) {
        slot.exact.clear();
        slot.exact_valid = false;
      }
    }
    // Only items that currently clear (half of) the recoverability
    // threshold, and whose estimate reaches one occurrence, enter the
    // candidate pool; this keeps insertions rare and the pool populated
    // with genuinely heavy items.
    const double threshold_sq = 0.5 * params_.heavy_factor *
                                slot.sketch.EstimateF2() /
                                static_cast<double>(params_.cs_width);
    if (estimate * estimate >= threshold_sq && estimate >= 1.0) {
      slot.candidates.Offer(item, estimate);
    }
  }
}

void IndykWoodruffEstimator::UpdatePrehashed(PrehashedColumns cols,
                                             std::size_t n, count_t weight) {
  SUBSTREAM_CHECK(weight >= 1);
  for (std::size_t i = 0; i < n; ++i) Update(cols.At(i), weight);
}

void IndykWoodruffEstimator::Reset() {
  for (DepthSlot& slot : depths_) {
    slot.sketch.Reset();
    slot.candidates.Clear();
    slot.exact.clear();
    slot.exact_valid = true;
  }
  total_ = 0;
}

bool IndykWoodruffEstimator::MergeCompatibleWith(
    const IndykWoodruffEstimator& other) const {
  if (seed_ != other.seed_ || params_.cs_width != other.params_.cs_width ||
      params_.cs_depth != other.params_.cs_depth ||
      params_.max_depth != other.params_.max_depth ||
      depths_.size() != other.depths_.size()) {
    return false;
  }
  // Per-slot sketches carry their own seeds; a decoded record may agree on
  // the top-level header yet hold a foreign slot (the decoder checks
  // geometry, not seeds), so the deep check walks all of them.
  for (std::size_t t = 0; t < depths_.size(); ++t) {
    if (!depths_[t].sketch.MergeCompatibleWith(other.depths_[t].sketch)) {
      return false;
    }
  }
  return true;
}

void IndykWoodruffEstimator::Merge(const IndykWoodruffEstimator& other,
                                   double weight) {
  SUBSTREAM_CHECK_MSG(MergeCompatibleWith(other),
                      "merging incompatible level-set structures");
  total_ += ScaleCounter(other.total_, weight);
  for (std::size_t t = 0; t < depths_.size(); ++t) {
    DepthSlot& slot = depths_[t];
    const DepthSlot& from = other.depths_[t];
    slot.sketch.Merge(from.sketch, weight);  // validates the weight
    if (slot.exact_valid && from.exact_valid) {
      MergeCounts(slot.exact, from.exact, weight);
      if (slot.exact.size() > exact_capacity_) {
        slot.exact.clear();
        slot.exact_valid = false;
      }
    } else if (slot.exact_valid) {
      slot.exact.clear();
      slot.exact_valid = false;
    }
    // Union candidate pools: `other`'s items are re-estimated against the
    // merged sketch, but this side's held estimates are not refreshed
    // (unlike the heavy-hitter trackers) — changing that moves merged bytes.
    for (const auto& [item, stale] : from.candidates.map()) {
      (void)stale;
      const double estimate = slot.sketch.Estimate(item);
      if (estimate >= 1.0) slot.candidates.Offer(item, estimate);
    }
  }
}

std::vector<LevelSetEstimate> IndykWoodruffEstimator::EstimateLevelSets()
    const {
  std::vector<LevelSetEstimate> out;
  if (total_ == 0) return out;

  // Heavy (recoverable) threshold per depth: g^2 >= heavy_factor * F2_t / w.
  std::vector<double> f2_at_depth(depths_.size());
  for (std::size_t t = 0; t < depths_.size(); ++t) {
    f2_at_depth[t] = depths_[t].sketch.EstimateF2();
  }
  const double f2_full = std::max(1.0, f2_at_depth[0]);

  // Depth at which members of a level of value v become recoverable:
  // v^2 >= heavy_factor * F2(L_0) / (w * 2^t)  =>  2^t >= hf*F2/(w v^2).
  auto depth_for = [&](double v) {
    const double need =
        params_.heavy_factor * f2_full / (params_.cs_width * v * v);
    if (need <= 1.0) return 0;
    return std::min(params_.max_depth,
                    static_cast<int>(std::ceil(std::log2(need))));
  };
  // Shallowest depth whose substream is still exactly counted; -1 if none.
  int exact_depth = -1;
  for (std::size_t t = 0; t < depths_.size(); ++t) {
    if (depths_[t].exact_valid) {
      exact_depth = static_cast<int>(t);
      break;
    }
  }
  // Small frequencies go to exact integer bins 1..g0; geometric levels
  // start strictly above that range.
  const int g0 = std::max(1, params_.integer_bin_max);
  const double geometric_start = static_cast<double>(g0) + 0.5;

  // One source's surviving members, classified once: the integer bin j
  // (g in [j - 0.5, j + 0.5)) or the geometric level LevelIndex(g) of
  // each, sorted so a level's member count is one equal_range.
  struct Classified {
    bool ready = false;
    std::vector<int> bins;
    std::vector<int> levels;
  };
  auto classify = [&](Classified& c, double g) {
    if (g >= geometric_start) {
      c.levels.push_back(LevelIndex(g, eta_, params_.eps_prime));
      return;
    }
    // g < g0 + 0.5, so only bins up to g0 can hold it. The rounded value
    // is within one of the bin; the bin predicate itself decides.
    const int r = static_cast<int>(std::floor(g + 0.5));
    for (int j = std::max(1, r - 1); j <= std::min(g0, r + 1); ++j) {
      const double v = static_cast<double>(j);
      if (g >= v - 0.5 && g < v + 0.5) c.bins.push_back(j);
    }
  };
  auto finish = [](Classified& c) {
    std::sort(c.bins.begin(), c.bins.end());
    std::sort(c.levels.begin(), c.levels.end());
    c.ready = true;
  };
  auto members_of = [](const std::vector<int>& sorted, int key) {
    const auto range = std::equal_range(sorted.begin(), sorted.end(), key);
    return static_cast<double>(range.second - range.first);
  };
  Classified exact;
  std::vector<Classified> sketched(depths_.size());

  // The source a level is read from, walked on first use only: the exact
  // sparse counts (more members, zero classification noise) whenever a
  // depth no deeper than the CountSketch-recoverable one is exactly
  // counted, else that depth's candidates whose estimate reaches half an
  // occurrence and clears its heavy threshold. `exact_slack` relaxes the
  // depth comparison: integer bins pass a small slack because CountSketch
  // classification leaks *phantom* members into small-frequency bins
  // (light items whose point estimate collides upward past the heavy
  // threshold — a systematic overestimate), while their populous level
  // sets tolerate the <= 2^slack extra subsample variance. Geometric
  // levels pass zero: they can hold O(1) genuinely-heavy members whose
  // recovery CountSketch handles reliably, and any avoidable subsampling
  // there is catastrophic. Returns {classified members, depth used}.
  struct Source {
    const Classified* members;
    int depth;
  };
  auto source = [&](int t_sketch, int exact_slack) -> Source {
    if (exact_depth >= 0 && exact_depth <= t_sketch + exact_slack) {
      if (!exact.ready) {
        const DepthSlot& slot =
            depths_[static_cast<std::size_t>(exact_depth)];
        for (const auto& [item, g] : slot.exact) {
          (void)item;
          classify(exact, static_cast<double>(g));
        }
        finish(exact);
      }
      return {&exact, exact_depth};
    }
    Classified& c = sketched[static_cast<std::size_t>(t_sketch)];
    if (!c.ready) {
      const DepthSlot& slot = depths_[static_cast<std::size_t>(t_sketch)];
      const double heavy_threshold_sq =
          params_.heavy_factor *
          f2_at_depth[static_cast<std::size_t>(t_sketch)] /
          static_cast<double>(params_.cs_width);
      for (const auto& [item, stale] : slot.candidates.map()) {
        (void)stale;
        const double g_hat = slot.sketch.Estimate(item);
        if (g_hat < 0.5) continue;
        if (g_hat * g_hat < heavy_threshold_sq) continue;
        classify(c, g_hat);
      }
      finish(c);
    }
    return {&c, t_sketch};
  };

  // Small frequencies: exact integer bins. C(g, l) is non-smooth near
  // g = l (it jumps from 0 to 1), so a geometric boundary that lands just
  // below an integer misprices the whole level; rounding the recovered
  // estimates to integers is exact there.
  constexpr int kIntegerBinExactSlack = 2;
  for (int j = 1; j <= g0; ++j) {
    const double v = static_cast<double>(j);
    const Source src = source(depth_for(v), kIntegerBinExactSlack);
    const double members = members_of(src.members->bins, j);
    if (members == 0.0) continue;
    LevelSetEstimate est;
    est.level = j;
    est.value = v;
    est.size = members * std::ldexp(1.0, src.depth);
    est.depth = src.depth;
    est.integer_bin = true;
    out.push_back(est);
  }

  // Larger frequencies: geometric levels.
  const double base = 1.0 + params_.eps_prime;
  const int max_level =
      LevelIndex(static_cast<double>(total_), eta_, params_.eps_prime) + 1;
  for (int i = 0; i <= max_level; ++i) {
    const double v = eta_ * std::pow(base, i);
    if (v * base <= geometric_start) continue;  // covered by integer bins
    const Source src =
        source(depth_for(std::max(v, geometric_start)), /*exact_slack=*/0);
    const double members = members_of(src.members->levels, i);
    if (members == 0.0) continue;
    LevelSetEstimate est;
    est.level = i;
    est.value = v;
    est.size = members * std::ldexp(1.0, src.depth);
    est.depth = src.depth;
    out.push_back(est);
  }
  return out;
}

double IndykWoodruffEstimator::EstimateCollisions(int l) const {
  return EstimateCollisions(l, l).front();
}

std::vector<double> IndykWoodruffEstimator::EstimateCollisions(
    int first, int last) const {
  // Integer bins are exact; members of a geometric level have g in
  // [v_i, v_i (1+eps')) and are evaluated at the midpoint, which halves
  // the systematic discretization bias relative to the paper's lower
  // boundary (ablation A1) while staying inside the eps' envelope.
  return SumPerOrder(EstimateLevelSets(), first, last,
                     [&](const LevelSetEstimate& s, int l) {
                       const double value =
                           s.integer_bin ? s.value : LevelMidValue(s.value);
                       return s.size * BinomialDouble(value, l);
                     });
}

double IndykWoodruffEstimator::EstimateMoment(int k) const {
  SUBSTREAM_CHECK(k >= 0);
  KahanSum sum;
  for (const LevelSetEstimate& s : EstimateLevelSets()) {
    const double value =
        s.integer_bin ? s.value : LevelMidValue(s.value);
    sum.Add(s.size * std::pow(value, k));
  }
  return sum.Value();
}

double IndykWoodruffEstimator::LevelMidValue(double lower_boundary) const {
  return lower_boundary * (1.0 + 0.5 * params_.eps_prime);
}

void IndykWoodruffEstimator::Serialize(serde::Writer& out) const {
  out.Record(serde::TypeTag::kIndykWoodruffEstimator);
  out.F64(params_.eps_prime);
  out.Varint(static_cast<std::uint64_t>(params_.max_depth));
  out.Varint(static_cast<std::uint64_t>(params_.cs_depth));
  out.Varint(params_.cs_width);
  out.F64(params_.heavy_factor);
  out.Varint(params_.candidate_capacity);
  out.Varint(static_cast<std::uint64_t>(params_.integer_bin_max));
  out.Varint(params_.exact_capacity);
  out.U8(static_cast<std::uint8_t>(params_.cell_width));
  out.U64(seed_);
  out.Varint(total_);
  for (const DepthSlot& slot : depths_) {
    slot.sketch.Serialize(out);
    serde::WriteDoubleMap(out, slot.candidates.map());
    serde::WriteCountMap(out, slot.exact);
    out.Bool(slot.exact_valid);
  }
}

std::optional<IndykWoodruffEstimator> IndykWoodruffEstimator::Deserialize(
    serde::Reader& in) {
  if (!in.ExpectRecord(serde::TypeTag::kIndykWoodruffEstimator)) {
    return std::nullopt;
  }
  LevelSetParams params;
  params.eps_prime = in.F64();
  const std::uint64_t max_depth = in.Varint();
  const std::uint64_t cs_depth = in.Varint();
  params.cs_width = in.Varint();
  params.heavy_factor = in.F64();
  params.candidate_capacity = in.Varint();
  const std::uint64_t integer_bin_max = in.Varint();
  params.exact_capacity = in.Varint();
  std::uint8_t cell_width = static_cast<std::uint8_t>(CellWidth::k64);
  if (in.record_version() >= 3) {
    cell_width = in.U8();
    if (cell_width > static_cast<std::uint8_t>(CellWidth::k64)) {
      return std::nullopt;
    }
  }
  params.cell_width = static_cast<CellWidth>(cell_width);
  const std::uint64_t seed = in.U64();
  const count_t total = in.Varint();
  // Mirror the constructor checks on untrusted input, then bound the total
  // counter allocation by the bytes present before constructing anything.
  if (!in.ok() || !serde::ValidOpenUnit(params.eps_prime) || max_depth > 62 ||
      cs_depth < 1 || cs_depth > 64 || params.cs_width < 2 ||
      params.cs_width > (1ULL << 48) ||
      !serde::ValidPositive(params.heavy_factor) ||
      params.candidate_capacity > (1ULL << 48) ||
      integer_bin_max > (1ULL << 20) ||
      params.exact_capacity > (1ULL << 48)) {
    return std::nullopt;
  }
  params.max_depth = static_cast<int>(max_depth);
  params.cs_depth = static_cast<int>(cs_depth);
  params.integer_bin_max = static_cast<int>(integer_bin_max);
  if (!in.CanHold((max_depth + 1) * cs_depth * params.cs_width, 1)) {
    return std::nullopt;
  }
  IndykWoodruffEstimator estimator(params, seed);
  estimator.total_ = total;
  for (DepthSlot& slot : estimator.depths_) {
    auto sketch = CountSketch::Deserialize(in);
    if (!sketch || sketch->depth() != params.cs_depth ||
        sketch->width() != params.cs_width) {
      return std::nullopt;
    }
    slot.sketch = std::move(*sketch);
    if (!serde::ReadDoubleMap(in, &slot.candidates.map())) {
      return std::nullopt;
    }
    if (!serde::ReadCountMap(in, &slot.exact)) return std::nullopt;
    slot.exact_valid = in.Bool();
    // Exact counts are >= 1. Their sum is not checked against total_:
    // decayed merges round each count and the total separately.
    if (slot.candidates.size() > estimator.candidate_capacity_ ||
        slot.exact.size() > estimator.exact_capacity_ ||
        !CountMapMass(slot.exact)) {
      return std::nullopt;
    }
  }
  if (!in.ok()) return std::nullopt;
  return estimator;
}

std::size_t IndykWoodruffEstimator::SpaceBytes() const {
  std::size_t bytes = sizeof(*this) + depth_hash_.SpaceBytes();
  for (const DepthSlot& slot : depths_) {
    bytes += slot.sketch.SpaceBytes();
    bytes += slot.candidates.SpaceBytes();
    bytes += slot.exact.size() * (sizeof(item_t) + sizeof(count_t));
  }
  return bytes;
}

obs::SummaryHealth IndykWoodruffEstimator::Health() const {
  obs::SummaryHealth health;
  health.kind = "countsketch_levels";
  health.depth = static_cast<std::uint64_t>(params_.cs_depth);
  health.width = params_.cs_width;
  for (const DepthSlot& slot : depths_) {
    const obs::SummaryHealth h = slot.sketch.Health();
    health.cells += h.cells;
    health.nonzero_cells += h.nonzero_cells;
    health.spilled_cells += h.spilled_cells;
  }
  health.epsilon = obs::CountSketchEpsilon(params_.cs_width);
  health.delta =
      obs::CountSketchDelta(static_cast<std::uint64_t>(params_.cs_depth));
  health.space_bytes = SpaceBytes();
  obs::FinalizeRatios(health);
  return health;
}

ExactLevelSets::ExactLevelSets(double eps_prime, double eta)
    : eps_prime_(eps_prime), eta_(eta) {
  SUBSTREAM_CHECK(eps_prime > 0.0 && eps_prime < 1.0);
  SUBSTREAM_CHECK(eta > 0.0 && eta <= 1.0);
}

void ExactLevelSets::Update(item_t item, count_t count) {
  SUBSTREAM_CHECK(count >= 1);
  counts_[item] += count;
  total_ += count;
}

bool ExactLevelSets::MergeCompatibleWith(const ExactLevelSets& other) const {
  return eps_prime_ == other.eps_prime_ && eta_ == other.eta_;
}

void ExactLevelSets::Merge(const ExactLevelSets& other, double weight) {
  SUBSTREAM_CHECK_MSG(ValidMergeWeight(weight),
                      "level-set decayed-merge weight %f outside (0, 1]",
                      weight);
  SUBSTREAM_CHECK_MSG(MergeCompatibleWith(other),
                      "merging level-set references with different "
                      "discretizations");
  total_ += MergeCounts(counts_, other.counts_, weight);
}

void ExactLevelSets::Serialize(serde::Writer& out) const {
  out.Record(serde::TypeTag::kExactLevelSets);
  out.F64(eps_prime_);
  out.F64(eta_);
  out.Varint(total_);
  serde::WriteCountMap(out, counts_);
}

std::optional<ExactLevelSets> ExactLevelSets::Deserialize(serde::Reader& in) {
  if (!in.ExpectRecord(serde::TypeTag::kExactLevelSets)) return std::nullopt;
  const double eps_prime = in.F64();
  const double eta = in.F64();
  const count_t total = in.Varint();
  if (!in.ok() || !serde::ValidOpenUnit(eps_prime) ||
      !serde::ValidProbability(eta)) {
    return std::nullopt;
  }
  ExactLevelSets levels(eps_prime, eta);
  levels.total_ = total;
  if (!serde::ReadCountMap(in, &levels.counts_)) return std::nullopt;
  // total_ is the sum of the counts, each at least 1.
  if (CountMapMass(levels.counts_) != total) return std::nullopt;
  return levels;
}

std::vector<LevelSetEstimate> ExactLevelSets::EstimateLevelSets() const {
  std::unordered_map<int, double> sizes;
  for (const auto& [item, g] : counts_) {
    (void)item;
    ++sizes[LevelIndex(static_cast<double>(g), eta_, eps_prime_)];
  }
  std::vector<LevelSetEstimate> out;
  out.reserve(sizes.size());
  for (const auto& [level, size] : sizes) {
    LevelSetEstimate est;
    est.level = level;
    est.value = eta_ * std::pow(1.0 + eps_prime_, level);
    est.size = size;
    est.depth = 0;
    out.push_back(est);
  }
  std::sort(out.begin(), out.end(),
            [](const LevelSetEstimate& a, const LevelSetEstimate& b) {
              return a.level < b.level;
            });
  return out;
}

double ExactLevelSets::EstimateCollisions(int l) const {
  return EstimateCollisions(l, l).front();
}

std::vector<double> ExactLevelSets::EstimateCollisions(int first,
                                                       int last) const {
  // Same midpoint rule as the sketch (see IndykWoodruffEstimator).
  return SumPerOrder(EstimateLevelSets(), first, last,
                     [&](const LevelSetEstimate& s, int l) {
                       return s.size * BinomialDouble(
                                           s.value * (1.0 + 0.5 * eps_prime_),
                                           l);
                     });
}

double ExactLevelSets::ExactCollisions(int l) const {
  return ExactCollisions(l, l).front();
}

std::vector<double> ExactLevelSets::ExactCollisions(int first,
                                                    int last) const {
  return SumPerOrder(counts_, first, last, [](const auto& entry, int l) {
    return BinomialDouble(static_cast<double>(entry.second), l);
  });
}

double ExactLevelSets::ExactMoment(int k) const {
  SUBSTREAM_CHECK(k >= 0);
  KahanSum sum;
  for (const auto& [item, g] : counts_) {
    (void)item;
    sum.Add(std::pow(static_cast<double>(g), k));
  }
  return sum.Value();
}

}  // namespace substream
