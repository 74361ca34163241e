#include "core/fk_estimator.h"

#include <algorithm>
#include <cmath>

#include "core/collision.h"
#include "plan/accuracy.h"
#include "serde/serde.h"
#include "util/hash.h"
#include "util/math.h"

namespace substream {

double FkEstimator::MinSamplingProbability(int k, item_t m, std::uint64_t n) {
  SUBSTREAM_CHECK(k >= 1);
  const double base = static_cast<double>(std::min<std::uint64_t>(m, n));
  return std::pow(base, -1.0 / static_cast<double>(k));
}

std::uint64_t FkEstimator::SketchWidth(const FkParams& params) {
  const double m = static_cast<double>(params.universe);
  const double exponent = 1.0 - 2.0 / static_cast<double>(params.k);
  const double base_width = std::pow(m, std::max(0.0, exponent)) / params.p;
  const double scaled = params.space_multiplier * base_width /
                        (params.epsilon * params.epsilon);
  std::uint64_t width = std::max<std::uint64_t>(
      64, static_cast<std::uint64_t>(std::ceil(scaled)));
  if (params.max_width != 0) width = std::min(width, params.max_width);
  return width;
}

FkEstimator::FkEstimator(const FkParams& params, std::uint64_t seed)
    : params_(params), schedule_(EpsilonSchedule(params.k, params.epsilon)) {
  SUBSTREAM_CHECK(params.k >= 1 && params.k <= 12);
  SUBSTREAM_CHECK(params.epsilon > 0.0 && params.epsilon < 1.0);
  SUBSTREAM_CHECK(params.delta > 0.0 && params.delta < 1.0);
  SUBSTREAM_CHECK_MSG(params.p > 0.0 && params.p <= 1.0,
                      "sampling probability p=%f", params.p);

  // The level-set ratio uses the finest epsilon of the schedule, eps_1 / 4
  // (Section 3.1 sets eps' = eps_{l-1}/4; a single structure serves every l
  // by using the smallest).
  const double eps_prime =
      std::max(0.01, std::min(0.5, schedule_.front() / 4.0));

  switch (params.backend) {
    case CollisionBackend::kSketch: {
      LevelSetParams ls;
      ls.eps_prime = eps_prime;
      ls.cs_width = SketchWidth(params);
      // Shared with the planner (plan/accuracy.h), which inverts targets
      // through this exact chain.
      ls.cs_depth = plan::LevelSetDepthFromDelta(params.delta);
      ls.max_depth = CeilLog2(std::max<item_t>(2, params.universe));
      ls.cell_width = params.cell_width;
      sketch_backend_ = std::make_unique<IndykWoodruffEstimator>(
          ls, DeriveSeed(seed, 0xf17));
      break;
    }
    case CollisionBackend::kExactCollisions:
    case CollisionBackend::kExactLevelSets: {
      exact_backend_ = std::make_unique<ExactLevelSets>(
          eps_prime, DrawEta(DeriveSeed(seed, 0xf18)));
      break;
    }
  }
}

FkEstimator::FkEstimator(DeserializeTag, const FkParams& params)
    : params_(params), schedule_(EpsilonSchedule(params.k, params.epsilon)) {}

FkEstimator::~FkEstimator() = default;
FkEstimator::FkEstimator(FkEstimator&&) noexcept = default;
FkEstimator& FkEstimator::operator=(FkEstimator&&) noexcept = default;

void FkEstimator::Update(item_t item) {
  ++sampled_length_;
  if (sketch_backend_) {
    sketch_backend_->Update(item);
  } else {
    exact_backend_->Update(item);
  }
}

void FkEstimator::UpdatePrehashed(PrehashedColumns cols, std::size_t n,
                                  count_t weight) {
  sampled_length_ += n * weight;
  if (sketch_backend_) {
    sketch_backend_->UpdatePrehashed(cols, n, weight);
  } else if (weight == 1) {
    exact_backend_->UpdatePrehashed(cols, n);
  } else {
    for (std::size_t i = 0; i < n; ++i)
      exact_backend_->Update(cols.items[i], weight);
  }
}

bool FkEstimator::MergeCompatibleWith(const FkEstimator& other) const {
  if (params_.k != other.params_.k ||
      params_.backend != other.params_.backend ||
      params_.p != other.params_.p) {
    return false;
  }
  if (static_cast<bool>(sketch_backend_) !=
      static_cast<bool>(other.sketch_backend_)) {
    return false;
  }
  if (sketch_backend_) {
    return sketch_backend_->MergeCompatibleWith(*other.sketch_backend_);
  }
  return exact_backend_->MergeCompatibleWith(*other.exact_backend_);
}

void FkEstimator::Merge(const FkEstimator& other, double weight) {
  SUBSTREAM_CHECK_MSG(MergeCompatibleWith(other),
                      "merging Fk estimators with different configurations");
  sampled_length_ += ScaleCounter(other.sampled_length_, weight);
  if (sketch_backend_) {
    sketch_backend_->Merge(*other.sketch_backend_, weight);
  } else {
    exact_backend_->Merge(*other.exact_backend_, weight);
  }
}

void FkEstimator::Reset() {
  sampled_length_ = 0;
  if (sketch_backend_) {
    sketch_backend_->Reset();
  } else {
    exact_backend_->Reset();
  }
}

std::vector<double> FkEstimator::CollisionEstimates() const {
  if (params_.k < 2) return {};
  // One readout serves every l = 2..k.
  switch (params_.backend) {
    case CollisionBackend::kSketch:
      return sketch_backend_->EstimateCollisions(2, params_.k);
    case CollisionBackend::kExactCollisions:
      return exact_backend_->ExactCollisions(2, params_.k);
    case CollisionBackend::kExactLevelSets:
      return exact_backend_->EstimateCollisions(2, params_.k);
  }
  return {};
}

std::vector<double> FkEstimator::AllMoments() const {
  std::vector<double> phi;
  phi.reserve(static_cast<std::size_t>(params_.k));
  // phi~_1 = F1(L) / p: the sampled length, unbiased by 1/p (Chernoff-tight).
  phi.push_back(static_cast<double>(sampled_length_) / params_.p);
  const std::vector<double> collisions = CollisionEstimates();
  for (int l = 2; l <= params_.k; ++l) {
    const double collisions_sampled =
        collisions[static_cast<std::size_t>(l - 2)];
    const double collisions_original =
        UnbiasedOriginalCollisions(collisions_sampled, params_.p, l);
    double value = MomentFromCollisions(l, collisions_original, phi);
    // Practical guard: F_l >= F_{l-1} for integer frequencies, so clamp the
    // recursion against noise-driven negatives at small p.
    value = std::max(value, phi.back());
    phi.push_back(value);
  }
  return phi;
}

double FkEstimator::Estimate() const { return AllMoments().back(); }

std::size_t FkEstimator::SpaceBytes() const {
  if (sketch_backend_) return sketch_backend_->SpaceBytes();
  return exact_backend_->SpaceBytes();
}

void FkEstimator::AppendHealth(const std::string& name,
                               std::vector<obs::SummaryHealth>* out) const {
  if (sketch_backend_) {
    obs::SummaryHealth health = sketch_backend_->Health();
    health.name = name;
    out->push_back(std::move(health));
    return;
  }
  obs::SummaryHealth health;
  health.name = name;
  health.kind = "exact_level_sets";
  health.space_bytes = SpaceBytes();
  obs::FinalizeRatios(health);
  out->push_back(std::move(health));
}

void FkEstimator::Serialize(serde::Writer& out) const {
  out.Record(serde::TypeTag::kFkEstimator);
  out.Varint(static_cast<std::uint64_t>(params_.k));
  out.F64(params_.epsilon);
  out.F64(params_.delta);
  out.F64(params_.p);
  out.Varint(params_.universe);
  out.Varint(params_.n_hint);
  out.U8(static_cast<std::uint8_t>(params_.backend));
  out.F64(params_.space_multiplier);
  out.Varint(params_.max_width);
  out.U8(static_cast<std::uint8_t>(params_.cell_width));
  out.Varint(sampled_length_);
  if (sketch_backend_) {
    sketch_backend_->Serialize(out);
  } else {
    exact_backend_->Serialize(out);
  }
}

std::optional<FkEstimator> FkEstimator::Deserialize(serde::Reader& in) {
  if (!in.ExpectRecord(serde::TypeTag::kFkEstimator)) return std::nullopt;
  FkParams params;
  const std::uint64_t k = in.Varint();
  params.epsilon = in.F64();
  params.delta = in.F64();
  params.p = in.F64();
  params.universe = in.Varint();
  params.n_hint = in.Varint();
  const std::uint8_t backend = in.U8();
  params.space_multiplier = in.F64();
  params.max_width = in.Varint();
  std::uint8_t cell_width = static_cast<std::uint8_t>(CellWidth::k64);
  if (in.record_version() >= 3) cell_width = in.U8();
  const count_t sampled_length = in.Varint();
  if (!in.ok() || k < 1 || k > 12 || !serde::ValidOpenUnit(params.epsilon) ||
      !serde::ValidOpenUnit(params.delta) ||
      !serde::ValidProbability(params.p) || backend > 2 ||
      cell_width > static_cast<std::uint8_t>(CellWidth::k64) ||
      !serde::ValidPositive(params.space_multiplier)) {
    return std::nullopt;
  }
  params.cell_width = static_cast<CellWidth>(cell_width);
  params.k = static_cast<int>(k);
  params.backend = static_cast<CollisionBackend>(backend);
  FkEstimator estimator(DeserializeTag{}, params);
  estimator.sampled_length_ = sampled_length;
  if (params.backend == CollisionBackend::kSketch) {
    auto sketch = IndykWoodruffEstimator::Deserialize(in);
    if (!sketch) return std::nullopt;
    estimator.sketch_backend_ =
        std::make_unique<IndykWoodruffEstimator>(std::move(*sketch));
  } else {
    auto exact = ExactLevelSets::Deserialize(in);
    if (!exact) return std::nullopt;
    estimator.exact_backend_ =
        std::make_unique<ExactLevelSets>(std::move(*exact));
  }
  return estimator;
}

}  // namespace substream
