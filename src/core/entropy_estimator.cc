#include "core/entropy_estimator.h"

#include <cmath>

#include "serde/serde.h"
#include "util/hash.h"

namespace substream {

double EntropyEstimator::ValidityThreshold(double p, double n) {
  SUBSTREAM_CHECK(p > 0.0 && p <= 1.0);
  if (n <= 0.0) return 0.0;
  return 1.0 / (std::sqrt(p) * std::pow(n, 1.0 / 6.0));
}

EntropyEstimator::EntropyEstimator(const EntropyParams& params,
                                   std::uint64_t seed)
    : params_(params) {
  SUBSTREAM_CHECK_MSG(params.p > 0.0 && params.p <= 1.0,
                      "sampling probability p=%f", params.p);
  switch (params.backend) {
    case EntropyBackend::kMle:
    case EntropyBackend::kMillerMadow:
      mle_ = std::make_unique<EntropyMleEstimator>();
      break;
    case EntropyBackend::kAmsSketch:
      ams_ = std::make_unique<AmsEntropySketch>(params.epsilon, params.delta,
                                                DeriveSeed(seed, 3));
      break;
  }
}

EntropyEstimator::~EntropyEstimator() = default;
EntropyEstimator::EntropyEstimator(EntropyEstimator&&) noexcept = default;
EntropyEstimator& EntropyEstimator::operator=(EntropyEstimator&&) noexcept =
    default;

void EntropyEstimator::Update(item_t item) {
  ++sampled_length_;
  if (mle_) {
    mle_->Update(item);
  } else {
    ams_->Update(item);
  }
}

void EntropyEstimator::UpdatePrehashed(PrehashedColumns cols, std::size_t n,
                                       count_t weight) {
  if (weight == 1) {
    sampled_length_ += n;
    if (mle_) {
      mle_->UpdatePrehashed(cols, n);
    } else {
      ams_->UpdatePrehashed(cols, n);
    }
    return;
  }
  SUBSTREAM_CHECK_MSG(static_cast<bool>(mle_),
                      "weighted (sampled) updates are unsupported for the "
                      "AMS entropy backend");
  sampled_length_ += n * weight;
  for (std::size_t i = 0; i < n; ++i) mle_->Update(cols.items[i], weight);
}

bool EntropyEstimator::MergeCompatibleWith(
    const EntropyEstimator& other) const {
  if (params_.backend != other.params_.backend ||
      params_.p != other.params_.p) {
    return false;
  }
  if (static_cast<bool>(mle_) != static_cast<bool>(other.mle_)) return false;
  if (mle_) return mle_->MergeCompatibleWith(*other.mle_);
  return ams_->MergeCompatibleWith(*other.ams_);
}

void EntropyEstimator::Merge(const EntropyEstimator& other, double weight) {
  SUBSTREAM_CHECK_MSG(MergeCompatibleWith(other),
                      "merging entropy estimators with different "
                      "configurations");
  // The AMS reservoir holds sampled stream *positions*; there is no
  // meaningful way to scale a position's contribution, so decayed merges
  // are an MLE-backend feature (which is what Monitor uses).
  SUBSTREAM_CHECK_MSG(mle_ || weight == 1.0,
                      "decayed merge is unsupported for the AMS entropy "
                      "backend");
  sampled_length_ += ScaleCounter(other.sampled_length_, weight);
  if (mle_) {
    mle_->Merge(*other.mle_, weight);
  } else {
    ams_->Merge(*other.ams_);
  }
}

void EntropyEstimator::Reset() {
  sampled_length_ = 0;
  if (mle_) {
    mle_->Reset();
  } else {
    ams_->Reset();
  }
}

EntropyResult EntropyEstimator::Estimate() const {
  EntropyResult result;
  const double n = params_.n_hint > 0.0
                       ? params_.n_hint
                       : static_cast<double>(sampled_length_) / params_.p;
  result.threshold = ValidityThreshold(params_.p, n);

  if (mle_) {
    result.entropy = params_.backend == EntropyBackend::kMillerMadow
                         ? mle_->EstimateMillerMadow()
                         : mle_->Estimate();
    result.entropy_hpn =
        n > 0.0 ? mle_->EstimateHpn(params_.p * n) : result.entropy;
  } else {
    // Entropy is nonnegative; clamp the (unbiased, possibly negative)
    // sketch estimate at the reporting layer.
    result.entropy =
        sampled_length_ > 0 ? std::max(0.0, ams_->Estimate()) : 0.0;
    result.entropy_hpn = result.entropy;
  }
  // "omega(threshold)" is asymptotic; flag reliability once the estimate
  // clears a small constant multiple of the threshold.
  result.reliable = result.entropy > 4.0 * result.threshold;
  return result;
}

std::size_t EntropyEstimator::SpaceBytes() const {
  if (mle_) return mle_->SpaceBytes();
  return ams_->SpaceBytes();
}

void EntropyEstimator::Serialize(serde::Writer& out) const {
  out.Record(serde::TypeTag::kEntropyEstimator);
  out.F64(params_.p);
  out.F64(params_.n_hint);
  out.U8(static_cast<std::uint8_t>(params_.backend));
  out.F64(params_.epsilon);
  out.F64(params_.delta);
  out.Varint(sampled_length_);
  if (mle_) {
    mle_->Serialize(out);
  } else {
    ams_->Serialize(out);
  }
}

std::optional<EntropyEstimator> EntropyEstimator::Deserialize(
    serde::Reader& in) {
  if (!in.ExpectRecord(serde::TypeTag::kEntropyEstimator)) {
    return std::nullopt;
  }
  EntropyParams params;
  params.p = in.F64();
  params.n_hint = in.F64();
  const std::uint8_t backend = in.U8();
  params.epsilon = in.F64();
  params.delta = in.F64();
  const count_t sampled_length = in.Varint();
  if (!in.ok() || !serde::ValidProbability(params.p) || backend > 2 ||
      !std::isfinite(params.n_hint) || params.n_hint < 0.0) {
    return std::nullopt;
  }
  params.backend = static_cast<EntropyBackend>(backend);
  EntropyEstimator estimator(DeserializeTag{}, params);
  estimator.sampled_length_ = sampled_length;
  if (params.backend == EntropyBackend::kAmsSketch) {
    auto ams = AmsEntropySketch::Deserialize(in);
    if (!ams) return std::nullopt;
    estimator.ams_ = std::make_unique<AmsEntropySketch>(std::move(*ams));
  } else {
    auto mle = EntropyMleEstimator::Deserialize(in);
    if (!mle) return std::nullopt;
    estimator.mle_ = std::make_unique<EntropyMleEstimator>(std::move(*mle));
  }
  return estimator;
}

}  // namespace substream
