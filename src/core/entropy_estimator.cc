#include "core/entropy_estimator.h"

#include <cmath>

#include "serde/serde.h"

namespace substream {

// The wire record keeps the layout of the retired multi-backend estimator:
// a backend byte (0, the plug-in map) and two F64 accuracy targets that
// only the retired AMS backend read, written at their old defaults. The
// decoder accepts nothing else there, so decode -> encode stays byte-exact.
namespace {

constexpr std::uint8_t kRetiredBackend = 0;
constexpr double kRetiredEpsilon = 0.2;
constexpr double kRetiredDelta = 0.05;

}  // namespace

double EntropyEstimator::ValidityThreshold(double p, double n) {
  SUBSTREAM_CHECK(p > 0.0 && p <= 1.0);
  if (n <= 0.0) return 0.0;
  return 1.0 / (std::sqrt(p) * std::pow(n, 1.0 / 6.0));
}

EntropyEstimator::EntropyEstimator(const EntropyParams& params)
    : params_(params) {
  SUBSTREAM_CHECK_MSG(params.p > 0.0 && params.p <= 1.0,
                      "sampling probability p=%f", params.p);
}

void EntropyEstimator::Update(item_t item) {
  ++sampled_length_;
  mle_.Update(item);
}

void EntropyEstimator::UpdatePrehashed(PrehashedColumns cols, std::size_t n,
                                       count_t weight) {
  if (weight == 1) {
    sampled_length_ += n;
    mle_.UpdatePrehashed(cols, n);
    return;
  }
  sampled_length_ += n * weight;
  for (std::size_t i = 0; i < n; ++i) mle_.Update(cols.items[i], weight);
}

bool EntropyEstimator::MergeCompatibleWith(
    const EntropyEstimator& other) const {
  return params_.p == other.params_.p &&
         mle_.MergeCompatibleWith(other.mle_);
}

void EntropyEstimator::Merge(const EntropyEstimator& other, double weight) {
  SUBSTREAM_CHECK_MSG(MergeCompatibleWith(other),
                      "merging entropy estimators with different "
                      "configurations");
  sampled_length_ += ScaleCounter(other.sampled_length_, weight);
  mle_.Merge(other.mle_, weight);
}

void EntropyEstimator::Reset() {
  sampled_length_ = 0;
  mle_.Reset();
}

EntropyResult EntropyEstimator::Estimate() const {
  EntropyResult result;
  const double n = params_.n_hint > 0.0
                       ? params_.n_hint
                       : static_cast<double>(sampled_length_) / params_.p;
  result.threshold = ValidityThreshold(params_.p, n);
  const EntropyMleReadout read = mle_.Readout(n > 0.0 ? params_.p * n : 0.0);
  result.entropy = read.plug_in;
  result.entropy_hpn = n > 0.0 ? read.hpn : result.entropy;
  // "omega(threshold)" is asymptotic; flag reliability once the estimate
  // clears a small constant multiple of the threshold.
  result.reliable = result.entropy > 4.0 * result.threshold;
  return result;
}

std::size_t EntropyEstimator::SpaceBytes() const { return mle_.SpaceBytes(); }

void EntropyEstimator::Serialize(serde::Writer& out) const {
  out.Record(serde::TypeTag::kEntropyEstimator);
  out.F64(params_.p);
  out.F64(params_.n_hint);
  out.U8(kRetiredBackend);
  out.F64(kRetiredEpsilon);
  out.F64(kRetiredDelta);
  out.Varint(sampled_length_);
  mle_.Serialize(out);
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
  const double epsilon = in.F64();
  const double delta = in.F64();
  const count_t sampled_length = in.Varint();
  if (!in.ok() || !serde::ValidProbability(params.p) ||
      backend != kRetiredBackend || epsilon != kRetiredEpsilon ||
      delta != kRetiredDelta || !std::isfinite(params.n_hint) ||
      params.n_hint < 0.0) {
    return std::nullopt;
  }
  auto mle = EntropyMleEstimator::Deserialize(in);
  if (!mle) return std::nullopt;
  EntropyEstimator estimator(params);
  estimator.sampled_length_ = sampled_length;
  estimator.mle_ = std::move(*mle);
  return estimator;
}

}  // namespace substream
