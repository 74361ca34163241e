#include "core/heavy_hitters.h"

#include <algorithm>
#include <cmath>

#include "serde/serde.h"
#include "util/hash.h"

namespace substream {

namespace {

void ValidateParams(const HeavyHitterParams& params) {
  SUBSTREAM_CHECK(params.alpha > 0.0 && params.alpha <= 1.0);
  SUBSTREAM_CHECK(params.epsilon > 0.0 && params.epsilon < 1.0);
  SUBSTREAM_CHECK(params.delta > 0.0 && params.delta < 1.0);
  SUBSTREAM_CHECK_MSG(params.p > 0.0 && params.p <= 1.0,
                      "sampling probability p=%f", params.p);
}

bool WireValidParams(const HeavyHitterParams& params) {
  return serde::ValidProbability(params.alpha) &&
         serde::ValidOpenUnit(params.epsilon) &&
         serde::ValidOpenUnit(params.delta) &&
         serde::ValidProbability(params.p);
}

void SerializeParams(serde::Writer& out, const HeavyHitterParams& params) {
  out.F64(params.alpha);
  out.F64(params.epsilon);
  out.F64(params.delta);
  out.F64(params.p);
  out.U8(static_cast<std::uint8_t>(params.cell_width));
}

HeavyHitterParams DeserializeParams(serde::Reader& in) {
  HeavyHitterParams params;
  params.alpha = in.F64();
  params.epsilon = in.F64();
  params.delta = in.F64();
  params.p = in.F64();
  if (in.record_version() >= 3) {
    const std::uint8_t cw = in.U8();
    if (cw > static_cast<std::uint8_t>(CellWidth::k64)) {
      in.Fail();
      return params;
    }
    params.cell_width = static_cast<CellWidth>(cw);
  }
  return params;
}

}  // namespace

F1HeavyHitterEstimator::F1HeavyHitterEstimator(const HeavyHitterParams& params,
                                               std::uint64_t seed)
    : params_(params),
      // Theorem 6's remapping: alpha' = (1 - 2 eps/5) alpha, eps' = eps/2,
      // delta' = delta/4.
      alpha_prime_((1.0 - 0.4 * params.epsilon) * params.alpha),
      tracker_(alpha_prime_, params.epsilon / 2.0, params.delta / 4.0,
               DeriveSeed(seed, 0x441),
               CounterTableOptions{params.cell_width}) {
  ValidateParams(params);
}

void F1HeavyHitterEstimator::Update(item_t item) {
  ++sampled_length_;
  tracker_.Update(item);
}

void F1HeavyHitterEstimator::UpdatePrehashed(PrehashedColumns cols,
                                             std::size_t n, count_t weight) {
  sampled_length_ += n * weight;
  if (weight == 1) {
    tracker_.UpdatePrehashed(cols, n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) tracker_.Update(cols.At(i), weight);
}

bool F1HeavyHitterEstimator::MergeCompatibleWith(
    const F1HeavyHitterEstimator& other) const {
  return params_.alpha == other.params_.alpha &&
         params_.epsilon == other.params_.epsilon &&
         params_.p == other.params_.p &&
         tracker_.MergeCompatibleWith(other.tracker_);
}

void F1HeavyHitterEstimator::Merge(const F1HeavyHitterEstimator& other,
                                   double weight) {
  SUBSTREAM_CHECK_MSG(MergeCompatibleWith(other),
                      "merging F1 heavy-hitter estimators with different "
                      "configurations");
  sampled_length_ += ScaleCounter(other.sampled_length_, weight);
  tracker_.Merge(other.tracker_, weight);
}

void F1HeavyHitterEstimator::Reset() {
  sampled_length_ = 0;
  tracker_.Reset();
}

std::vector<HeavyHitter> F1HeavyHitterEstimator::Estimate() const {
  std::vector<HeavyHitter> out;
  for (const auto& [item, estimate] : tracker_.Candidates(alpha_prime_)) {
    out.push_back(HeavyHitter{
        item, static_cast<double>(estimate) / params_.p});
  }
  // Definition 4 caps the output at O(1/alpha) items.
  const std::size_t cap =
      static_cast<std::size_t>(std::ceil(2.0 / params_.alpha));
  if (out.size() > cap) out.resize(cap);
  return out;
}

void F1HeavyHitterEstimator::AppendHealth(
    const std::string& name, std::vector<obs::SummaryHealth>* out) const {
  obs::SummaryHealth health = tracker_.sketch().Health();
  health.name = name;
  out->push_back(std::move(health));
}

void F1HeavyHitterEstimator::Serialize(serde::Writer& out) const {
  out.Record(serde::TypeTag::kF1HeavyHitterEstimator);
  SerializeParams(out, params_);
  out.Varint(sampled_length_);
  tracker_.Serialize(out);
}

std::optional<F1HeavyHitterEstimator> F1HeavyHitterEstimator::Deserialize(
    serde::Reader& in) {
  if (!in.ExpectRecord(serde::TypeTag::kF1HeavyHitterEstimator)) {
    return std::nullopt;
  }
  const HeavyHitterParams params = DeserializeParams(in);
  const count_t sampled_length = in.Varint();
  if (!in.ok() || !WireValidParams(params)) return std::nullopt;
  auto tracker = CountMinHeavyHitters::Deserialize(in);
  if (!tracker) return std::nullopt;
  // Construct with fixed safe parameters (they only size the tracker the
  // nested record replaces; wire params with a tiny alpha would otherwise
  // drive an allocation bomb), then install the decoded state.
  F1HeavyHitterEstimator estimator(HeavyHitterParams{0.5, 0.5, 0.5, 1.0}, 0);
  estimator.params_ = params;
  estimator.alpha_prime_ = (1.0 - 0.4 * params.epsilon) * params.alpha;
  estimator.tracker_ = std::move(*tracker);
  estimator.sampled_length_ = sampled_length;
  return estimator;
}

double F1HeavyHitterEstimator::RequiredOriginalLength(
    const HeavyHitterParams& params, double n_hint) {
  constexpr double kC = 4.0;
  const double n = std::max(2.0, n_hint);
  return kC / (params.p * params.alpha * params.epsilon * params.epsilon) *
         std::log(n / params.delta);
}

F2HeavyHitterEstimator::F2HeavyHitterEstimator(const HeavyHitterParams& params,
                                               std::uint64_t seed)
    : params_(params),
      // Theorem 7's remapping: alpha' = (1 - 2 eps/5) alpha sqrt(p).
      alpha_prime_((1.0 - 0.4 * params.epsilon) * params.alpha *
                   std::sqrt(params.p)),
      // The Theorem 7 proof uses eps' = eps/10; eps/4 suffices in practice
      // and keeps the CountSketch width (~1/(eps' alpha')^2) manageable.
      // The sqrt(p) in alpha' is what drives the O~(1/p) space scaling.
      tracker_(alpha_prime_, params.epsilon / 4.0, params.delta / 4.0,
               DeriveSeed(seed, 0x442),
               CounterTableOptions{params.cell_width}) {
  ValidateParams(params);
}

void F2HeavyHitterEstimator::Update(item_t item) {
  ++sampled_length_;
  tracker_.Update(item);
}

void F2HeavyHitterEstimator::UpdatePrehashed(PrehashedColumns cols,
                                             std::size_t n, count_t weight) {
  sampled_length_ += n * weight;
  if (weight == 1) {
    tracker_.UpdatePrehashed(cols, n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) tracker_.Update(cols.At(i), weight);
}

bool F2HeavyHitterEstimator::MergeCompatibleWith(
    const F2HeavyHitterEstimator& other) const {
  return params_.alpha == other.params_.alpha &&
         params_.epsilon == other.params_.epsilon &&
         params_.p == other.params_.p &&
         tracker_.MergeCompatibleWith(other.tracker_);
}

void F2HeavyHitterEstimator::Merge(const F2HeavyHitterEstimator& other,
                                   double weight) {
  SUBSTREAM_CHECK_MSG(MergeCompatibleWith(other),
                      "merging F2 heavy-hitter estimators with different "
                      "configurations");
  sampled_length_ += ScaleCounter(other.sampled_length_, weight);
  tracker_.Merge(other.tracker_, weight);
}

void F2HeavyHitterEstimator::Reset() {
  sampled_length_ = 0;
  tracker_.Reset();
}

std::vector<HeavyHitter> F2HeavyHitterEstimator::Estimate() const {
  std::vector<HeavyHitter> out;
  for (const auto& [item, estimate] : tracker_.Candidates(alpha_prime_)) {
    out.push_back(HeavyHitter{item, estimate / params_.p});
  }
  const std::size_t cap =
      static_cast<std::size_t>(std::ceil(2.0 / params_.alpha));
  if (out.size() > cap) out.resize(cap);
  return out;
}

void F2HeavyHitterEstimator::AppendHealth(
    const std::string& name, std::vector<obs::SummaryHealth>* out) const {
  obs::SummaryHealth health = tracker_.sketch().Health();
  health.name = name;
  out->push_back(std::move(health));
}

void F2HeavyHitterEstimator::Serialize(serde::Writer& out) const {
  out.Record(serde::TypeTag::kF2HeavyHitterEstimator);
  SerializeParams(out, params_);
  out.Varint(sampled_length_);
  tracker_.Serialize(out);
}

std::optional<F2HeavyHitterEstimator> F2HeavyHitterEstimator::Deserialize(
    serde::Reader& in) {
  if (!in.ExpectRecord(serde::TypeTag::kF2HeavyHitterEstimator)) {
    return std::nullopt;
  }
  const HeavyHitterParams params = DeserializeParams(in);
  const count_t sampled_length = in.Varint();
  if (!in.ok() || !WireValidParams(params)) return std::nullopt;
  auto tracker = CountSketchHeavyHitters::Deserialize(in);
  if (!tracker) return std::nullopt;
  F2HeavyHitterEstimator estimator(HeavyHitterParams{0.5, 0.5, 0.5, 1.0}, 0);
  estimator.params_ = params;
  estimator.alpha_prime_ =
      (1.0 - 0.4 * params.epsilon) * params.alpha * std::sqrt(params.p);
  estimator.tracker_ = std::move(*tracker);
  estimator.sampled_length_ = sampled_length;
  return estimator;
}

double F2HeavyHitterEstimator::RequiredSqrtF2(const HeavyHitterParams& params,
                                              double n_hint) {
  constexpr double kC = 4.0;
  const double n = std::max(2.0, n_hint);
  return kC * std::pow(params.p, -1.5) / params.alpha /
         (params.epsilon * params.epsilon) * std::log(n / params.delta);
}

}  // namespace substream
