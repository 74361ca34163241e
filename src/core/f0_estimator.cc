#include "core/f0_estimator.h"

#include <cmath>
#include <unordered_set>

#include "serde/serde.h"
#include "util/hash.h"

namespace substream {

struct F0Estimator::ExactSet {
  std::unordered_set<item_t> items;
};

F0Estimator::F0Estimator(const F0Params& params, std::uint64_t seed)
    : params_(params) {
  SUBSTREAM_CHECK_MSG(params.p > 0.0 && params.p <= 1.0,
                      "sampling probability p=%f", params.p);
  switch (params.backend) {
    case F0Backend::kKmv:
      kmv_ = std::make_unique<KmvSketch>(params.kmv_k, DeriveSeed(seed, 1));
      break;
    case F0Backend::kHyperLogLog:
      hll_ = std::make_unique<HyperLogLog>(params.hll_precision,
                                           DeriveSeed(seed, 2));
      break;
    case F0Backend::kExact:
      exact_ = std::make_unique<ExactSet>();
      break;
  }
}

F0Estimator::F0Estimator(DeserializeTag, const F0Params& params)
    : params_(params) {}

F0Estimator::~F0Estimator() = default;
F0Estimator::F0Estimator(F0Estimator&&) noexcept = default;
F0Estimator& F0Estimator::operator=(F0Estimator&&) noexcept = default;

void F0Estimator::Update(item_t item) {
  ++sampled_length_;
  if (kmv_) {
    kmv_->Update(item);
  } else if (hll_) {
    hll_->Update(item);
  } else {
    exact_->items.insert(item);
  }
}

void F0Estimator::UpdatePrehashed(PrehashedColumns cols, std::size_t n) {
  sampled_length_ += n;
  if (kmv_) {
    kmv_->UpdatePrehashed(cols, n);
  } else if (hll_) {
    hll_->UpdatePrehashed(cols, n);
  } else {
    exact_->items.insert(cols.items, cols.items + n);
  }
}

bool F0Estimator::MergeCompatibleWith(const F0Estimator& other) const {
  if (params_.backend != other.params_.backend ||
      params_.p != other.params_.p) {
    return false;
  }
  if (static_cast<bool>(kmv_) != static_cast<bool>(other.kmv_) ||
      static_cast<bool>(hll_) != static_cast<bool>(other.hll_)) {
    return false;
  }
  if (kmv_) return kmv_->MergeCompatibleWith(*other.kmv_);
  if (hll_) return hll_->MergeCompatibleWith(*other.hll_);
  return true;  // exact backend carries no geometry
}

void F0Estimator::Merge(const F0Estimator& other) {
  SUBSTREAM_CHECK_MSG(MergeCompatibleWith(other),
                      "merging F0 estimators with different configurations");
  sampled_length_ += other.sampled_length_;
  if (kmv_) {
    kmv_->Merge(*other.kmv_);
  } else if (hll_) {
    hll_->Merge(*other.hll_);
  } else {
    exact_->items.insert(other.exact_->items.begin(),
                         other.exact_->items.end());
  }
}

void F0Estimator::Reset() {
  sampled_length_ = 0;
  if (kmv_) {
    kmv_->Reset();
  } else if (hll_) {
    hll_->Reset();
  } else {
    exact_->items.clear();
  }
}

double F0Estimator::EstimateSampledDistinct() const {
  if (kmv_) return kmv_->Estimate();
  if (hll_) return hll_->Estimate();
  return static_cast<double>(exact_->items.size());
}

double F0Estimator::Estimate() const {
  return EstimateSampledDistinct() / std::sqrt(params_.p);
}

double F0Estimator::ErrorFactorBound() const {
  return 4.0 / std::sqrt(params_.p);
}

std::size_t F0Estimator::SpaceBytes() const {
  if (kmv_) return kmv_->SpaceBytes();
  if (hll_) return hll_->SpaceBytes();
  return exact_->items.size() * sizeof(item_t);
}

void F0Estimator::AppendHealth(const std::string& name,
                               std::vector<obs::SummaryHealth>* out) const {
  obs::SummaryHealth health;
  health.name = name;
  health.space_bytes = SpaceBytes();
  if (kmv_) {
    health.kind = "kmv";
    health.width = kmv_->k();
    health.cells = kmv_->k();
    health.nonzero_cells = kmv_->size();
    health.epsilon = obs::KmvEpsilon(kmv_->k());
    health.delta = params_.delta;
  } else if (hll_) {
    health.kind = "hll";
    health.width = hll_->RegisterCount();
    health.cells = hll_->RegisterCount();
    health.nonzero_cells = hll_->NonZeroRegisters();
    health.epsilon = obs::HllEpsilon(hll_->precision());
    health.delta = params_.delta;
  } else {
    health.kind = "exact";
    health.cells = exact_->items.size();
    health.nonzero_cells = exact_->items.size();
  }
  obs::FinalizeRatios(health);
  out->push_back(std::move(health));
}

void F0Estimator::Serialize(serde::Writer& out) const {
  out.Record(serde::TypeTag::kF0Estimator);
  out.F64(params_.p);
  out.F64(params_.delta);
  out.U8(static_cast<std::uint8_t>(params_.backend));
  out.Varint(params_.kmv_k);
  out.Varint(static_cast<std::uint64_t>(params_.hll_precision));
  out.Varint(sampled_length_);
  if (kmv_) {
    kmv_->Serialize(out);
  } else if (hll_) {
    hll_->Serialize(out);
  } else {
    out.Varint(exact_->items.size());
    for (item_t item : exact_->items) out.Varint(item);
  }
}

std::optional<F0Estimator> F0Estimator::Deserialize(serde::Reader& in) {
  if (!in.ExpectRecord(serde::TypeTag::kF0Estimator)) return std::nullopt;
  F0Params params;
  params.p = in.F64();
  params.delta = in.F64();
  const std::uint8_t backend = in.U8();
  params.kmv_k = in.Varint();
  const std::uint64_t hll_precision = in.Varint();
  const count_t sampled_length = in.Varint();
  if (!in.ok() || !serde::ValidProbability(params.p) || backend > 2 ||
      hll_precision > 20) {
    return std::nullopt;
  }
  params.backend = static_cast<F0Backend>(backend);
  params.hll_precision = static_cast<int>(hll_precision);
  F0Estimator estimator(DeserializeTag{}, params);
  estimator.sampled_length_ = sampled_length;
  switch (params.backend) {
    case F0Backend::kKmv: {
      auto kmv = KmvSketch::Deserialize(in);
      if (!kmv) return std::nullopt;
      estimator.kmv_ = std::make_unique<KmvSketch>(std::move(*kmv));
      break;
    }
    case F0Backend::kHyperLogLog: {
      auto hll = HyperLogLog::Deserialize(in);
      if (!hll) return std::nullopt;
      estimator.hll_ = std::make_unique<HyperLogLog>(std::move(*hll));
      break;
    }
    case F0Backend::kExact: {
      const std::uint64_t count = in.Varint();
      if (!in.CanHold(count, 1)) return std::nullopt;
      estimator.exact_ = std::make_unique<ExactSet>();
      estimator.exact_->items.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        const item_t item = in.Varint();
        if (!in.ok()) return std::nullopt;
        if (!estimator.exact_->items.insert(item).second) {
          in.Fail();  // duplicate in a set encoding
          return std::nullopt;
        }
      }
      break;
    }
  }
  if (!in.ok()) return std::nullopt;
  return estimator;
}

}  // namespace substream
