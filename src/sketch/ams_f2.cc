#include "sketch/ams_f2.h"

#include <algorithm>
#include <cmath>

#include "serde/serde.h"
#include "util/stats.h"

namespace substream {

namespace {

std::size_t PerGroupFromEpsilon(double epsilon) {
  SUBSTREAM_CHECK(epsilon > 0.0);
  // Var[Z^2] <= 2 F2^2; averaging 16/eps^2 atoms gives relative error eps
  // with probability >= 7/8 by Chebyshev.
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(16.0 / (epsilon * epsilon))));
}

std::size_t GroupsFromDelta(double delta) {
  SUBSTREAM_CHECK(delta > 0.0 && delta < 1.0);
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(8.0 * std::log(1.0 / delta))) | 1);
}

}  // namespace

AmsF2Sketch::AmsF2Sketch(double epsilon, double delta, std::uint64_t seed)
    : AmsF2Sketch(GeometryTag{}, GroupsFromDelta(delta),
                  PerGroupFromEpsilon(epsilon), seed) {}

AmsF2Sketch AmsF2Sketch::WithGeometry(std::size_t groups,
                                      std::size_t per_group,
                                      std::uint64_t seed) {
  return AmsF2Sketch(GeometryTag{}, groups, per_group, seed);
}

AmsF2Sketch::AmsF2Sketch(GeometryTag, std::size_t groups,
                         std::size_t per_group, std::uint64_t seed)
    : groups_(groups), per_group_(per_group), seed_(seed) {
  SUBSTREAM_CHECK(groups >= 1);
  SUBSTREAM_CHECK(per_group >= 1);
  const std::size_t n = groups * per_group;
  counters_.assign(n, 0);
  sign_hashes_.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    sign_hashes_.emplace_back(4, DeriveSeed(seed, j));
  }
}

void AmsF2Sketch::Update(item_t item, std::int64_t count) {
  total_ += static_cast<count_t>(count);
  for (std::size_t j = 0; j < counters_.size(); ++j) {
    counters_[j] += sign_hashes_[j].Sign(item) * count;
  }
}

void AmsF2Sketch::UpdatePrehashed(PrehashedColumns cols, std::size_t n) {
  // Integer adds, so the estimator-major order yields exactly the scalar
  // loop's counters; the item column streams unit-stride.
  for (std::size_t j = 0; j < counters_.size(); ++j) {
    const PolynomialHash& hash = sign_hashes_[j];
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) acc += hash.Sign(cols.items[i]);
    counters_[j] += acc;
  }
  total_ += n;
}

void AmsF2Sketch::Reset() {
  std::fill(counters_.begin(), counters_.end(), 0);
  total_ = 0;
}

bool AmsF2Sketch::MergeCompatibleWith(const AmsF2Sketch& other) const {
  return groups_ == other.groups_ && per_group_ == other.per_group_ &&
         seed_ == other.seed_;
}

void AmsF2Sketch::Merge(const AmsF2Sketch& other) {
  SUBSTREAM_CHECK_MSG(MergeCompatibleWith(other),
                      "merging incompatible AMS sketches");
  for (std::size_t j = 0; j < counters_.size(); ++j) {
    counters_[j] += other.counters_[j];
  }
  total_ += other.total_;
}

double AmsF2Sketch::Estimate() const {
  std::vector<double> atoms;
  atoms.reserve(counters_.size());
  for (std::int64_t z : counters_) {
    atoms.push_back(static_cast<double>(z) * static_cast<double>(z));
  }
  return MedianOfMeans(atoms, groups_);
}

std::size_t AmsF2Sketch::SpaceBytes() const {
  std::size_t bytes = counters_.size() * sizeof(std::int64_t);
  for (const auto& h : sign_hashes_) bytes += h.SpaceBytes();
  return bytes;
}

void AmsF2Sketch::Serialize(serde::Writer& out) const {
  out.Record(serde::TypeTag::kAmsF2Sketch);
  out.Varint(groups_);
  out.Varint(per_group_);
  out.U64(seed_);
  out.Varint(total_);
  for (std::int64_t z : counters_) out.Svarint(z);
}

std::optional<AmsF2Sketch> AmsF2Sketch::Deserialize(serde::Reader& in) {
  if (!in.ExpectRecord(serde::TypeTag::kAmsF2Sketch)) return std::nullopt;
  const std::uint64_t groups = in.Varint();
  const std::uint64_t per_group = in.Varint();
  const std::uint64_t seed = in.U64();
  const count_t total = in.Varint();
  if (!in.ok() || groups < 1 || per_group < 1 || groups > (1ULL << 24) ||
      per_group > (1ULL << 24)) {
    return std::nullopt;
  }
  if (!in.CanHold(groups * per_group, 1)) return std::nullopt;
  AmsF2Sketch sketch = WithGeometry(groups, per_group, seed);
  sketch.total_ = total;
  for (std::int64_t& z : sketch.counters_) z = in.Svarint();
  if (!in.ok()) return std::nullopt;
  return sketch;
}

}  // namespace substream
