#include "sketch/entropy_sketch.h"

#include <algorithm>
#include <cmath>

#include "serde/serde.h"
#include "util/math.h"
#include "util/stats.h"

namespace substream {

void EntropyMleEstimator::Update(item_t item) {
  ++counts_[item];
  ++total_;
}

double EntropyMleEstimator::Estimate() const {
  if (total_ == 0) return 0.0;
  const double n = static_cast<double>(total_);
  KahanSum sum;
  for (const auto& [item, count] : counts_) {
    (void)item;
    sum.Add(EntropyTerm(static_cast<double>(count), n));
  }
  return sum.Value();
}

double EntropyMleEstimator::EstimateMillerMadow() const {
  if (total_ == 0) return 0.0;
  const double correction =
      (static_cast<double>(counts_.size()) - 1.0) /
      (2.0 * static_cast<double>(total_) * std::log(2.0));
  return Estimate() + correction;
}

double EntropyMleEstimator::EstimateHpn(double expected_length) const {
  SUBSTREAM_CHECK(expected_length > 0.0);
  KahanSum sum;
  for (const auto& [item, count] : counts_) {
    (void)item;
    const double g = static_cast<double>(count);
    if (g >= expected_length) continue;  // convention: term -> 0
    sum.Add((g / expected_length) * std::log2(expected_length / g));
  }
  return sum.Value();
}

bool EntropyMleEstimator::MergeCompatibleWith(
    const EntropyMleEstimator& other) const {
  (void)other;  // exact counts carry no geometry or seeds
  return true;
}

void EntropyMleEstimator::Merge(const EntropyMleEstimator& other,
                                double weight) {
  SUBSTREAM_CHECK_MSG(ValidMergeWeight(weight),
                      "entropy decayed-merge weight %f outside (0, 1]",
                      weight);
  // total_ stays the exact sum of counts_ (per-item rounding makes that
  // differ from round(weight * other.total_)), so Estimate() normalizes by
  // the true decayed mass.
  total_ += MergeCounts(counts_, other.counts_, weight);
}

void EntropyMleEstimator::Serialize(serde::Writer& out) const {
  out.Record(serde::TypeTag::kEntropyMleEstimator);
  out.Varint(total_);
  serde::WriteCountMap(out, counts_);
}

std::optional<EntropyMleEstimator> EntropyMleEstimator::Deserialize(
    serde::Reader& in) {
  if (!in.ExpectRecord(serde::TypeTag::kEntropyMleEstimator)) {
    return std::nullopt;
  }
  EntropyMleEstimator estimator;
  estimator.total_ = in.Varint();
  if (!serde::ReadCountMap(in, &estimator.counts_)) return std::nullopt;
  // total_ is the sum of the counts, each at least 1.
  if (CountMapMass(estimator.counts_) != estimator.total_) return std::nullopt;
  return estimator;
}

AmsEntropySketch::AmsEntropySketch(GeometryTag, std::size_t groups,
                                   std::size_t per_group, std::uint64_t seed)
    : groups_(groups), seed_(seed), rng_(seed) {
  SUBSTREAM_CHECK(groups >= 1);
  SUBSTREAM_CHECK(per_group >= 1);
  atoms_.assign(groups * per_group, Atom{});
}

AmsEntropySketch AmsEntropySketch::WithGeometry(std::size_t groups,
                                                std::size_t per_group,
                                                std::uint64_t seed) {
  return AmsEntropySketch(GeometryTag{}, groups, per_group, seed);
}

AmsEntropySketch::AmsEntropySketch(double epsilon, double delta,
                                   std::uint64_t seed)
    : AmsEntropySketch(
          GeometryTag{},
          std::max<std::size_t>(
              1, static_cast<std::size_t>(
                     std::ceil(8.0 * std::log(1.0 / delta))) | 1),
          std::max<std::size_t>(
              1, static_cast<std::size_t>(std::ceil(32.0 / (epsilon * epsilon)))),
          seed) {}

void AmsEntropySketch::Update(item_t item) {
  ++total_;
  for (Atom& atom : atoms_) {
    // Reservoir: the new position replaces the held one with prob 1/total.
    if (rng_.NextBounded(total_) == 0) {
      atom.item = item;
      atom.suffix_count = 1;
    } else if (atom.item == item) {
      ++atom.suffix_count;
    }
  }
}

bool AmsEntropySketch::MergeCompatibleWith(
    const AmsEntropySketch& other) const {
  return groups_ == other.groups_ && atoms_.size() == other.atoms_.size() &&
         seed_ == other.seed_;
}

void AmsEntropySketch::Merge(const AmsEntropySketch& other) {
  SUBSTREAM_CHECK_MSG(MergeCompatibleWith(other),
                      "merging incompatible AMS entropy sketches");
  if (other.total_ == 0) return;
  if (total_ == 0) {
    atoms_ = other.atoms_;
    total_ = other.total_;
    return;
  }
  // Each atom holds a uniform position of its own stream; choosing a source
  // in proportion to the stream lengths yields a uniform position of the
  // concatenation. The suffix count transfers unchanged: positions in this
  // stream precede all of other's, and an atom kept from this stream whose
  // item also occurs in other's suffix cannot be corrected from the sketch
  // alone, so the merged estimator is (slightly) approximate whenever the
  // same item is frequent in both halves — acceptable for the
  // constant-factor entropy pipeline of Theorem 5.
  const count_t combined = total_ + other.total_;
  for (std::size_t j = 0; j < atoms_.size(); ++j) {
    if (rng_.NextBounded(combined) >= total_) {
      atoms_[j] = other.atoms_[j];
    }
  }
  total_ = combined;
}

void AmsEntropySketch::Reset() {
  atoms_.assign(atoms_.size(), Atom{});
  rng_ = Rng(seed_);
  total_ = 0;
}

void AmsEntropySketch::Serialize(serde::Writer& out) const {
  out.Record(serde::TypeTag::kAmsEntropySketch);
  out.Varint(groups_);
  out.Varint(atoms_.size() / groups_);  // per_group
  out.U64(seed_);
  out.Varint(total_);
  for (std::uint64_t word : rng_.SaveState()) out.U64(word);
  for (const Atom& atom : atoms_) {
    out.Varint(atom.item);
    out.Varint(atom.suffix_count);
  }
}

std::optional<AmsEntropySketch> AmsEntropySketch::Deserialize(
    serde::Reader& in) {
  if (!in.ExpectRecord(serde::TypeTag::kAmsEntropySketch)) {
    return std::nullopt;
  }
  const std::uint64_t groups = in.Varint();
  const std::uint64_t per_group = in.Varint();
  const std::uint64_t seed = in.U64();
  const count_t total = in.Varint();
  std::array<std::uint64_t, 4> rng_state;
  for (std::uint64_t& word : rng_state) word = in.U64();
  if (!in.ok() || groups < 1 || per_group < 1 || groups > (1ULL << 24) ||
      per_group > (1ULL << 24) || !in.CanHold(groups * per_group, 2)) {
    return std::nullopt;
  }
  // The all-zero state is the xoshiro fixed point; RestoreState aborts on
  // it, so reject it here instead (corrupt input must not crash).
  if (rng_state[0] == 0 && rng_state[1] == 0 && rng_state[2] == 0 &&
      rng_state[3] == 0) {
    return std::nullopt;
  }
  AmsEntropySketch sketch = WithGeometry(groups, per_group, seed);
  sketch.total_ = total;
  sketch.rng_.RestoreState(rng_state);
  for (Atom& atom : sketch.atoms_) {
    atom.item = in.Varint();
    atom.suffix_count = in.Varint();
  }
  if (!in.ok()) return std::nullopt;
  return sketch;
}

double AmsEntropySketch::Estimate() const {
  SUBSTREAM_CHECK(total_ > 0);
  const double n = static_cast<double>(total_);
  std::vector<double> values;
  values.reserve(atoms_.size());
  for (const Atom& atom : atoms_) {
    const double r = static_cast<double>(atom.suffix_count);
    // f(r) = r lg(n/r) - (r-1) lg(n/(r-1)); the r = 1 case is lg n.
    double x = r * std::log2(n / r);
    if (atom.suffix_count > 1) x -= (r - 1.0) * std::log2(n / (r - 1.0));
    values.push_back(x);
  }
  // No clamping here: atoms may legitimately be negative and the estimator
  // is exactly unbiased for H(g). Callers that need a nonnegative entropy
  // clamp at the reporting layer.
  return MedianOfMeans(values, groups_);
}

}  // namespace substream
