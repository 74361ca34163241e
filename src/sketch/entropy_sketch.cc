#include "sketch/entropy_sketch.h"

#include <cmath>

#include "serde/serde.h"
#include "util/math.h"

namespace substream {

void EntropyMleEstimator::Update(item_t item) {
  ++counts_[item];
  ++total_;
}

EntropyMleReadout EntropyMleEstimator::Readout(double expected_length) const {
  EntropyMleReadout out;
  if (total_ == 0) return out;
  const double n = static_cast<double>(total_);
  KahanSum plug_in;
  KahanSum hpn;
  for (const auto& [item, count] : counts_) {
    (void)item;
    const double g = static_cast<double>(count);
    plug_in.Add(EntropyTerm(g, n));
    if (g < expected_length) {  // else, by convention, the term is 0
      hpn.Add((g / expected_length) * std::log2(expected_length / g));
    }
  }
  out.plug_in = plug_in.Value();
  out.hpn = hpn.Value();
  return out;
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

}  // namespace substream
