#include "stream/samplers.h"

namespace substream {

BernoulliSampler::BernoulliSampler(double p, std::uint64_t seed)
    : p_(p), rng_(seed) {
  SUBSTREAM_CHECK_MSG(p > 0.0 && p <= 1.0, "sampling probability p=%f", p);
}

Stream BernoulliSampler::Sample(const Stream& original) {
  Stream sampled;
  sampled.reserve(static_cast<std::size_t>(
      static_cast<double>(original.size()) * p_ * 1.1) + 16);
  for (item_t a : original) {
    if (Keep()) sampled.push_back(a);
  }
  return sampled;
}

}  // namespace substream
