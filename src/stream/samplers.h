#ifndef SUBSTREAM_STREAM_SAMPLERS_H_
#define SUBSTREAM_STREAM_SAMPLERS_H_

#include <cstdint>

#include "stream/stream.h"
#include "util/random.h"

/// \file samplers.h
/// The sub-sampling model of Section 1.1.
///
/// BernoulliSampler is the paper's model (and "Randomly Sampled NetFlow"
/// [9]): each element of P survives independently with probability p,
/// producing L.

namespace substream {

/// Streaming Bernoulli(p) filter. Stateless per item: the decision for each
/// arriving element is an independent coin flip, exactly the model under
/// which all the paper's guarantees are stated.
class BernoulliSampler {
 public:
  /// `p` must lie in (0, 1]. `seed` fixes the sampling coin flips.
  BernoulliSampler(double p, std::uint64_t seed);

  /// Decides whether the next arriving element is included in L.
  bool Keep() { return rng_.NextBernoulli(p_); }

  /// Filters a whole stream: returns L given P.
  Stream Sample(const Stream& original);

  double p() const { return p_; }

 private:
  double p_;
  Rng rng_;
};

}  // namespace substream

#endif  // SUBSTREAM_STREAM_SAMPLERS_H_
