#ifndef SUBSTREAM_STREAM_GENERATORS_H_
#define SUBSTREAM_STREAM_GENERATORS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "stream/stream.h"
#include "util/random.h"

/// \file generators.h
/// Synthetic workload generators. These stand in for the NetFlow-style
/// packet streams motivating the paper: items are flow identifiers, and
/// skewed (Zipf) flow-size distributions are the standard model in the
/// cited measurement literature [17, 18, 22].

namespace substream {

/// Uniform items over [1, universe].
class UniformGenerator : public StreamGenerator {
 public:
  UniformGenerator(item_t universe, std::uint64_t seed);

  item_t Next() override;
  item_t UniverseSize() const override { return universe_; }

 private:
  item_t universe_;
  Rng rng_;
};

/// Zipf(skew) items over [1, universe]; rank r has probability ~ r^{-skew}.
class ZipfGenerator : public StreamGenerator {
 public:
  ZipfGenerator(item_t universe, double skew, std::uint64_t seed);

  item_t Next() override;
  item_t UniverseSize() const override { return dist_.universe(); }
  double skew() const { return dist_.skew(); }

 private:
  ZipfDistribution dist_;
  Rng rng_;
};

/// Every item distinct: 1, 2, 3, ... (the F0-maximal / entropy-maximal
/// stream used in Lemma 9 part 2).
class DistinctGenerator : public StreamGenerator {
 public:
  DistinctGenerator() = default;

  item_t Next() override { return ++next_; }
  item_t UniverseSize() const override { return ~static_cast<item_t>(0); }

 private:
  item_t next_ = 0;
};

/// Constant stream: the entropy-minimal stream (Lemma 9 Scenario 1).
class ConstantGenerator : public StreamGenerator {
 public:
  explicit ConstantGenerator(item_t value) : value_(value) {}

  item_t Next() override { return value_; }
  item_t UniverseSize() const override { return value_; }

 private:
  item_t value_;
};

/// Planted heavy hitters: `num_heavy` items share `heavy_mass` of the
/// stream uniformly; the rest of the mass is uniform over a disjoint tail
/// of `tail_universe` items. This is the canonical workload for Theorems 6
/// and 7 because ground-truth heavy hitters are known by construction.
class PlantedHeavyHitterGenerator : public StreamGenerator {
 public:
  PlantedHeavyHitterGenerator(int num_heavy, double heavy_mass,
                              item_t tail_universe, std::uint64_t seed);

  item_t Next() override;
  item_t UniverseSize() const override;

  /// Item ids of the planted heavy hitters (1 .. num_heavy).
  std::vector<item_t> HeavyIds() const;

 private:
  int num_heavy_;
  double heavy_mass_;
  item_t tail_universe_;
  Rng rng_;
};

/// Emits a stream realizing an exact frequency vector: item `i+1` appears
/// exactly `frequencies[i]` times, order shuffled by `seed`. Used wherever
/// an experiment needs exact control over f (collision moments, entropy
/// scenarios, F0 hard instances).
Stream StreamFromFrequencies(const std::vector<count_t>& frequencies,
                             std::uint64_t seed);

/// Lemma 9 impossibility pair. Scenario 1: f_1 = n (entropy 0).
/// Scenario 2: f_1 = n - k and k singleton items (entropy Θ(k lg(n)/n)).
/// With k = 1/(10 p) the sampled streams are indistinguishable whp.
struct EntropyScenarioPair {
  Stream low_entropy;   ///< Scenario 1.
  Stream high_entropy;  ///< Scenario 2.
  double entropy_low;   ///< H(f) of scenario 1 (= 0).
  double entropy_high;  ///< H(f) of scenario 2.
};
EntropyScenarioPair MakeLemma9Pair(std::size_t n, std::size_t k,
                                   std::uint64_t seed);

/// Theorem 4 / Charikar-style F0 hard pair on n elements: `few` has d
/// distinct values; `many` has the same d values plus (n - d) extra distinct
/// singletons. A sampler that misses the singletons cannot tell them apart.
struct F0HardPair {
  Stream few_distinct;
  Stream many_distinct;
  count_t f0_few;
  count_t f0_many;
};
F0HardPair MakeF0HardPair(std::size_t n, std::size_t d, std::uint64_t seed);

}  // namespace substream

#endif  // SUBSTREAM_STREAM_GENERATORS_H_
