#include "stream/generators.h"

#include <algorithm>

#include "util/math.h"

namespace substream {

UniformGenerator::UniformGenerator(item_t universe, std::uint64_t seed)
    : universe_(universe), rng_(seed) {
  SUBSTREAM_CHECK(universe >= 1);
}

item_t UniformGenerator::Next() { return rng_.NextBounded(universe_) + 1; }

ZipfGenerator::ZipfGenerator(item_t universe, double skew, std::uint64_t seed)
    : dist_(universe, skew), rng_(seed) {}

item_t ZipfGenerator::Next() { return dist_.Sample(rng_); }

PlantedHeavyHitterGenerator::PlantedHeavyHitterGenerator(
    int num_heavy, double heavy_mass, item_t tail_universe, std::uint64_t seed)
    : num_heavy_(num_heavy),
      heavy_mass_(heavy_mass),
      tail_universe_(tail_universe),
      rng_(seed) {
  SUBSTREAM_CHECK(num_heavy >= 1);
  SUBSTREAM_CHECK(heavy_mass > 0.0 && heavy_mass <= 1.0);
  SUBSTREAM_CHECK(tail_universe >= 1);
}

item_t PlantedHeavyHitterGenerator::Next() {
  if (rng_.NextBernoulli(heavy_mass_)) {
    return rng_.NextBounded(static_cast<item_t>(num_heavy_)) + 1;
  }
  // Tail ids live above the heavy ids.
  return static_cast<item_t>(num_heavy_) + rng_.NextBounded(tail_universe_) + 1;
}

item_t PlantedHeavyHitterGenerator::UniverseSize() const {
  return static_cast<item_t>(num_heavy_) + tail_universe_;
}

std::vector<item_t> PlantedHeavyHitterGenerator::HeavyIds() const {
  std::vector<item_t> ids;
  ids.reserve(static_cast<std::size_t>(num_heavy_));
  for (int i = 1; i <= num_heavy_; ++i) ids.push_back(static_cast<item_t>(i));
  return ids;
}

Stream StreamFromFrequencies(const std::vector<count_t>& frequencies,
                             std::uint64_t seed) {
  Stream out;
  std::size_t total = 0;
  for (count_t f : frequencies) total += f;
  out.reserve(total);
  for (std::size_t i = 0; i < frequencies.size(); ++i) {
    for (count_t c = 0; c < frequencies[i]; ++c) {
      out.push_back(static_cast<item_t>(i + 1));
    }
  }
  // Fisher–Yates shuffle: collision-based estimators are order-insensitive
  // but counter-based heavy-hitter summaries (SpaceSaving) are not, so
  // randomize.
  Rng rng(seed);
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.NextBounded(i)]);
  }
  return out;
}

EntropyScenarioPair MakeLemma9Pair(std::size_t n, std::size_t k,
                                   std::uint64_t seed) {
  SUBSTREAM_CHECK(k < n);
  EntropyScenarioPair pair;
  pair.low_entropy = StreamFromFrequencies({static_cast<count_t>(n)}, seed);
  std::vector<count_t> freqs;
  freqs.reserve(k + 1);
  freqs.push_back(static_cast<count_t>(n - k));
  for (std::size_t i = 0; i < k; ++i) freqs.push_back(1);
  pair.high_entropy = StreamFromFrequencies(freqs, seed + 1);
  pair.entropy_low = 0.0;
  const double dn = static_cast<double>(n);
  pair.entropy_high = EntropyTerm(dn - static_cast<double>(k), dn) +
                      static_cast<double>(k) * EntropyTerm(1.0, dn);
  return pair;
}

F0HardPair MakeF0HardPair(std::size_t n, std::size_t d, std::uint64_t seed) {
  SUBSTREAM_CHECK(d >= 1 && d <= n);
  F0HardPair pair;
  // `few`: d distinct values, each with frequency ~ n/d.
  std::vector<count_t> few(d, static_cast<count_t>(n / d));
  few[0] += static_cast<count_t>(n % d);
  pair.few_distinct = StreamFromFrequencies(few, seed);
  pair.f0_few = static_cast<count_t>(d);
  // `many`: same d values each once, plus n - d distinct singletons.
  std::vector<count_t> many(n, 1);
  pair.many_distinct = StreamFromFrequencies(many, seed + 1);
  pair.f0_many = static_cast<count_t>(n);
  return pair;
}

}  // namespace substream
