/// The single-pass readouts against the multi-pass scans they replace.
///
/// IndykWoodruffEstimator::EstimateLevelSets classifies each consulted
/// source (an exact map or one depth's candidate pool) once. The reference
/// below is the per-level scan: for every integer bin and geometric level
/// it walks the whole source again and re-estimates every candidate. Both
/// must return the same LevelSetEstimate fields, compared with ==.
///
/// EntropyMleEstimator::Readout walks the count map once for the plug-in
/// and H_pn values; the reference is the separate walks. Both feed their
/// compensated sums in map order, so they must agree bitwise.
///
/// The references read the summaries' state off their wire records, so
/// they need no access to private members.

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/entropy_estimator.h"
#include "serde/serde.h"
#include "sketch/entropy_sketch.h"
#include "sketch/level_sets.h"
#include "stream/generators.h"
#include "util/math.h"

namespace substream {
namespace {

// ---------------------------------------------------------------------------
// Level sets
// ---------------------------------------------------------------------------

struct DecodedSlot {
  CountSketch sketch;
  std::unordered_map<item_t, double> candidates;
  std::unordered_map<item_t, count_t> exact;
  bool exact_valid;
};

struct DecodedLevelSets {
  LevelSetParams params;
  double eta = 0.0;
  count_t total = 0;
  std::vector<DecodedSlot> depths;
};

/// Reads the state of `iw` off its wire record (the layout of
/// IndykWoodruffEstimator::Serialize).
DecodedLevelSets Decode(const IndykWoodruffEstimator& iw) {
  serde::Writer out;
  iw.Serialize(out);
  serde::Reader in(out.bytes());
  EXPECT_TRUE(in.ExpectRecord(serde::TypeTag::kIndykWoodruffEstimator));
  DecodedLevelSets d;
  d.params.eps_prime = in.F64();
  d.params.max_depth = static_cast<int>(in.Varint());
  d.params.cs_depth = static_cast<int>(in.Varint());
  d.params.cs_width = in.Varint();
  d.params.heavy_factor = in.F64();
  d.params.candidate_capacity = in.Varint();
  d.params.integer_bin_max = static_cast<int>(in.Varint());
  d.params.exact_capacity = in.Varint();
  d.params.cell_width = static_cast<CellWidth>(in.U8());
  d.eta = DrawEta(in.U64());
  d.total = in.Varint();
  for (int t = 0; t <= d.params.max_depth; ++t) {
    std::optional<CountSketch> sketch = CountSketch::Deserialize(in);
    EXPECT_TRUE(sketch.has_value());
    DecodedSlot slot{std::move(*sketch), {}, {}, false};
    EXPECT_TRUE(serde::ReadDoubleMap(in, &slot.candidates));
    EXPECT_TRUE(serde::ReadCountMap(in, &slot.exact));
    slot.exact_valid = in.Bool();
    d.depths.push_back(std::move(slot));
  }
  EXPECT_TRUE(in.ok());
  EXPECT_EQ(in.remaining(), 0u);
  return d;
}

/// The per-level scan: one walk of the chosen source per output level.
std::vector<LevelSetEstimate> ReferenceLevelSets(const DecodedLevelSets& d) {
  const LevelSetParams& params = d.params;
  std::vector<LevelSetEstimate> out;
  if (d.total == 0) return out;
  std::vector<double> f2_at_depth(d.depths.size());
  for (std::size_t t = 0; t < d.depths.size(); ++t) {
    f2_at_depth[t] = d.depths[t].sketch.EstimateF2();
  }
  const double f2_full = std::max(1.0, f2_at_depth[0]);
  auto depth_for = [&](double v) {
    const double need =
        params.heavy_factor * f2_full / (params.cs_width * v * v);
    if (need <= 1.0) return 0;
    return std::min(params.max_depth,
                    static_cast<int>(std::ceil(std::log2(need))));
  };
  int exact_depth = -1;
  for (std::size_t t = 0; t < d.depths.size(); ++t) {
    if (d.depths[t].exact_valid) {
      exact_depth = static_cast<int>(t);
      break;
    }
  }
  struct LevelCount {
    double members;
    int depth;
  };
  auto count_members = [&](int t_sketch, int exact_slack,
                           auto matches) -> LevelCount {
    if (exact_depth >= 0 && exact_depth <= t_sketch + exact_slack) {
      const DecodedSlot& slot = d.depths[static_cast<std::size_t>(exact_depth)];
      double members = 0.0;
      for (const auto& [item, g] : slot.exact) {
        (void)item;
        if (matches(static_cast<double>(g))) members += 1.0;
      }
      return {members, exact_depth};
    }
    const DecodedSlot& slot = d.depths[static_cast<std::size_t>(t_sketch)];
    const double heavy_threshold_sq =
        params.heavy_factor * f2_at_depth[static_cast<std::size_t>(t_sketch)] /
        static_cast<double>(params.cs_width);
    double members = 0.0;
    for (const auto& [item, stale] : slot.candidates) {
      (void)stale;
      const double g_hat = slot.sketch.Estimate(item);
      if (g_hat < 0.5) continue;
      if (g_hat * g_hat < heavy_threshold_sq) continue;
      if (matches(g_hat)) members += 1.0;
    }
    return {members, t_sketch};
  };
  constexpr int kIntegerBinExactSlack = 2;
  const int g0 = std::max(1, params.integer_bin_max);
  for (int j = 1; j <= g0; ++j) {
    const double v = static_cast<double>(j);
    const LevelCount count =
        count_members(depth_for(v), kIntegerBinExactSlack, [&](double g_hat) {
          return g_hat >= v - 0.5 && g_hat < v + 0.5;
        });
    if (count.members == 0.0) continue;
    LevelSetEstimate est;
    est.level = j;
    est.value = v;
    est.size = count.members * std::ldexp(1.0, count.depth);
    est.depth = count.depth;
    est.integer_bin = true;
    out.push_back(est);
  }
  const double base = 1.0 + params.eps_prime;
  const double geometric_start = static_cast<double>(g0) + 0.5;
  const int max_level =
      LevelIndex(static_cast<double>(d.total), d.eta, params.eps_prime) + 1;
  for (int i = 0; i <= max_level; ++i) {
    const double v = d.eta * std::pow(base, i);
    if (v * base <= geometric_start) continue;
    const LevelCount count = count_members(
        depth_for(std::max(v, geometric_start)), /*exact_slack=*/0,
        [&](double g_hat) {
          return g_hat >= geometric_start &&
                 LevelIndex(g_hat, d.eta, params.eps_prime) == i;
        });
    if (count.members == 0.0) continue;
    LevelSetEstimate est;
    est.level = i;
    est.value = v;
    est.size = count.members * std::ldexp(1.0, count.depth);
    est.depth = count.depth;
    out.push_back(est);
  }
  return out;
}

/// Asserts EstimateLevelSets() equals the reference field by field and
/// returns the number of level sets, so callers can check the case is not
/// vacuous.
std::size_t ExpectSameLevelSets(const IndykWoodruffEstimator& iw) {
  const std::vector<LevelSetEstimate> got = iw.EstimateLevelSets();
  const std::vector<LevelSetEstimate> want = ReferenceLevelSets(Decode(iw));
  EXPECT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    EXPECT_EQ(got[i].level, want[i].level) << "set " << i;
    EXPECT_EQ(got[i].value, want[i].value) << "set " << i;
    EXPECT_EQ(got[i].size, want[i].size) << "set " << i;
    EXPECT_EQ(got[i].depth, want[i].depth) << "set " << i;
    EXPECT_EQ(got[i].integer_bin, want[i].integer_bin) << "set " << i;
  }
  return got.size();
}

/// Bench-like geometry: eps' = 1/32 spreads a stream over hundreds of
/// geometric levels.
LevelSetParams BenchParams() {
  LevelSetParams p;
  p.eps_prime = 0.03125;
  p.max_depth = 16;
  p.cs_depth = 7;
  p.cs_width = 512;
  return p;
}

IndykWoodruffEstimator Fed(const LevelSetParams& params, std::uint64_t seed,
                           const Stream& s) {
  IndykWoodruffEstimator iw(params, seed);
  FeedItems(iw, s.data(), s.size());
  return iw;
}

Stream Zipf(item_t universe, double skew, std::uint64_t seed, std::size_t n) {
  ZipfGenerator g(universe, skew, seed);
  return Materialize(g, n);
}

bool HasIntegerBin(const std::vector<LevelSetEstimate>& sets) {
  return std::any_of(sets.begin(), sets.end(),
                     [](const LevelSetEstimate& s) { return s.integer_bin; });
}

TEST(LevelSetReadoutTest, HotAndWideZipfDefaultGeometry) {
  const Stream hot = Zipf(1 << 16, 1.1, 1, 200000);
  const Stream wide = Zipf(1 << 22, 0.7, 2, 200000);
  for (const LevelSetParams& params : {LevelSetParams{}, BenchParams()}) {
    for (const Stream* s : {&hot, &wide}) {
      const IndykWoodruffEstimator iw = Fed(params, 3, *s);
      EXPECT_GT(ExpectSameLevelSets(iw), 10u);
      EXPECT_TRUE(HasIntegerBin(iw.EstimateLevelSets()));
    }
  }
}

TEST(LevelSetReadoutTest, HalfIntegerEstimatesFromEvenRowCount) {
  // An even row count makes estimates the mean of the two middle rows, so
  // they land on the x.5 boundaries of the integer bins. A one-entry exact
  // map overflows at every depth, so the bins are read from candidates of
  // a narrow sketch with a low heavy threshold.
  std::vector<count_t> freqs;
  for (int i = 0; i < 3000; ++i) freqs.push_back(1 + i % 5);
  LevelSetParams params = BenchParams();
  params.cs_depth = 4;
  params.cs_width = 32;
  params.max_depth = 8;
  params.heavy_factor = 1.0;
  params.exact_capacity = 1;
  const IndykWoodruffEstimator iw =
      Fed(params, 4, StreamFromFrequencies(freqs, 5));
  EXPECT_GT(ExpectSameLevelSets(iw), 10u);
  EXPECT_TRUE(HasIntegerBin(iw.EstimateLevelSets()));
}

TEST(LevelSetReadoutTest, TinyCandidatePoolEvicts) {
  LevelSetParams params = BenchParams();
  params.candidate_capacity = 8;
  const IndykWoodruffEstimator iw =
      Fed(params, 6, Zipf(1 << 16, 1.1, 7, 100000));
  EXPECT_GT(ExpectSameLevelSets(iw), 0u);
}

TEST(LevelSetReadoutTest, IntegerBinRange) {
  const Stream s = Zipf(1 << 16, 1.1, 8, 100000);
  for (int integer_bin_max : {0, 1, 8}) {
    LevelSetParams params = BenchParams();
    params.integer_bin_max = integer_bin_max;
    EXPECT_GT(ExpectSameLevelSets(Fed(params, 9, s)), 0u)
        << "integer_bin_max " << integer_bin_max;
  }
}

TEST(LevelSetReadoutTest, ExactMapValidAndOverflowedAtDepthZero) {
  // 300 distinct items with frequencies 1..300 fit the depth-0 exact map;
  // the same geometry with a 64-entry cap overflows it at depth 0 but
  // keeps exact maps deeper down.
  std::vector<count_t> freqs;
  for (count_t f = 1; f <= 300; ++f) freqs.push_back(f);
  const Stream s = StreamFromFrequencies(freqs, 10);
  LevelSetParams params = BenchParams();
  const IndykWoodruffEstimator valid = Fed(params, 11, s);
  EXPECT_GT(ExpectSameLevelSets(valid), 10u);
  EXPECT_EQ(valid.EstimateLevelSets().front().depth, 0);

  params.exact_capacity = 64;
  const IndykWoodruffEstimator overflowed = Fed(params, 11, s);
  EXPECT_GT(ExpectSameLevelSets(overflowed), 10u);
}

TEST(LevelSetReadoutTest, AfterMergeAndDecayedMerge) {
  auto fed = [](std::uint64_t stream_seed) {
    return Fed(BenchParams(), 12, Zipf(1 << 16, 1.1, stream_seed, 60000));
  };
  IndykWoodruffEstimator merged = fed(13);
  merged.Merge(fed(14));
  merged.Merge(fed(15));
  EXPECT_GT(ExpectSameLevelSets(merged), 10u);

  IndykWoodruffEstimator decayed = fed(16);
  decayed.Merge(merged, 0.5);
  EXPECT_GT(ExpectSameLevelSets(decayed), 10u);
}

TEST(LevelSetReadoutTest, EmptyEstimator) {
  const IndykWoodruffEstimator iw(BenchParams(), 17);
  EXPECT_EQ(ExpectSameLevelSets(iw), 0u);
}

TEST(LevelSetReadoutTest, CollisionRangeMatchesPerOrderCalls) {
  const Stream s = Zipf(1 << 16, 1.1, 18, 100000);
  const IndykWoodruffEstimator iw = Fed(BenchParams(), 19, s);
  ExactLevelSets exact(BenchParams().eps_prime, iw.eta());
  FeedItems(exact, s.data(), s.size());
  const std::vector<double> iw_range = iw.EstimateCollisions(1, 5);
  const std::vector<double> level_range = exact.EstimateCollisions(1, 5);
  const std::vector<double> exact_range = exact.ExactCollisions(1, 5);
  ASSERT_EQ(iw_range.size(), 5u);
  ASSERT_EQ(level_range.size(), 5u);
  ASSERT_EQ(exact_range.size(), 5u);
  for (int l = 1; l <= 5; ++l) {
    const std::size_t i = static_cast<std::size_t>(l - 1);
    EXPECT_EQ(iw_range[i], iw.EstimateCollisions(l)) << "l " << l;
    EXPECT_EQ(level_range[i], exact.EstimateCollisions(l)) << "l " << l;
    EXPECT_EQ(exact_range[i], exact.ExactCollisions(l)) << "l " << l;
  }
}

// ---------------------------------------------------------------------------
// Entropy
// ---------------------------------------------------------------------------

/// The separate walks the one-walk readout replaces.
double ReferencePlugIn(const std::unordered_map<item_t, count_t>& counts,
                       count_t total) {
  if (total == 0) return 0.0;
  const double n = static_cast<double>(total);
  KahanSum sum;
  for (const auto& [item, count] : counts) {
    (void)item;
    sum.Add(EntropyTerm(static_cast<double>(count), n));
  }
  return sum.Value();
}

double ReferenceHpn(const std::unordered_map<item_t, count_t>& counts,
                    double expected_length) {
  KahanSum sum;
  for (const auto& [item, count] : counts) {
    (void)item;
    const double g = static_cast<double>(count);
    if (g >= expected_length) continue;
    sum.Add((g / expected_length) * std::log2(expected_length / g));
  }
  return sum.Value();
}

struct DecodedEntropy {
  EntropyParams params;
  count_t sampled_length = 0;
  count_t total = 0;
  std::unordered_map<item_t, count_t> counts;
};

/// Decodes an EntropyEstimator record. Decoding the same bytes with
/// EntropyEstimator::Deserialize builds its count map by the same
/// insertions, so both maps iterate in the same order.
DecodedEntropy DecodeEntropy(const std::vector<std::uint8_t>& bytes) {
  serde::Reader in(bytes);
  EXPECT_TRUE(in.ExpectRecord(serde::TypeTag::kEntropyEstimator));
  DecodedEntropy d;
  d.params.p = in.F64();
  d.params.n_hint = in.F64();
  in.U8();   // retired backend byte
  in.F64();  // retired AMS accuracy targets
  in.F64();
  d.sampled_length = in.Varint();
  EXPECT_TRUE(in.ExpectRecord(serde::TypeTag::kEntropyMleEstimator));
  d.total = in.Varint();
  EXPECT_TRUE(serde::ReadCountMap(in, &d.counts));
  EXPECT_TRUE(in.ok());
  return d;
}

/// EntropyEstimator::Estimate as it read the count map with separate walks.
EntropyResult ReferenceEstimate(const DecodedEntropy& d) {
  EntropyResult result;
  const double n = d.params.n_hint > 0.0
                       ? d.params.n_hint
                       : static_cast<double>(d.sampled_length) / d.params.p;
  result.threshold = EntropyEstimator::ValidityThreshold(d.params.p, n);
  result.entropy = ReferencePlugIn(d.counts, d.total);
  result.entropy_hpn =
      n > 0.0 ? ReferenceHpn(d.counts, d.params.p * n) : result.entropy;
  result.reliable = result.entropy > 4.0 * result.threshold;
  return result;
}

void ExpectSameEntropy(const EntropyEstimator& estimator) {
  serde::Writer out;
  estimator.Serialize(out);
  const DecodedEntropy d = DecodeEntropy(out.bytes());
  serde::Reader in(out.bytes());
  const std::optional<EntropyEstimator> decoded =
      EntropyEstimator::Deserialize(in);
  ASSERT_TRUE(decoded.has_value());
  const EntropyResult got = decoded->Estimate();
  const EntropyResult want = ReferenceEstimate(d);
  EXPECT_EQ(got.entropy, want.entropy);
  EXPECT_EQ(got.entropy_hpn, want.entropy_hpn);
  EXPECT_EQ(got.threshold, want.threshold);
  EXPECT_EQ(got.reliable, want.reliable);

  // The bare readout, at the realized and at a perturbed length.
  serde::Reader mle_in(out.bytes());
  ASSERT_TRUE(mle_in.ExpectRecord(serde::TypeTag::kEntropyEstimator));
  mle_in.F64();
  mle_in.F64();
  mle_in.U8();
  mle_in.F64();
  mle_in.F64();
  mle_in.Varint();
  const std::optional<EntropyMleEstimator> mle =
      EntropyMleEstimator::Deserialize(mle_in);
  ASSERT_TRUE(mle.has_value());
  for (double length : {static_cast<double>(d.total),
                        1.02 * static_cast<double>(d.total), 0.0}) {
    const EntropyMleReadout read = mle->Readout(length);
    EXPECT_EQ(read.plug_in, ReferencePlugIn(d.counts, d.total));
    EXPECT_EQ(read.hpn, length > 0.0 ? ReferenceHpn(d.counts, length) : 0.0);
    EXPECT_EQ(mle->Estimate(), read.plug_in);
  }
}

TEST(EntropyReadoutTest, HintsMergesAndEmpty) {
  const Stream a = Zipf(1 << 16, 1.1, 20, 50000);
  const Stream b = Zipf(1 << 22, 0.7, 21, 50000);
  for (double n_hint : {0.0, 400000.0}) {
    EntropyParams params;
    params.p = 0.25;
    params.n_hint = n_hint;
    SCOPED_TRACE(testing::Message() << "n_hint " << n_hint);

    const EntropyEstimator empty(params);
    ExpectSameEntropy(empty);

    EntropyEstimator fed(params);
    FeedItems(fed, a.data(), a.size());
    ExpectSameEntropy(fed);

    EntropyEstimator other(params);
    FeedItems(other, b.data(), b.size());
    fed.Merge(other, 0.5);
    ExpectSameEntropy(fed);
  }
}

}  // namespace
}  // namespace substream
