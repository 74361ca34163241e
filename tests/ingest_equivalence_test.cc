/// Property test for the one-hash-per-item ingest pipeline: for EVERY
/// summary class, the two ingest paths —
///   (a) scalar:    Update(item) per element,
///   (b) prehashed: PrehashColumnSoA + UpdatePrehashed(cols, n)
/// — must leave the summary in bit-identical state, and so must the
/// Monitor facade's third path, UpdateBatch(data, n). "Bit-identical" is
/// asserted in the strongest available form: the serialized wire records
/// (which include every counter, candidate pool, float row norm and RNG
/// state) must match byte for byte, and estimates must compare EQ as
/// doubles. This pins the core refactor invariant: the shared prehash is a
/// pure factoring of work, never a change in semantics.

#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/entropy_estimator.h"
#include "core/f0_estimator.h"
#include "core/fk_estimator.h"
#include "core/heavy_hitters.h"
#include "core/monitor.h"
#include "serde/serde.h"
#include "sketch/ams_f2.h"
#include "sketch/countmin.h"
#include "sketch/countsketch.h"
#include "sketch/entropy_sketch.h"
#include "sketch/hyperloglog.h"
#include "sketch/kmv.h"
#include "sketch/level_sets.h"
#include "sketch/sketch.h"
#include "sketch/space_saving.h"
#include "stream/generators.h"
#include "util/hash.h"

namespace substream {
namespace {

constexpr std::size_t kItems = 20000;

const Stream& TestStream() {
  static const Stream s = [] {
    ZipfGenerator g(4096, 1.2, 42);
    return Materialize(g, kItems);
  }();
  return s;
}

template <typename S>
std::vector<std::uint8_t> Bytes(const S& summary) {
  serde::Writer writer;
  summary.Serialize(writer);
  return writer.Take();
}

/// The prehash column of the fixture stream.
const std::vector<std::uint64_t>& TestHashes() {
  static const std::vector<std::uint64_t> hashes = [] {
    const Stream& s = TestStream();
    std::vector<std::uint64_t> h(s.size());
    PrehashColumnSoA(s.data(), s.size(), h.data());
    return h;
  }();
  return hashes;
}

/// Feeds the first `n` fixture items per item and as one column batch
/// into freshly constructed summaries and asserts byte-identical
/// serialized state.
template <typename Factory>
void ExpectPathEquivalence(Factory make, std::size_t n = kItems) {
  const Stream& s = TestStream();
  auto scalar = make();
  auto prehashed = make();

  for (std::size_t i = 0; i < n; ++i) scalar.Update(s[i]);
  prehashed.UpdatePrehashed(PrehashedColumns{s.data(), TestHashes().data()},
                            n);

  EXPECT_EQ(Bytes(scalar), Bytes(prehashed))
      << "scalar vs prehashed serialized state differs at n=" << n;
}

MonitorConfig SmallMonitorConfig() {
  MonitorConfig config;
  config.p = 0.25;
  config.universe = 1 << 14;
  config.hh_alpha = 0.02;
  config.max_f2_width = 1 << 10;
  return config;
}

TEST(IngestEquivalenceTest, CountMinSketch) {
  ExpectPathEquivalence([] {
    return CountMinSketch(/*depth=*/4, /*width=*/512, /*seed=*/7);
  });
}

TEST(IngestEquivalenceTest, CountMinCompactCells) {
  // Compact-cell storage: both ingest paths must agree byte-for-byte
  // at every cell width, including the widths the Zipf head saturates
  // (the top item appears far more than 255 times in the fixture stream,
  // so u8 and u16 tables spill mid-stream on every path).
  for (CellWidth cw : {CellWidth::k8, CellWidth::k16, CellWidth::k32}) {
    ExpectPathEquivalence([cw] {
      return CountMinSketch(/*depth=*/4, /*width=*/512, /*seed=*/7, cw);
    });
  }
}

TEST(IngestEquivalenceTest, CountSketchCompactCells) {
  for (CellWidth cw : {CellWidth::k8, CellWidth::k16, CellWidth::k32}) {
    ExpectPathEquivalence([cw] {
      return CountSketch(/*depth=*/5, /*width=*/512, /*seed=*/13, cw);
    });
  }
}

TEST(IngestEquivalenceTest, CompactCellEstimatesMatchWide) {
  // The tentpole invariant: with spill promotion, a narrow table's logical
  // estimates are EXACTLY those of the 64-bit reference at equal geometry
  // and seed — not merely close. The Zipf head crosses the u8 saturation
  // point thousands of times over, so this exercises deep level chains.
  const Stream& s = TestStream();
  CountMinSketch wide(4, 512, 7);
  FeedItems(wide, s.data(), s.size());
  for (CellWidth cw : {CellWidth::k8, CellWidth::k16, CellWidth::k32}) {
    CountMinSketch narrow(4, 512, 7, cw);
    FeedItems(narrow, s.data(), s.size());
    for (item_t x = 0; x < 512; ++x) {
      ASSERT_EQ(narrow.Estimate(x), wide.Estimate(x))
          << "cell_bits=" << CellBits(cw) << " item=" << x;
    }
  }
  CountSketch wide_cs(5, 512, 13);
  FeedItems(wide_cs, s.data(), s.size());
  for (CellWidth cw : {CellWidth::k8, CellWidth::k16, CellWidth::k32}) {
    CountSketch narrow(5, 512, 13, cw);
    FeedItems(narrow, s.data(), s.size());
    for (item_t x = 0; x < 512; ++x) {
      const PrehashedItem ph = MakePrehashed(x);
      ASSERT_EQ(narrow.Estimate(ph), wide_cs.Estimate(ph))
          << "cell_bits=" << CellBits(cw) << " item=" << x;
    }
  }
}

TEST(IngestEquivalenceTest, CountMinHeavyHitters) {
  ExpectPathEquivalence(
      [] { return CountMinHeavyHitters(0.02, 0.25, 0.05, 11); });
}

TEST(IngestEquivalenceTest, CountSketch) {
  ExpectPathEquivalence(
      [] { return CountSketch(/*depth=*/5, /*width=*/512, /*seed=*/13); });
}

TEST(IngestEquivalenceTest, CountSketchHeavyHitters) {
  ExpectPathEquivalence(
      [] { return CountSketchHeavyHitters(0.05, 0.25, 0.05, 17); });
}

TEST(IngestEquivalenceTest, HyperLogLog) {
  ExpectPathEquivalence([] { return HyperLogLog(12, 19); });
}

TEST(IngestEquivalenceTest, KmvSketch) {
  ExpectPathEquivalence([] { return KmvSketch(256, 23); });
}

TEST(IngestEquivalenceTest, EntropyMleEstimator) {
  ExpectPathEquivalence([] { return EntropyMleEstimator(); });
}

TEST(IngestEquivalenceTest, AmsF2Sketch) {
  ExpectPathEquivalence(
      [] { return AmsF2Sketch::WithGeometry(5, 32, 31); });
}

TEST(IngestEquivalenceTest, SpaceSaving) {
  ExpectPathEquivalence([] { return SpaceSaving(64); });
}

TEST(IngestEquivalenceTest, IndykWoodruffEstimator) {
  ExpectPathEquivalence([] {
    LevelSetParams params;
    params.eps_prime = 0.25;
    params.max_depth = 10;
    params.cs_depth = 5;
    params.cs_width = 256;
    return IndykWoodruffEstimator(params, 37);
  });
}

TEST(IngestEquivalenceTest, ExactLevelSets) {
  ExpectPathEquivalence([] { return ExactLevelSets(0.25, 0.5); });
}

TEST(IngestEquivalenceTest, F0EstimatorAllBackends) {
  for (F0Backend backend :
       {F0Backend::kKmv, F0Backend::kHyperLogLog, F0Backend::kExact}) {
    ExpectPathEquivalence([backend] {
      F0Params params;
      params.p = 0.5;
      params.backend = backend;
      params.kmv_k = 256;
      params.hll_precision = 12;
      return F0Estimator(params, 41);
    });
  }
}

TEST(IngestEquivalenceTest, FkEstimatorSketchBackend) {
  ExpectPathEquivalence([] {
    FkParams params;
    params.k = 2;
    params.p = 0.5;
    params.universe = 4096;
    params.epsilon = 0.25;
    params.max_width = 512;
    return FkEstimator(params, 43);
  });
}

TEST(IngestEquivalenceTest, EntropyEstimator) {
  ExpectPathEquivalence([] {
    EntropyParams params;
    params.p = 0.5;
    return EntropyEstimator(params);
  });
}

TEST(IngestEquivalenceTest, F1HeavyHitterEstimator) {
  ExpectPathEquivalence([] {
    HeavyHitterParams params;
    params.alpha = 0.02;
    params.p = 0.5;
    return F1HeavyHitterEstimator(params, 53);
  });
}

TEST(IngestEquivalenceTest, F2HeavyHitterEstimator) {
  ExpectPathEquivalence([] {
    HeavyHitterParams params;
    params.alpha = 0.1;
    params.p = 0.5;
    return F2HeavyHitterEstimator(params, 59);
  });
}

TEST(IngestEquivalenceTest, MonitorFullPipeline) {
  ExpectPathEquivalence([] { return Monitor(SmallMonitorConfig(), 61); });
}

TEST(IngestEquivalenceTest, MonitorPathsAtChunkBoundaries) {
  // Monitor::UpdateBatch routes through the column chunker
  // (ForEachPrehashedChunkCols); pin that it, and one column batch, match
  // per-item Update byte-for-byte at the sizes that sit on the kernel
  // boundaries: 0 and 1 (empty/degenerate), 63/64/65 (the 64-item
  // micro-block edge), 1023/1024/1025 (the cache-block and prehash chunk
  // edge). At the same sizes, a column batch at weight 8 counts 8 units
  // per element in sampled_length but one raw update each, and leaves F0
  // (unweighted inside Monitor) at the unweighted estimate.
  constexpr std::size_t kBoundarySizes[] = {0,  1,    63,   64,
                                            65, 1023, 1024, 1025};
  constexpr count_t kWeight = 8;
  const Stream& s = TestStream();
  const PrehashedColumns cols{s.data(), TestHashes().data()};
  for (std::size_t n : kBoundarySizes) {
    ExpectPathEquivalence([] { return Monitor(SmallMonitorConfig(), 61); },
                          n);
    Monitor scalar(SmallMonitorConfig(), 61);
    Monitor batched(SmallMonitorConfig(), 61);
    for (std::size_t i = 0; i < n; ++i) scalar.Update(s[i]);
    batched.UpdateBatch(s.data(), n);
    EXPECT_EQ(Bytes(scalar), Bytes(batched)) << "n=" << n;

    Monitor weighted(SmallMonitorConfig(), 61);
    weighted.UpdatePrehashed(cols, n, kWeight);
    const MonitorReport want = batched.Report();
    const MonitorReport got = weighted.Report();
    EXPECT_EQ(got.sampled_length, kWeight * n) << "n=" << n;
    EXPECT_EQ(got.raw_updates, n) << "n=" << n;
    ASSERT_TRUE(got.distinct_items.has_value());
    EXPECT_EQ(*got.distinct_items, *want.distinct_items) << "n=" << n;
  }
}

TEST(IngestEquivalenceTest, MonitorReportsMatchAcrossPaths) {
  // Beyond state bytes: the consolidated reports must compare EQ as
  // doubles across all three Monitor ingest paths.
  MonitorConfig config;
  config.p = 0.25;
  config.universe = 1 << 14;
  config.max_f2_width = 1 << 10;
  const Stream& s = TestStream();

  Monitor scalar(config, 67), batched(config, 67), prehashed(config, 67);
  for (item_t x : s) scalar.Update(x);
  batched.UpdateBatch(s.data(), s.size());
  prehashed.UpdatePrehashed(PrehashedColumns{s.data(), TestHashes().data()},
                            s.size());

  const MonitorReport a = scalar.Report();
  const MonitorReport b = batched.Report();
  const MonitorReport c = prehashed.Report();
  for (const MonitorReport* r : {&b, &c}) {
    EXPECT_EQ(a.sampled_length, r->sampled_length);
    EXPECT_EQ(*a.distinct_items, *r->distinct_items);
    EXPECT_EQ(*a.second_moment, *r->second_moment);
    EXPECT_EQ(a.entropy->entropy, r->entropy->entropy);
    ASSERT_EQ(a.heavy_hitters->size(), r->heavy_hitters->size());
    for (std::size_t i = 0; i < a.heavy_hitters->size(); ++i) {
      EXPECT_EQ((*a.heavy_hitters)[i].item, (*r->heavy_hitters)[i].item);
      EXPECT_EQ((*a.heavy_hitters)[i].estimated_frequency,
                (*r->heavy_hitters)[i].estimated_frequency);
    }
  }
}

}  // namespace
}  // namespace substream
