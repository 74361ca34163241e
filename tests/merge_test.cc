/// Merge semantics across the sketch family: a merged sketch must be
/// equivalent (exactly, for linear sketches; within guarantees, for
/// summaries) to a single sketch fed the concatenated stream. This is the
/// distributed-monitors setting of the related work [16, 36]: several
/// routers each sample and sketch locally, a collector merges.

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/substream.h"
#include "serde/serde.h"

namespace substream {
namespace {

struct TwoStreams {
  Stream a;
  Stream b;
  Stream both;
};

TwoStreams MakeStreams() {
  TwoStreams t;
  ZipfGenerator g1(2000, 1.2, 1);
  ZipfGenerator g2(3000, 1.0, 2);
  t.a = Materialize(g1, 30000);
  t.b = Materialize(g2, 40000);
  t.both = t.a;
  t.both.insert(t.both.end(), t.b.begin(), t.b.end());
  return t;
}

TEST(MergeTest, CountMinEqualsConcatenation) {
  TwoStreams t = MakeStreams();
  CountMinSketch sa(5, 1024, 7), sb(5, 1024, 7), sboth(5, 1024, 7);
  for (item_t x : t.a) sa.Update(x);
  for (item_t x : t.b) sb.Update(x);
  for (item_t x : t.both) sboth.Update(x);
  sa.Merge(sb);
  EXPECT_EQ(sa.TotalCount(), sboth.TotalCount());
  for (item_t probe : {1, 2, 3, 10, 100, 999}) {
    EXPECT_EQ(sa.Estimate(static_cast<item_t>(probe)),
              sboth.Estimate(static_cast<item_t>(probe)));
  }
}

TEST(MergeTest, CountSketchEqualsConcatenation) {
  TwoStreams t = MakeStreams();
  CountSketch sa(5, 1024, 9), sb(5, 1024, 9), sboth(5, 1024, 9);
  for (item_t x : t.a) sa.Update(x);
  for (item_t x : t.b) sb.Update(x);
  for (item_t x : t.both) sboth.Update(x);
  sa.Merge(sb);
  EXPECT_DOUBLE_EQ(sa.EstimateF2(), sboth.EstimateF2());
  for (item_t probe : {1, 2, 3, 10, 100}) {
    EXPECT_DOUBLE_EQ(sa.Estimate(static_cast<item_t>(probe)),
                     sboth.Estimate(static_cast<item_t>(probe)));
  }
}

TEST(MergeTest, AmsEqualsConcatenation) {
  TwoStreams t = MakeStreams();
  AmsF2Sketch sa = AmsF2Sketch::WithGeometry(5, 64, 11);
  AmsF2Sketch sb = AmsF2Sketch::WithGeometry(5, 64, 11);
  AmsF2Sketch sboth = AmsF2Sketch::WithGeometry(5, 64, 11);
  for (item_t x : t.a) sa.Update(x);
  for (item_t x : t.b) sb.Update(x);
  for (item_t x : t.both) sboth.Update(x);
  sa.Merge(sb);
  EXPECT_DOUBLE_EQ(sa.Estimate(), sboth.Estimate());
}

TEST(MergeTest, KmvEqualsConcatenation) {
  TwoStreams t = MakeStreams();
  KmvSketch sa(256, 13), sb(256, 13), sboth(256, 13);
  for (item_t x : t.a) sa.Update(x);
  for (item_t x : t.b) sb.Update(x);
  for (item_t x : t.both) sboth.Update(x);
  sa.Merge(sb);
  EXPECT_DOUBLE_EQ(sa.Estimate(), sboth.Estimate());
}

TEST(MergeTest, HllEqualsConcatenation) {
  TwoStreams t = MakeStreams();
  HyperLogLog sa(12, 15), sb(12, 15), sboth(12, 15);
  for (item_t x : t.a) sa.Update(x);
  for (item_t x : t.b) sb.Update(x);
  for (item_t x : t.both) sboth.Update(x);
  sa.Merge(sb);
  EXPECT_DOUBLE_EQ(sa.Estimate(), sboth.Estimate());
}

TEST(MergeTest, IndykWoodruffEqualsConcatenationEstimates) {
  TwoStreams t = MakeStreams();
  LevelSetParams params;
  params.eps_prime = 0.2;
  params.max_depth = 12;
  params.cs_depth = 5;
  params.cs_width = 1024;
  IndykWoodruffEstimator sa(params, 17), sb(params, 17), sboth(params, 17);
  for (item_t x : t.a) sa.Update(x);
  for (item_t x : t.b) sb.Update(x);
  for (item_t x : t.both) sboth.Update(x);
  sa.Merge(sb);
  EXPECT_EQ(sa.ConsumedLength(), sboth.ConsumedLength());
  // The underlying CountSketches merge exactly; candidate pools may differ
  // slightly (tracking is order-dependent), so compare the final collision
  // estimates within a modest tolerance.
  EXPECT_NEAR(sa.EstimateCollisions(2), sboth.EstimateCollisions(2),
              0.25 * sboth.EstimateCollisions(2) + 1.0);
}

TEST(MergeTest, SpaceSavingKeepsGuaranteeAfterMerge) {
  TwoStreams t = MakeStreams();
  const std::size_t k = 64;
  SpaceSaving sa(k), sb(k);
  for (item_t x : t.a) sa.Update(x);
  for (item_t x : t.b) sb.Update(x);
  sa.Merge(sb);
  FrequencyTable exact = ExactStats(t.both);
  // Merged summary keeps the SpaceSaving envelope for the combined stream:
  // estimates never underestimate, and overestimate by at most F1_total/k.
  const double bound = static_cast<double>(exact.F1()) / static_cast<double>(k);
  for (const auto& [item, est] : sa.Candidates(0.0)) {
    EXPECT_GE(static_cast<double>(est),
              static_cast<double>(exact.Frequency(item)))
        << "item " << item;
    EXPECT_LE(static_cast<double>(est),
              static_cast<double>(exact.Frequency(item)) + bound)
        << "item " << item;
  }
  EXPECT_LE(sa.SpaceBytes(), k * (sizeof(item_t) + 2 * sizeof(count_t)));
}

TEST(MergeTest, EntropyMleEqualsConcatenation) {
  TwoStreams t = MakeStreams();
  EntropyMleEstimator ea, eb, eboth;
  for (item_t x : t.a) ea.Update(x);
  for (item_t x : t.b) eb.Update(x);
  for (item_t x : t.both) eboth.Update(x);
  ea.Merge(eb);
  EXPECT_EQ(ea.ConsumedLength(), eboth.ConsumedLength());
  EXPECT_NEAR(ea.Estimate(), eboth.Estimate(), 1e-9);
}

TEST(MergeTest, HeavyHitterTrackersMerge) {
  TwoStreams t = MakeStreams();
  CountMinHeavyHitters ha(0.02, 0.25, 0.05, 31), hb(0.02, 0.25, 0.05, 31),
      hboth(0.02, 0.25, 0.05, 31);
  for (item_t x : t.a) ha.Update(x);
  for (item_t x : t.b) hb.Update(x);
  for (item_t x : t.both) hboth.Update(x);
  ha.Merge(hb);
  EXPECT_EQ(ha.TotalCount(), hboth.TotalCount());
  // The merged CountMin is exactly the concatenation sketch, so shared
  // candidates get identical estimates.
  const auto merged = ha.Candidates(0.02);
  const auto whole = hboth.Candidates(0.02);
  ASSERT_FALSE(whole.empty());
  EXPECT_EQ(merged.front().first, whole.front().first);
  EXPECT_EQ(merged.front().second, whole.front().second);
}

TEST(MergeTest, MonitorMergeMatchesSingleMonitor) {
  TwoStreams t = MakeStreams();
  MonitorConfig config;
  config.p = 1.0;
  config.universe = 4000;
  Monitor ma(config, 41), mb(config, 41), mboth(config, 41);
  ma.UpdateBatch(t.a.data(), t.a.size());
  mb.UpdateBatch(t.b.data(), t.b.size());
  mboth.UpdateBatch(t.both.data(), t.both.size());
  ma.Merge(mb);
  const MonitorReport merged = ma.Report(), whole = mboth.Report();
  EXPECT_EQ(merged.sampled_length, whole.sampled_length);
  EXPECT_DOUBLE_EQ(*merged.distinct_items, *whole.distinct_items);
  EXPECT_NEAR(merged.entropy->entropy, whole.entropy->entropy, 1e-9);
  EXPECT_NEAR(*merged.second_moment, *whole.second_moment,
              0.15 * *whole.second_moment + 1.0);
}

// FNV-1a (64-bit) over a summary's wire record.
template <typename S>
std::uint64_t WireDigest(const S& summary) {
  serde::Writer out;
  summary.Serialize(out);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : out.bytes()) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct MergedMonitorDigests {
  std::uint64_t three_way;  // after merging shards 0-2
  std::uint64_t decayed;    // then shards 3-5 at weights 0.8, 0.5, min
};

// Six shard monitors, each fed its own wide Zipf stream. The F2 width cap
// of 16 gives a 7 x 16 CountSketch, so every F2 cell adds many keys and
// its row norms are recomputed on each merge; the CountMin heavy-hitter
// pool (capacity 194) fills and evicts during the decayed merges. The
// smallest normal double is the clamp WindowedMonitor::ReportDecayed
// applies to underflowing weights.
MergedMonitorDigests MonitorMergeDigests(CellWidth cell_width) {
  MonitorConfig config;
  config.p = 1.0;
  config.universe = 1 << 18;
  config.max_f2_width = 16;
  config.cell_width = cell_width;
  std::vector<Monitor> shards;
  for (std::uint64_t s = 0; s < 6; ++s) {
    shards.emplace_back(config, 77);
    ZipfGenerator gen(1 << 18, 0.7, 100 + s);
    const Stream stream = Materialize(gen, 20000);
    shards.back().UpdateBatch(stream.data(), stream.size());
  }
  Monitor merged(config, 77);
  for (std::size_t s = 0; s < 3; ++s) merged.Merge(shards[s]);
  MergedMonitorDigests digests;
  digests.three_way = WireDigest(merged);
  merged.MergeScaled(shards[3], 0.8);
  merged.MergeScaled(shards[4], 0.5);
  merged.MergeScaled(shards[5], std::numeric_limits<double>::min());
  digests.decayed = WireDigest(merged);
  return digests;
}

// Pins the exact merged and decayed-merged state bytes, so a refactor of
// any merge body (counter adds, exact-map adds, candidate-pool unions and
// evictions) that changes a single byte fails here. Eviction picks the
// first minimum in unordered_map iteration order, so the digests assume
// libstdc++'s hash table.
TEST(MergedBytesTest, MonitorShardAndDecayedMergesPinned64) {
  const MergedMonitorDigests d = MonitorMergeDigests(CellWidth::k64);
  EXPECT_EQ(d.three_way, 0x149b101274ed086bULL);
  EXPECT_EQ(d.decayed, 0xb989f3ca5caf42b2ULL);
}

TEST(MergedBytesTest, MonitorShardAndDecayedMergesPinned8) {
  const MergedMonitorDigests d = MonitorMergeDigests(CellWidth::k8);
  EXPECT_EQ(d.three_way, 0xf0b7647d1202867aULL);
  EXPECT_EQ(d.decayed, 0xeb3e689c9256b2c0ULL);
}

// The CountSketch heavy-hitter pool is not part of a Monitor; pin its
// merged and decayed-merged bytes the same way. Each shard's pool holds
// ~2100 of its 3797 slots, so the 3-way union already evicts.
void ExpectF2HeavyHitterMergeDigests(CellWidth cell_width,
                                     std::uint64_t three_way,
                                     std::uint64_t decayed) {
  HeavyHitterParams params;
  params.cell_width = cell_width;
  std::vector<F2HeavyHitterEstimator> shards;
  for (std::uint64_t s = 0; s < 6; ++s) {
    shards.emplace_back(params, 5);
    ZipfGenerator gen(1 << 18, 0.7, 200 + s);
    const Stream stream = Materialize(gen, 20000);
    FeedItems(shards.back(), stream.data(), stream.size());
  }
  F2HeavyHitterEstimator merged(params, 5);
  for (std::size_t s = 0; s < 3; ++s) merged.Merge(shards[s]);
  EXPECT_EQ(WireDigest(merged), three_way);
  merged.Merge(shards[3], 0.8);
  merged.Merge(shards[4], 0.5);
  merged.Merge(shards[5], std::numeric_limits<double>::min());
  EXPECT_EQ(WireDigest(merged), decayed);
}

TEST(MergedBytesTest, F2HeavyHitterShardAndDecayedMergesPinned) {
  ExpectF2HeavyHitterMergeDigests(CellWidth::k64, 0xd5658f7d228cac0cULL,
                                  0x6986bd75b6db0d6bULL);
  ExpectF2HeavyHitterMergeDigests(CellWidth::k8, 0xa45df39878b236faULL,
                                  0x03d3dfcc86df711fULL);
}

using MergePreconditionDeathTest = ::testing::Test;

TEST(MergePreconditionDeathTest, MismatchedGeometryOrSeedAborts) {
  // Merging sketches with different geometry or seed must fail loudly
  // (SUBSTREAM_CHECK abort), never silently corrupt estimates.
  CountMinSketch cm_a(5, 1024, 7), cm_seed(5, 1024, 8), cm_width(5, 512, 7);
  EXPECT_DEATH(cm_a.Merge(cm_seed), "incompatible CountMin");
  EXPECT_DEATH(cm_a.Merge(cm_width), "incompatible CountMin");

  CountSketch cs_a(5, 1024, 9), cs_b(7, 1024, 9);
  EXPECT_DEATH(cs_a.Merge(cs_b), "incompatible CountSketch");

  AmsF2Sketch ams_a = AmsF2Sketch::WithGeometry(5, 64, 11);
  AmsF2Sketch ams_b = AmsF2Sketch::WithGeometry(5, 32, 11);
  EXPECT_DEATH(ams_a.Merge(ams_b), "incompatible AMS");

  KmvSketch kmv_a(256, 13), kmv_b(256, 14);
  EXPECT_DEATH(kmv_a.Merge(kmv_b), "incompatible KMV");

  HyperLogLog hll_a(12, 15), hll_b(12, 16);
  EXPECT_DEATH(hll_a.Merge(hll_b), "incompatible HyperLogLog");

  SpaceSaving ss_a(16), ss_b(32);
  EXPECT_DEATH(ss_a.Merge(ss_b), "different k");

  LevelSetParams params;
  IndykWoodruffEstimator iw_a(params, 17), iw_b(params, 18);
  EXPECT_DEATH(iw_a.Merge(iw_b), "incompatible level-set");
}

TEST(MergePreconditionDeathTest, MismatchedMonitorsAbort) {
  MonitorConfig config;
  config.p = 0.5;
  Monitor seed_a(config, 1), seed_b(config, 2);
  EXPECT_DEATH(seed_a.Merge(seed_b), "different seeds");

  MonitorConfig other = config;
  other.p = 0.25;
  Monitor config_a(config, 3), config_b(other, 3);
  EXPECT_DEATH(config_a.Merge(config_b), "different configurations");
}

TEST(MergePreconditionDeathTest, MismatchedEstimatorsAbort) {
  F0Params f0_kmv, f0_hll;
  f0_hll.backend = F0Backend::kHyperLogLog;
  F0Estimator f0_a(f0_kmv, 1), f0_b(f0_hll, 1);
  EXPECT_DEATH(f0_a.Merge(f0_b), "different configurations");

  HeavyHitterParams hh_params, hh_other;
  hh_other.alpha = 0.5;
  F1HeavyHitterEstimator hh_a(hh_params, 1), hh_b(hh_other, 1);
  EXPECT_DEATH(hh_a.Merge(hh_b), "different configurations");
}

TEST(MergePreconditionDeathTest, ZeroCountExactMapUpdatesAbort) {
  // Exact count maps hold counts >= 1 and merges add up their mass on that
  // invariant, so a zero count aborts instead of planting a zero entry.
  EntropyMleEstimator mle;
  EXPECT_DEATH(mle.Update(7, 0), "count >= 1");
  ExactLevelSets levels(0.25, 0.5);
  EXPECT_DEATH(levels.Update(7, 0), "count >= 1");
  IndykWoodruffEstimator iw(LevelSetParams{}, 17);
  const item_t item = 7;
  const std::uint64_t hash = PreHash(item);
  EXPECT_DEATH(iw.UpdatePrehashed(PrehashedColumns{&item, &hash}, 1, 0),
               "weight >= 1");
}

TEST(MergeTest, DistributedMonitorsPipeline) {
  // End-to-end distributed scenario: two routers Bernoulli-sample their
  // local traffic at the same rate, sketch locally, and a collector merges
  // to answer about the union of the *original* streams.
  TwoStreams t = MakeStreams();
  const double p = 0.2;
  FrequencyTable exact = ExactStats(t.both);

  KmvSketch kmv_a(1024, 19), kmv_b(1024, 19);
  CountSketch cs_a(7, 2048, 21), cs_b(7, 2048, 21);
  BernoulliSampler sampler_a(p, 23), sampler_b(p, 29);
  count_t len_a = 0, len_b = 0;
  for (item_t x : t.a) {
    if (sampler_a.Keep()) {
      kmv_a.Update(x);
      cs_a.Update(x);
      ++len_a;
    }
  }
  for (item_t x : t.b) {
    if (sampler_b.Keep()) {
      kmv_b.Update(x);
      cs_b.Update(x);
      ++len_b;
    }
  }
  kmv_a.Merge(kmv_b);
  cs_a.Merge(cs_b);

  // F0 via Algorithm 2 scaling on the merged sketch.
  const double f0_est = kmv_a.Estimate() / std::sqrt(p);
  EXPECT_TRUE(WithinFactor(f0_est, static_cast<double>(exact.F0()),
                           4.0 / std::sqrt(p)));

  // F2 via Rusu–Dobra-style unbiasing of the merged CountSketch F2.
  const double f1_sampled = static_cast<double>(len_a + len_b);
  const double f2_est =
      (cs_a.EstimateF2() - (1.0 - p) * f1_sampled) / (p * p);
  EXPECT_TRUE(WithinFactor(f2_est, exact.Fk(2), 1.5));
}

}  // namespace
}  // namespace substream
