/// Round-trip property for every mergeable summary: serialize, deserialize,
/// then Merge with a live peer — the result must report the same estimates
/// as a never-serialized instance merged with an identical peer. This is
/// the contract that lets summaries cross process boundaries: a decoded
/// summary is indistinguishable from the original to the merge machinery.
///
/// Determinism setup: for each type we build two *pairs* of identical
/// instances (same seed, same stream), round-trip one of each pair, and
/// compare against the untouched pair. Array-shaped summaries additionally
/// re-serialize to bit-identical bytes (map-backed ones may permute entries
/// across a decode, which changes bytes but not state).

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
#include "sketch/space_saving.h"
#include "stream/generators.h"

namespace substream {
namespace {

/// Debug builds (including the sanitizer CI jobs, where every update costs
/// 5-20x) scale the property-test streams down: every assertion here
/// compares two identically-constructed summaries, so the properties are
/// size-invariant and lose no coverage. Release keeps the full geometry,
/// and MonitorFullReport below stays Release-sized in every build as the
/// one full-width sentinel.
#ifdef NDEBUG
inline constexpr std::size_t kStreamScale = 1;
#else
inline constexpr std::size_t kStreamScale = 8;
#endif

Stream StreamA(std::size_t scale = kStreamScale) {
  ZipfGenerator generator(4000, 1.1, 101);
  return Materialize(generator, 30000 / scale);
}

Stream StreamB(std::size_t scale = kStreamScale) {
  ZipfGenerator generator(4000, 1.3, 202);
  return Materialize(generator, 20000 / scale);
}

/// Full-size streams for the one deliberately Release-sized case: the same
/// generators as StreamA/StreamB, unscaled in every build type.
Stream FullStreamA() { return StreamA(/*scale=*/1); }

Stream FullStreamB() { return StreamB(/*scale=*/1); }

template <typename S>
void Feed(S& summary, const Stream& stream) {
  for (item_t a : stream) summary.Update(a);
}

template <typename S>
std::optional<S> RoundTrip(const S& summary, std::size_t* wire_bytes = nullptr) {
  serde::Writer writer;
  summary.Serialize(writer);
  if (wire_bytes != nullptr) *wire_bytes = writer.size();
  serde::Reader reader(writer.bytes());
  auto decoded = S::Deserialize(reader);
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.remaining(), 0u);
  return decoded;
}

/// Core property: round-tripping one side of a merge changes nothing the
/// estimate can observe.
template <typename S, typename MakeFn, typename EstimateFn>
void ExpectMergeAfterRoundTripIdentical(MakeFn make, EstimateFn estimate) {
  const Stream a = StreamA(), b = StreamB();
  S a_live = make(), b_live = make(), a_wire = make(), b_peer = make();
  Feed(a_live, a);
  Feed(b_live, b);
  Feed(a_wire, a);
  Feed(b_peer, b);

  auto restored = RoundTrip(a_wire);
  ASSERT_TRUE(restored.has_value());

  // Estimates agree before the merge too (pure round-trip)...
  EXPECT_DOUBLE_EQ(estimate(*restored), estimate(a_live));
  // ...and after folding in a live peer on both sides.
  a_live.Merge(b_live);
  restored->Merge(b_peer);
  EXPECT_DOUBLE_EQ(estimate(*restored), estimate(a_live));
}

/// Array-shaped summaries have canonical encodings: decode(encode(x))
/// re-encodes to the identical byte string.
template <typename S>
void ExpectByteStableRoundTrip(const S& summary) {
  serde::Writer first;
  summary.Serialize(first);
  serde::Reader reader(first.bytes());
  auto decoded = S::Deserialize(reader);
  ASSERT_TRUE(decoded.has_value());
  serde::Writer second;
  decoded->Serialize(second);
  EXPECT_EQ(first.bytes(), second.bytes());
}

TEST(SerdeRoundTripTest, CountMinSketch) {
  auto make = [] { return CountMinSketch(5, 512, 77); };
  ExpectMergeAfterRoundTripIdentical<CountMinSketch>(make, [](const auto& s) {
    return static_cast<double>(s.Estimate(1)) +
           static_cast<double>(s.Estimate(17)) +
           static_cast<double>(s.TotalCount());
  });
  CountMinSketch sketch = make();
  Feed(sketch, StreamA());
  ExpectByteStableRoundTrip(sketch);
}

TEST(SerdeRoundTripTest, CountMinHeavyHitters) {
  auto make = [] { return CountMinHeavyHitters(0.02, 0.25, 0.05, 31); };
  ExpectMergeAfterRoundTripIdentical<CountMinHeavyHitters>(
      make, [](const auto& s) {
        double sum = static_cast<double>(s.TotalCount());
        for (const auto& [item, est] : s.Candidates(0.02)) {
          sum += static_cast<double>(item) + static_cast<double>(est);
        }
        return sum;
      });
}

TEST(SerdeRoundTripTest, CountSketch) {
  auto make = [] { return CountSketch(5, 512, 123); };
  ExpectMergeAfterRoundTripIdentical<CountSketch>(make, [](const auto& s) {
    return s.Estimate(1) + s.Estimate(42) + s.EstimateF2();
  });
  CountSketch sketch = make();
  Feed(sketch, StreamA());
  ExpectByteStableRoundTrip(sketch);
}

TEST(SerdeRoundTripTest, CountSketchHeavyHitters) {
  auto make = [] { return CountSketchHeavyHitters(0.05, 0.25, 0.05, 9); };
  ExpectMergeAfterRoundTripIdentical<CountSketchHeavyHitters>(
      make, [](const auto& s) {
        double sum = 0.0;
        for (const auto& [item, est] : s.Candidates(0.05)) {
          sum += static_cast<double>(item) + est;
        }
        return sum;
      });
}

TEST(SerdeRoundTripTest, AmsF2Sketch) {
  auto make = [] { return AmsF2Sketch::WithGeometry(9, 64, 55); };
  ExpectMergeAfterRoundTripIdentical<AmsF2Sketch>(
      make, [](const auto& s) { return s.Estimate(); });
  AmsF2Sketch sketch = make();
  Feed(sketch, StreamA());
  ExpectByteStableRoundTrip(sketch);
}

TEST(SerdeRoundTripTest, HyperLogLog) {
  auto make = [] { return HyperLogLog(12, 88); };
  ExpectMergeAfterRoundTripIdentical<HyperLogLog>(
      make, [](const auto& s) { return s.Estimate(); });
  HyperLogLog sketch = make();
  Feed(sketch, StreamA());
  ExpectByteStableRoundTrip(sketch);
}

TEST(SerdeRoundTripTest, KmvSketch) {
  auto make = [] { return KmvSketch(256, 14); };
  ExpectMergeAfterRoundTripIdentical<KmvSketch>(
      make, [](const auto& s) { return s.Estimate(); });
  KmvSketch sketch = make();
  Feed(sketch, StreamA());
  ExpectByteStableRoundTrip(sketch);
}

TEST(SerdeRoundTripTest, SpaceSaving) {
  auto make = [] { return SpaceSaving(64); };
  ExpectMergeAfterRoundTripIdentical<SpaceSaving>(make, [](const auto& s) {
    double sum = static_cast<double>(s.TotalCount()) +
                 static_cast<double>(s.ErrorBound());
    for (const auto& [item, count] : s.Candidates(1.0)) {
      sum += static_cast<double>(item) + static_cast<double>(count);
    }
    return sum;
  });
}

TEST(SerdeRoundTripTest, EntropyMleEstimator) {
  auto make = [] { return EntropyMleEstimator(); };
  ExpectMergeAfterRoundTripIdentical<EntropyMleEstimator>(
      make, [](const auto& s) { return s.Estimate(); });
}

TEST(SerdeRoundTripTest, IndykWoodruffEstimator) {
  auto make = [] {
    LevelSetParams params;
    params.cs_width = 256;
    params.cs_depth = 5;
    params.max_depth = 12;
    return IndykWoodruffEstimator(params, 3);
  };
  ExpectMergeAfterRoundTripIdentical<IndykWoodruffEstimator>(
      make, [](const auto& s) {
        return s.EstimateCollisions(2) + s.EstimateMoment(2) +
               static_cast<double>(s.ConsumedLength());
      });
}

TEST(SerdeRoundTripTest, ExactLevelSets) {
  auto make = [] { return ExactLevelSets(0.25, 0.5); };
  ExpectMergeAfterRoundTripIdentical<ExactLevelSets>(
      make, [](const auto& s) {
        return s.EstimateCollisions(2) + s.ExactMoment(2);
      });
}

TEST(SerdeRoundTripTest, F0EstimatorAllBackends) {
  for (F0Backend backend :
       {F0Backend::kKmv, F0Backend::kHyperLogLog, F0Backend::kExact}) {
    SCOPED_TRACE(static_cast<int>(backend));
    auto make = [backend] {
      F0Params params;
      params.p = 0.4;
      params.backend = backend;
      params.kmv_k = 128;
      params.hll_precision = 10;
      return F0Estimator(params, 7);
    };
    ExpectMergeAfterRoundTripIdentical<F0Estimator>(
        make, [](const auto& s) { return s.Estimate(); });
  }
}

TEST(SerdeRoundTripTest, FkEstimatorAllBackends) {
  for (CollisionBackend backend :
       {CollisionBackend::kSketch, CollisionBackend::kExactCollisions,
        CollisionBackend::kExactLevelSets}) {
    SCOPED_TRACE(static_cast<int>(backend));
    auto make = [backend] {
      FkParams params;
      params.k = 3;
      params.p = 0.5;
      params.universe = 4000;
      params.backend = backend;
      params.max_width = 256;
      return FkEstimator(params, 19);
    };
    ExpectMergeAfterRoundTripIdentical<FkEstimator>(
        make, [](const auto& s) { return s.Estimate(); });
  }
}

TEST(SerdeRoundTripTest, EntropyEstimator) {
  auto make = [] {
    EntropyParams params;
    params.p = 0.4;
    return EntropyEstimator(params);
  };
  ExpectMergeAfterRoundTripIdentical<EntropyEstimator>(
      make, [](const auto& s) { return s.Estimate().entropy; });
}

TEST(SerdeRoundTripTest, F1HeavyHitterEstimator) {
  auto make = [] {
    HeavyHitterParams params;
    params.alpha = 0.02;
    params.p = 0.5;
    return F1HeavyHitterEstimator(params, 29);
  };
  ExpectMergeAfterRoundTripIdentical<F1HeavyHitterEstimator>(
      make, [](const auto& s) {
        double sum = static_cast<double>(s.SampledLength());
        for (const HeavyHitter& h : s.Estimate()) {
          sum += static_cast<double>(h.item) + h.estimated_frequency;
        }
        return sum;
      });
}

TEST(SerdeRoundTripTest, F2HeavyHitterEstimator) {
  auto make = [] {
    HeavyHitterParams params;
    params.alpha = 0.05;
    params.p = 0.5;
    return F2HeavyHitterEstimator(params, 37);
  };
  ExpectMergeAfterRoundTripIdentical<F2HeavyHitterEstimator>(
      make, [](const auto& s) {
        double sum = static_cast<double>(s.SampledLength());
        for (const HeavyHitter& h : s.Estimate()) {
          sum += static_cast<double>(h.item) + h.estimated_frequency;
        }
        return sum;
      });
}

MonitorConfig RoundTripMonitorConfig() {
  MonitorConfig config;
  config.p = 0.3;
  config.universe = 4000;
  config.hh_alpha = 0.02;
  config.max_f2_width = 1 << 10;
  return config;
}

TEST(SerdeRoundTripTest, MonitorFullReport) {
  // The one Release-sized case in every build type: the full Monitor over
  // the unscaled streams, so Debug/sanitizer runs still cross the
  // megabyte-wide sketch geometries once.
  auto make = [] { return Monitor(RoundTripMonitorConfig(), 41); };
  const Stream a = FullStreamA(), b = FullStreamB();
  Monitor a_live = make(), b_live = make(), a_wire = make(), b_peer = make();
  Feed(a_live, a);
  Feed(b_live, b);
  Feed(a_wire, a);
  Feed(b_peer, b);

  std::size_t wire_bytes = 0;
  auto restored = RoundTrip(a_wire, &wire_bytes);
  ASSERT_TRUE(restored.has_value());
  EXPECT_GT(wire_bytes, 0u);
  EXPECT_TRUE(restored->MergeCompatibleWith(a_live));

  a_live.Merge(b_live);
  restored->Merge(b_peer);
  const MonitorReport expected = a_live.Report();
  const MonitorReport actual = restored->Report();

  EXPECT_EQ(actual.sampled_length, expected.sampled_length);
  EXPECT_DOUBLE_EQ(actual.scaled_length, expected.scaled_length);
  ASSERT_TRUE(actual.distinct_items.has_value());
  EXPECT_DOUBLE_EQ(*actual.distinct_items, *expected.distinct_items);
  ASSERT_TRUE(actual.second_moment.has_value());
  EXPECT_DOUBLE_EQ(*actual.second_moment, *expected.second_moment);
  ASSERT_TRUE(actual.entropy.has_value());
  EXPECT_DOUBLE_EQ(actual.entropy->entropy, expected.entropy->entropy);
  ASSERT_TRUE(actual.heavy_hitters.has_value());
  ASSERT_EQ(actual.heavy_hitters->size(), expected.heavy_hitters->size());
  for (std::size_t i = 0; i < expected.heavy_hitters->size(); ++i) {
    EXPECT_EQ((*actual.heavy_hitters)[i].item,
              (*expected.heavy_hitters)[i].item);
    EXPECT_DOUBLE_EQ((*actual.heavy_hitters)[i].estimated_frequency,
                     (*expected.heavy_hitters)[i].estimated_frequency);
  }
}

TEST(SerdeRoundTripTest, MonitorDisabledEstimatorsStayDisabled) {
  MonitorConfig config = RoundTripMonitorConfig();
  config.enable_f2 = false;
  config.enable_heavy_hitters = false;
  Monitor monitor(config, 43);
  Feed(monitor, StreamA());
  auto restored = RoundTrip(monitor);
  ASSERT_TRUE(restored.has_value());
  const MonitorReport report = restored->Report();
  EXPECT_TRUE(report.distinct_items.has_value());
  EXPECT_FALSE(report.second_moment.has_value());
  EXPECT_FALSE(report.heavy_hitters.has_value());
  EXPECT_TRUE(report.entropy.has_value());
}

TEST(SerdeRoundTripTest, MergingIncompatibleDecodedSummariesDies) {
  // The wire header carries geometry + seed, so a decoded record from a
  // differently-seeded producer still trips the Merge precondition.
  CountMinSketch a(5, 512, 1);
  CountMinSketch b(5, 512, 2);
  serde::Writer writer;
  b.Serialize(writer);
  serde::Reader reader(writer.bytes());
  auto decoded = CountMinSketch::Deserialize(reader);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_DEATH(a.Merge(*decoded), "incompatible");
}

}  // namespace
}  // namespace substream
